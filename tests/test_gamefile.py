"""The JSON writer against the json module, and the byte pins of the format.

gamefile.dumps must return exactly json.dumps(data, indent=2,
sort_keys=True), failures included, while it writes containers of
scalars through the C encoder. The pins fix the bytes of the lunch game
files and of two CLI documents, as the writer gave them before it
stopped using json's pure-Python encoder.
"""

from __future__ import annotations

import collections
import decimal
import enum
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _shared import restricted
from coalition_forge.cli import main
from coalition_forge.gamefile import dumps, save_game

DIFFERENTIAL = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def outcome(write, data):
    """The text write gives for data, or the type and message of its failure."""
    try:
        return write(data)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def reference(data):
    return json.dumps(data, indent=2, sort_keys=True)


# Characters that mean something to JSON, to the writer's separators or
# to its markers, plus one non-ASCII and one astral character.
odd_text = st.text(
    st.sampled_from(
        ['"', "\\", "[", "]", "{", "}", ",", ":", " ", "a"]
        + ["\n", "\x00", "\x02", "\x03", "é", "\U0001d11e"]
    ),
    max_size=5,
)
big_ints = st.integers(-(2**70), 2**70) | st.sampled_from([2**63, -(2**63) - 1, 10**100])
odd_floats = st.sampled_from([-0.0, 0.0, 1.5, 1e300, float("nan"), float("inf"), float("-inf")])
scalars = odd_text | big_ints | st.booleans() | st.none() | odd_floats | st.floats()
unserialisable = st.sampled_from([object(), {1, 2}, b"x", 1j, range(2)])


def containers(children):
    lists = st.lists(children, max_size=4)
    return (
        lists
        | lists.map(tuple)
        | st.dictionaries(odd_text, children, max_size=4)
        | st.dictionaries(big_ints | st.booleans() | odd_floats, children, max_size=4)
        | st.dictionaries(st.none(), children, max_size=1)
        # Mixed key types fail json's sort; tuple and Decimal keys fail its
        # conversion, the Decimal one with a message that names the type
        # by __name__ where the C encoder names it decimal.Decimal.
        | st.dictionaries(
            odd_text | big_ints | st.none() | st.sampled_from([(1,), decimal.Decimal(1)]),
            children,
            max_size=3,
        )
    )


trees = st.recursive(scalars, containers, max_leaves=40)
# Regular trees: containers of containers of scalars at every depth, as
# game files and solve documents hold them.
regular_trees = st.recursive(
    st.lists(odd_text | big_ints, min_size=1, max_size=3)
    | st.dictionaries(odd_text, scalars, min_size=1, max_size=3),
    containers,
    max_leaves=30,
)


class TestDumpsAgainstJson:
    @DIFFERENTIAL
    @given(trees)
    def test_random_trees(self, data):
        assert outcome(dumps, data) == outcome(reference, data)

    @DIFFERENTIAL
    @given(regular_trees)
    def test_regular_trees(self, data):
        assert outcome(dumps, data) == outcome(reference, data)

    @settings(DIFFERENTIAL, max_examples=100)
    @given(st.recursive(scalars | unserialisable, containers, max_leaves=20))
    def test_trees_with_unserialisable_objects(self, data):
        assert outcome(dumps, data) == outcome(reference, data)

    @pytest.mark.parametrize(
        "data",
        [
            [],
            {},
            [[]],
            [{}, []],
            {"a": [], "b": {}},
            [[1], []],
            {"a": [1], "b": []},
            [[[]]],
            {"k": {"j": []}},
            "top",
            None,
            -0.0,
            float("nan"),
            2**100,
        ],
    )
    def test_empty_containers_and_scalars(self, data):
        assert dumps(data) == reference(data)

    def test_subclasses_are_written_as_json_writes_them(self):
        Pair = collections.namedtuple("Pair", "left right")

        class Size(enum.IntEnum):
            SMALL = 1

        class Name(str):
            pass

        class Ratio(float):
            pass

        data = {
            "named": [Pair(1, [2]), Pair("x", "y")],
            "ordered": collections.OrderedDict(
                [("b", [Size.SMALL]), ("a", {Size.SMALL: Name("n")})]
            ),
            "values": [Size.SMALL, Name("n"), Ratio(0.5), [Ratio(1.0)]],
        }
        assert dumps(data) == reference(data)

    @pytest.mark.parametrize("make", [list, dict])
    def test_cycles_raise_as_json_raises(self, make):
        data = make()
        if make is list:
            data.append([data])
        else:
            data["self"] = {"again": data}
        assert outcome(dumps, data) == (ValueError, "Circular reference detected")
        assert outcome(reference, data) == outcome(dumps, data)

    def test_shared_containers_are_not_cycles(self):
        shared = [[1, 2], [3]]
        data = {"a": shared, "b": [shared, shared[0]]}
        assert dumps(data) == reference(data)


# sha256 of the bytes the writer gave before it used the C encoder.
LUNCH_FILES = {
    2: "22bcf8335e7eb2270d6ad7ca8d59b5b1c6248a20d2ee6a2650c74e7340542370",
    3: "74011b94d1c4347d6a354c9879b74f52374a7c8d084c231dae0bfeca48b8dc78",
    4: "db9b7fedc3580de3a56f7bb922408995af872e98fc122a8cf9ea781ea6d7af61",
}
CLI_DOCUMENTS = {
    "solve lunch_K2.json --method pure --json": (
        "98388d4e7bf8e7e6d91939fdddaf124b49567e47f98373991b84cc5df8735aed"
    ),
    "stability lunch_K2.json lunch_K3.json --K0 2 --json": (
        "7c833276982e0d0d6691f13650cecaada60a171bc737c2727bf50b8f8edcb60d"
    ),
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def lunch_folder(tmp_path_factory):
    """The catalog lunch saved at caps 2, 3 and 4, as the benchmark writes it."""
    folder = tmp_path_factory.mktemp("lunch")
    for cap in LUNCH_FILES:
        save_game(restricted("lunch", cap), folder / f"lunch_K{cap}.json", ("A", "B", "C", "D"))
    return folder


@pytest.mark.parametrize("cap", sorted(LUNCH_FILES))
def test_lunch_game_file_bytes_are_pinned(lunch_folder, cap):
    assert sha256((lunch_folder / f"lunch_K{cap}.json").read_bytes()) == LUNCH_FILES[cap]


@pytest.mark.parametrize("command", sorted(CLI_DOCUMENTS))
def test_cli_document_bytes_are_pinned(lunch_folder, command, monkeypatch, capsys):
    monkeypatch.chdir(lunch_folder)  # the documents name their source files
    assert main(command.split()) == 0
    assert sha256(capsys.readouterr().out.encode()) == CLI_DOCUMENTS[command]
