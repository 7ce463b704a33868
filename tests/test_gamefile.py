"""The JSON writer against the json module, the format's byte pins and the loader's refusals.

gamefile.dumps must return exactly json.dumps(data, indent=2,
sort_keys=True), failures included, while it writes containers of
scalars through the C encoder. The pins fix the bytes of the lunch game
files and of two CLI documents, as the writer gave them before it
stopped using json's pure-Python encoder, and of two enumerate outputs,
as the CLI gave them before families built their structures lazily. The
loader must refuse each malformed document with its own message, and
the CLI with exit code 2. The writer must build the text of each
distinct payoff row and table literal once, and files are read as UTF-8
in any locale.
"""

from __future__ import annotations

import collections
import decimal
import enum
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _shared import restricted
from coalition_forge import gamefile, games
from coalition_forge.cli import SEED_ENV, main
from coalition_forge.gamefile import (
    GameFileError,
    dumps,
    game_from_dict,
    game_to_dict,
    load_game,
    load_profile,
    profile_from_dict,
    save_game,
)
from coalition_forge.partitions import PartitionFamily

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


class Slot(int):
    """The place in a drawn tree of one of shared_trees' drawn containers."""


# Trees with slots; doubled lists make repeated siblings certain, not only likely.
slotted_trees = st.recursive(
    st.integers(0, 2).map(Slot) | scalars,
    lambda children: containers(children)
    | st.lists(children, min_size=1, max_size=2).map(lambda xs: xs * 2),
    max_leaves=8,
)


def placed(tree, pool):
    """tree with each slot replaced by its container of pool, the same object at every place."""
    if type(tree) is Slot:
        return pool[tree % len(pool)]
    if type(tree) is dict:
        return {key: placed(value, pool) for key, value in tree.items()}
    if type(tree) in (list, tuple):
        return type(tree)(placed(value, pool) for value in tree)
    return tree


@st.composite
def shared_trees(draw, cycle):
    """Trees that hold drawn containers at several places by identity.

    The last drawn container recurs as siblings at one depth, at other
    depths, as dict values (under str, int, float and bool keys) and as
    list items, and the tree beside it may hold any of them again; with
    cycle, it is a list that holds itself.
    """
    pool = draw(st.lists(regular_trees | containers(scalars), min_size=1, max_size=3))
    if cycle:
        loop = [pool[k % len(pool)] for k in draw(st.lists(st.integers(0, 2), max_size=2))]
        loop.append(loop)
        pool.append(loop)
    tree, shared = placed(draw(slotted_trees), pool), pool[-1]
    layouts = [
        [[shared, tree, shared]] * 2,
        {"a": shared, "b": [tree, shared], "c": tree},
        (tree, [shared, [shared]], tree),
        {-1: shared, 0.5: [tree], True: shared},
    ]
    return layouts[draw(st.integers(0, 3))]


class TestDumpsAgainstJson:
    @DIFFERENTIAL
    @given(trees)
    def test_random_trees(self, data):
        assert outcome(dumps, data) == outcome(reference, data)

    @DIFFERENTIAL
    @given(regular_trees)
    def test_regular_trees(self, data):
        assert outcome(dumps, data) == outcome(reference, data)

    @DIFFERENTIAL
    @given(shared_trees(cycle=False))
    def test_trees_that_share_containers(self, data):
        assert outcome(dumps, data) == outcome(reference, data)

    @DIFFERENTIAL
    @given(shared_trees(cycle=True))
    def test_trees_that_share_a_container_holding_itself(self, data):
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
    # The pure lane's outputs as the CLI gave them before it printed them
    # from one profile array.
    "solve lunch --method pure --json": (
        "87539862f30486e7dbda04e198e567f2d2d1cea3e62c8e37246f076c082c3141"
    ),
    "solve lunch --method pure": (
        "52fb1542adeacaa291f60ccc3bd1bef0f87f0c9df7b9778a9bc690d2efa5e63b"
    ),
    "solve lunch_K2.json --method pure": (
        "37307f85aeeb4f3585fce6bc6f8cbbf907071bb9bfd593d0cbace1c471d7c957"
    ),
    "solve lunch_K3.json --method pure --json": (
        "4974542eab5e09e06ffd150f0bcb7119a271e2423ae609e254f281d2501c4843"
    ),
}
# sha256 of text outputs as the CLI gave them before it formatted each
# equilibrium's lines from its JSON entry: float and exact results, pure
# and mixed profiles, verified or not.
CLI_TEXTS = {
    "solve bos --method iterative": (
        "9aa989a1db3e2889fd703a0f0e5807bf93bf844cb9b0ea2792c521c25f52578d"
    ),
    "solve bos --method iterative --tolerance 0.01 --seed 9": (
        "a044d5ad4078635b13c376ef849ddfbf3dec692f2597777a6facc122444e867a"
    ),
    "solve bos --method support": (
        "7a6d4d2f5246d3e07655fdc48f336b9821b24546e3baf6eafc7dc5ca76c59005"
    ),
    "analyze pd-extroverts --coalition 1,2": (
        "5742f5b8d79cfa7491617548ab338fff750a1269c004ab856950a59238f25b99"
    ),
    "analyze bos --coalition Ann,Bob": (
        "696ebe561ed084451859842bab25794668f0fe4aae7bd11fc1c56820008aef09"
    ),
    "stability lunch_K2.json lunch_K3.json --K0 2": (
        "72f9c7f25eb00b4fb561d0b0cafd77d59eaec2df9120fcaa17ce292e20f1a040"
    ),
    "solve lunch --method iterative": (
        "51a2de6a33ee942a5beec4ae06b1072f8d5bdfe75c16460e32459357d4c35fe0"
    ),
}
# sha256 of the enumerate outputs as the CLI gave them before families
# built their structures lazily.
ENUMERATE_OUTPUTS = {
    "enumerate -n 8 --json": "48f8a43641e50d5a384a6dc7255cb0fdd7b1f73eebb047add4f9e4e3bc72541f",
    "enumerate -n 7 -K 3": "362854b35e29ee362c0c692e57259b3378e48aa247996e2b71acb59aa109be5e",
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


@pytest.mark.parametrize("command", sorted(CLI_TEXTS))
def test_cli_text_bytes_are_pinned(lunch_folder, command, monkeypatch, capsys):
    monkeypatch.delenv(SEED_ENV, raising=False)  # the iterative runs start from seed 0
    monkeypatch.chdir(lunch_folder)  # the stability text names its source files
    assert main(command.split()) == 0
    assert sha256(capsys.readouterr().out.encode()) == CLI_TEXTS[command]


@pytest.mark.parametrize("command", sorted(ENUMERATE_OUTPUTS))
def test_enumerate_output_bytes_are_pinned(command, capsys):
    assert main(command.split()) == 0
    assert sha256(capsys.readouterr().out.encode()) == ENUMERATE_OUTPUTS[command]


# -- the loader's rejections ---------------------------------------------------


def small_document():
    """A valid two-player game document at cap 2 with a table mechanism."""
    pair, split = [["A", "B"]], [["A"], ["B"]]
    strategies = [{"partition": pair, "action": "x"}, {"partition": split}]
    # Through JSON, so that no two entries share a list and an edit changes one entry.
    return json.loads(json.dumps({
        "schema_version": 1,
        "players": ["A", "B"],
        "K": 2,
        "strategies": [strategies, strategies],
        "mechanism": {"table": {"0,0": pair, "0,1": split, "1,0": split, "1,1": split}},
        "payoffs": {"0,0": ["1", "1"], "0,1": ["0", "2/3"], "1,0": ["2/3", "0"], "1,1": [0, 0]},
    }))


DROP = object()

# (path to one entry of small_document(), its new value or DROP, the message)
LOADER_REJECTIONS = [
    (("schema_version",), 2, "game document schema_version must be 1, got 2"),
    (("K",), DROP, "game document is missing keys: K"),
    (("colour",), "red", "game document has unknown keys: colour"),
    ((7,), "red", "game document has unknown keys: 7"),
    (("players",), [], "players must be a non-empty list of names"),
    (("players", 1), 2, "players[1] must be a non-empty string"),
    (("players", 1), "A", "player names must be distinct"),
    (("K",), 3, "K must be an integer in 1..2, got 3"),
    (("K",), 1, "strategies[0][0].partition has a block larger than K=1"),
    (("strategies", 1), DROP, "strategies must be a list with one entry per player (2)"),
    (("strategies", 1), [], "strategies[1] must be a non-empty list"),
    (("strategies", 0, 1), "split", "strategies[0][1] must be an object, got str"),
    (("strategies", 0, 1, "colour"), "red", "strategies[0][1] has unknown keys: colour"),
    (("strategies", 0, 1, "partition"), DROP, "strategies[0][1] is missing keys: partition"),
    (("strategies", 0, 0, "action"), 1, "strategies[0][0].action must be a string"),
    (("strategies", 0, 1, "partition"), "A|B", "strategies[0][1].partition must be a list of blocks"),
    (
        ("strategies", 0, 1, "partition", 1),
        [],
        "strategies[0][1].partition block 1 must be a non-empty list of names",
    ),
    (
        ("strategies", 0, 1, "partition", 1, 0),
        "C",
        "strategies[0][1].partition block 1 names unknown player 'C'",
    ),
    (
        ("strategies", 0, 1, "partition", 1, 0),
        "A",
        "strategies[0][1].partition assigns a player to two blocks",
    ),
    (
        ("strategies", 0, 1, "partition", 1),
        DROP,
        "strategies[0][1].partition does not cover every player exactly once",
    ),
    (
        ("mechanism",),
        "majority",
        "mechanism must be \"unanimity\" or an object with a table, got 'majority'",
    ),
    (("mechanism", "rule"), "majority", "mechanism has unknown keys: rule"),
    (("mechanism", "table"), DROP, "mechanism is missing keys: table"),
    (("mechanism", "table"), [], "mechanism.table must be an object, got list"),
    (
        ("mechanism", "table", "1,1", 1),
        DROP,
        "mechanism.table['1,1'] does not cover every player exactly once",
    ),
    (("payoffs",), [], "payoffs must be an object, got list"),
    (("payoffs", 0), ["0", "0"], "payoffs keys must be strings of comma-joined indices"),
    (("payoffs", "0,1", 1), DROP, "payoffs['0,1'] must list 2 rationals"),
    (("payoffs", "1,0", 0), 0.5, "payoffs['1,0'][0] must be a rational string, got float"),
    (
        ("strategies", 0, 1, "partition"),
        [["A", "A"], ["B"]],
        "strategies[0][1].partition block 0 names player 'A' twice",
    ),
    (
        ("mechanism", "table", "0,1"),
        [["A"], ["B", "B"]],
        "mechanism.table['0,1'] block 1 names player 'B' twice",
    ),
]
# Rejections also run through the CLI, one from each part of the document.
CLI_REJECTIONS = {
    "game document is missing keys: K",
    "players[1] must be a non-empty string",
    "strategies[0][0].partition has a block larger than K=1",
    "payoffs['0,1'] must list 2 rationals",
    "strategies[0][1].partition block 0 names player 'A' twice",
}


def one_edit(path, value):
    """small_document() with the entry at path replaced by value, or dropped."""
    document = small_document()
    *parents, last = path
    target = document
    for key in parents:
        target = target[key]
    if value is DROP:
        del target[last]
    else:
        target[last] = value
    return document


def test_the_small_document_loads():
    game, names = game_from_dict(small_document())
    assert names == ("A", "B") and game.shape == (2, 2)
    assert str(game.payoff((1, 0))[0]) == "2/3"


@pytest.mark.parametrize(
    "path, value, message", LOADER_REJECTIONS, ids=[m for _, _, m in LOADER_REJECTIONS]
)
def test_loader_rejects_each_malformed_document_with_its_message(tmp_path, path, value, message):
    document = one_edit(path, value)
    with pytest.raises(GameFileError) as caught:
        game_from_dict(document)
    assert str(caught.value) == message
    if message in CLI_REJECTIONS:
        file = tmp_path / "game.json"
        file.write_text(dumps(document) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["solve", str(file)])
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "names, message",
    [
        (("", "B"), "players[0] must be a non-empty string"),
        ((1, 2), "players[0] must be a non-empty string"),
        (("A", "A"), "player names must be distinct"),
        ((), "players must be a non-empty list of names"),
        (("A",), "need 2 distinct player names"),
    ],
)
def test_writer_refuses_names_the_loader_refuses(tmp_path, names, message):
    file = tmp_path / "game.json"
    with pytest.raises(GameFileError) as caught:
        save_game(restricted("bos", 2), file, names)
    assert str(caught.value) == message
    assert not file.exists()


def test_unreadable_files_are_rejected(tmp_path):
    missing = tmp_path / "missing.json"
    with pytest.raises(GameFileError) as caught:
        load_game(missing)
    assert str(caught.value) == (
        f"cannot read {missing}: [Errno 2] No such file or directory: '{missing}'"
    )
    noise = tmp_path / "noise.json"
    noise.write_text("not json {")
    with pytest.raises(GameFileError) as caught:
        load_game(noise)
    assert str(caught.value) == (
        f"{noise} is not valid JSON: Expecting value: line 1 column 1 (char 0)"
    )


@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 100_000 + b"]" * 100_000, "{} nests too deeply to parse"),
        (b"\xff\xfe{}", "cannot read {}: "),
    ],
    ids=["deep", "undecodable"],
)
def test_deep_and_undecodable_files_are_rejected_naming_the_file(tmp_path, content, message):
    game, _ = game_from_dict(small_document())
    file = tmp_path / "bad.json"
    file.write_bytes(content)
    for load in (lambda: load_game(file), lambda: load_profile(file, game)):
        with pytest.raises(GameFileError) as caught:
            load()
        assert str(caught.value).startswith(message.format(file))


# Reads one good and one undecodable file, and prints the names and the error as JSON.
READ_IN_A_CHILD = """
import json, sys
from coalition_forge.gamefile import GameFileError, load_game
names = load_game(sys.argv[1])[1]
try:
    load_game(sys.argv[2])
except GameFileError as exc:
    print(json.dumps([names, str(exc)]))
"""


def test_game_files_are_read_as_utf8_in_any_locale(tmp_path):
    text = json.dumps(game_to_dict(restricted("bos", 2), ("Zoë", "Bob")), ensure_ascii=False)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_bytes(text.encode("utf-8"))
    bad.write_bytes(text.encode("latin-1"))
    # An ASCII locale, with neither locale coercion nor UTF-8 mode to mend it.
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    env["PYTHONPATH"] = str(Path(gamefile.__file__).parents[1])
    child = subprocess.run(
        [sys.executable, "-c", READ_IN_A_CHILD, str(good), str(bad)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    names, error = json.loads(child.stdout)
    assert names == ["Zoë", "Bob"]
    assert error.startswith(f"cannot read {bad}: 'utf-8' codec can't decode byte 0xeb")


@pytest.mark.parametrize(
    "document, message",
    [
        (
            {"schema_version": 0, "weights": [["1", "0"], ["0", "1"]]},
            "profile document schema_version must be 1, got 0",
        ),
        ({"schema_version": 1, "weights": [["1", "0"]]}, "weights must list one row per player (2)"),
        ({"schema_version": 1, "weights": [["1", "0"], ["1"]]}, "weights[1] must list 2 rationals"),
    ],
)
def test_profile_loader_rejects_rows_that_do_not_fit(tmp_path, document, message):
    game, _ = game_from_dict(small_document())
    file = tmp_path / "profile.json"
    file.write_text(dumps(document) + "\n")
    for load in (lambda: profile_from_dict(document, game), lambda: load_profile(file, game)):
        with pytest.raises(GameFileError) as caught:
            load()
        assert str(caught.value) == message


# -- one reader for both profile-keyed tables ----------------------------------


def lunch_table_document():
    """The cap 3 lunch game with its unanimity index written out as a table."""
    lunch = restricted("lunch", 3)
    table = games._handed(lunch.family, lunch.strategy_sets, lunch.payoffs, lunch.realized_index, True)
    return table, game_to_dict(table, ("A", "B", "C", "D"))


def counted(monkeypatch, name):
    """Calls of the gamefile function name, counted per first argument."""
    function, calls = getattr(gamefile, name), collections.Counter()

    def wrapper(value, *args, **kwargs):
        calls[repr(value)] += 1
        return function(value, *args, **kwargs)

    monkeypatch.setattr(gamefile, name, wrapper)
    return calls


def test_each_distinct_entry_of_a_table_file_is_read_once(monkeypatch):
    table, document = lunch_table_document()
    literals = collections.Counter(map(repr, document["mechanism"]["table"].values()))
    partitions = {repr(s["partition"]) for strategies in document["strategies"] for s in strategies}
    texts = {v for row in document["payoffs"].values() for v in row}
    assert (len(document["mechanism"]["table"]), len(literals)) == (38_416, 14)
    structures = counted(monkeypatch, "_parse_structure")
    rationals = counted(monkeypatch, "parse_rational")
    game, _ = game_from_dict(document)
    # Once per distinct literal of the strategy lists and of the table.
    assert sum(structures.values()) == len(partitions) + len(literals)
    assert len(partitions) < sum(table.shape)
    assert rationals == collections.Counter(map(repr, texts))
    # The cap 3 lunch table file round-trips.
    assert game.mechanism.kind == "table"
    assert game.payoff_scale == table.payoff_scale
    assert np.array_equal(game.payoff_ints, table.payoff_ints)
    assert np.array_equal(game.realized_index, table.realized_index)
    assert game_to_dict(game, ("A", "B", "C", "D")) == document


def test_a_table_file_looks_up_each_distinct_structure_once(monkeypatch):
    table, document = lunch_table_document()
    rows = collections.Counter()
    row = games._row

    def counted_row(structure):
        rows[id(structure)] += 1
        return row(structure)

    monkeypatch.setattr(games, "_row", counted_row)
    game, _ = game_from_dict(document)
    assert np.array_equal(game.realized_index, table.realized_index)
    assert len(rows) <= 14 and set(rows.values()) == {1}


def test_the_loader_finds_each_distinct_strategy_partition_once(lunch_folder, monkeypatch):
    document = json.loads((lunch_folder / "lunch_K4.json").read_text(encoding="utf-8"))
    literals = [repr(s["partition"]) for strategies in document["strategies"] for s in strategies]
    assert (len(literals), len(set(literals))) == (60, 15)
    looked_up = []  # per call of the family lookup, how many structures it finds
    find = PartitionFamily._find

    def counted_find(family, leaders):
        looked_up.append(int(np.prod(np.shape(leaders)[:-1])))
        return find(family, leaders)

    monkeypatch.setattr(PartitionFamily, "_find", counted_find)
    game, _ = game_from_dict(document)
    assert len(looked_up) <= 15 and sum(looked_up) == 15
    assert game.strategy_sets == restricted("lunch", 4).strategy_sets


def test_a_repeated_faulty_literal_is_named_at_its_first_key():
    document = small_document()
    bad, table = [["A"], ["A", "B"]], document["mechanism"]["table"]
    # Document order differs from the canonical order of the keys.
    document["mechanism"]["table"] = {"1,1": bad, "0,0": table["0,0"], "0,1": bad, "1,0": table["1,0"]}
    with pytest.raises(GameFileError) as caught:
        game_from_dict(document)
    assert str(caught.value) == "mechanism.table['1,1'] assigns a player to two blocks"


def test_a_player_in_two_blocks_is_named_before_a_player_named_twice():
    document = one_edit(("mechanism", "table", "0,1"), [["A", "B"], ["B", "B"]])
    with pytest.raises(GameFileError) as caught:
        game_from_dict(document)
    assert str(caught.value) == "mechanism.table['0,1'] assigns a player to two blocks"


@pytest.mark.parametrize(
    "first, second, message",
    [
        ([1, 1], [True, True], "payoffs['1,1'][0] must be a rational, got True"),
        ([1, 1], [1.0, 1.0], "payoffs['1,1'][0] must be a rational string, got float"),
        ([1, "1"], [1, True], "payoffs['1,1'][1] must be a rational, got True"),
        (["1", 1], ["1", 1.0], "payoffs['1,1'][1] must be a rational string, got float"),
    ],
)
def test_values_that_compare_equal_are_read_apart(first, second, message):
    document = small_document()
    document["payoffs"]["0,0"], document["payoffs"]["1,1"] = first, second
    with pytest.raises(GameFileError) as caught:
        game_from_dict(document)
    assert str(caught.value) == message


def test_a_name_is_not_a_block_of_names():
    document = small_document()
    document["mechanism"]["table"]["0,0"] = [["A", "B"]]
    document["mechanism"]["table"]["1,1"] = ["AB"]
    with pytest.raises(GameFileError) as caught:
        game_from_dict(document)
    assert str(caught.value) == "mechanism.table['1,1'] block 0 must be a non-empty list of names"


def deeper(frames, call):
    """call() run frames Python frames further down the stack."""
    return call() if frames == 0 else deeper(frames - 1, call)


def deepest(template):
    """template with its {} replaced by the most deeply nested list json.loads reads."""
    depth = 1
    while True:
        try:
            json.loads(template.replace("{}", "[" * (depth + 1) + "]" * (depth + 1)))
        except RecursionError:
            return template.replace("{}", "[" * depth + "]" * depth)
        depth += 1


@pytest.mark.parametrize(
    "row, message",
    [
        ("{}", "payoffs['0,0'] must list 2 rationals"),
        ('["1", {}]', "payoffs['0,0'][1] must be a rational string, got list"),
    ],
)
def test_deeply_nested_payoff_rows_are_refused_with_their_message(row, message):
    document = small_document()
    document["payoffs"]["0,0"] = "ROW"
    document = json.loads(deepest(json.dumps(document).replace('"ROW"', row)))
    # Refused whatever the depth of the caller's stack.
    with pytest.raises(GameFileError) as caught:
        deeper(50, lambda: game_from_dict(document))
    assert str(caught.value) == message


def test_deeply_nested_player_name_is_refused_with_its_message():
    name = "A"
    for _ in range(991):
        name = [name]
    document = small_document()
    document["mechanism"]["table"]["0,0"] = [name]
    # Refused whatever the depth of the caller's stack.
    for frames in (0, 100):
        with pytest.raises(GameFileError) as caught:
            deeper(frames, lambda: game_from_dict(document))
        assert str(caught.value) == (
            "mechanism.table['0,0'] block 0 names unknown player [[[[[[[...]]]]]]]"
        )


# -- the writer's work, once per distinct row ----------------------------------


def reference_payoffs(game):
    """The payoffs of game_to_dict as written before equal rows shared one list: a list per profile."""
    rows = game.payoff_ints.reshape(-1, game.n_players).tolist()
    text = {v: str(Fraction(v, game.payoff_scale)) for v in set(itertools.chain.from_iterable(rows))}
    return dict(zip(gamefile._profile_keys(game.shape), [list(map(text.__getitem__, row)) for row in rows]))


def counted_encoders(monkeypatch):
    """Calls of the C encoders dumps builds, counted per id of the value encoded."""
    make, calls = gamefile.c_make_encoder, collections.Counter()

    def counting(*args):
        encoder = make(*args)

        def encode(value, level):
            calls[id(value)] += 1
            return encoder(value, level)

        return encode

    monkeypatch.setattr(gamefile, "c_make_encoder", counting)
    return calls


def test_each_distinct_payoff_row_of_a_game_file_is_written_once(monkeypatch):
    game = restricted("lunch", 4)
    document = game_to_dict(game, ("A", "B", "C", "D"))
    rows = {id(row): row for row in document["payoffs"].values()}
    assert (len(document["payoffs"]), len(rows)) == (50_625, 8)
    assert document["payoffs"] == reference_payoffs(game)
    encoded = counted_encoders(monkeypatch)
    text = dumps(document)
    # Each row's own call, not one call for the whole table.
    assert [encoded[i] for i in rows] == [1] * 8
    assert encoded[id(document["payoffs"])] == 0
    assert text == reference(document)


def test_each_distinct_literal_of_a_table_file_is_written_once(monkeypatch):
    _, document = lunch_table_document()
    lifted = counted(monkeypatch, "_lift")
    dumps(document["mechanism"])
    assert (len(document["mechanism"]["table"]), len(lifted), sum(lifted.values())) == (38_416, 14, 14)
    monkeypatch.undo()
    assert dumps(document) == reference(document)


# -- the dense table limit -----------------------------------------------------


def wide_document():
    """4 players with 100 strategies each, 10**8 profiles, and no payoffs."""
    strategies = [{"partition": [["A"], ["B"], ["C"], ["D"]], "action": f"a{k}"} for k in range(100)]
    return {
        "schema_version": 1,
        "players": ["A", "B", "C", "D"],
        "K": 1,
        "strategies": [strategies] * 4,
        "mechanism": "unanimity",
        "payoffs": {},
    }


def test_a_document_too_large_for_a_dense_table_is_refused_before_its_keys(monkeypatch, tmp_path):
    def walked(shape):
        raise AssertionError(f"the profile keys of {shape} were built")

    monkeypatch.setattr(gamefile, "_profile_keys", walked)
    document = wide_document()
    message = "100000000 profiles of 4 entries each exceed the dense table limit of 134217728 entries"
    with pytest.raises(games.ValidationError) as caught:
        game_from_dict(document)
    assert str(caught.value) == message
    file = tmp_path / "big.json"
    file.write_text(json.dumps(document))
    assert file.stat().st_size == 24_887
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["solve", str(file)])
    assert (code, out.getvalue()) == (3, "")
    assert err.getvalue() == f"coalition-forge: invalid game: {message}\n"


def test_the_loader_counts_payoff_entries_against_the_dense_limit(monkeypatch):
    # bos has 16 profiles of 2 payoffs each.
    document = game_to_dict(restricted("bos", 2), ("A", "B"))
    monkeypatch.setattr(games, "_DENSE_LIMIT", 32)
    assert game_from_dict(document)[0].shape == (4, 4)
    monkeypatch.setattr(games, "_DENSE_LIMIT", 31)
    with pytest.raises(games.ValidationError, match="^16 profiles of 2 entries each exceed the dense"):
        game_from_dict(document)
