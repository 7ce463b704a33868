"""Reading and writing games and mixed profiles as JSON documents.

The on-disk format is deliberately small. A game document carries the
player names, the coalition size cap, the per-player strategy lists,
the mechanism, and an exact payoff table keyed by comma-joined strategy
indices. Every number is a rational written as a string, so documents
round-trip without floating-point drift. Unknown keys anywhere in a
document are rejected rather than ignored.

Every document is written by dumps, whose text is exactly
json.dumps(data, indent=2, sort_keys=True), so the format is byte
stable. game_to_dict reads the validated payoff tensor: each payoff's
text is str(Fraction) of its payoff_ints entry over payoff_scale, the
text of the stored value. game_from_dict reads the tables the other
way, straight into the game's two arrays: each distinct payoff text
becomes one Fraction, the payoff rows and the mechanism's structures
are listed in canonical key order for the payoff and table readers of
games, and no profile-keyed mapping is built.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping, NoReturn, Sequence

from .games import (
    UNANIMITY,
    CoalitionGame,
    Strategy,
    ValidationError,
    _handed,
    _read_payoffs,
    _read_table,
)
from .partitions import CoalitionStructure, enumerate_partitions
from .solver import MixedProfile

SCHEMA_VERSION = 1

_GAME_KEYS = {"schema_version", "players", "K", "strategies", "mechanism", "payoffs"}
_STRATEGY_KEYS = {"partition", "action"}
_MECHANISM_KEYS = {"table"}
_PROFILE_KEYS = {"schema_version", "weights"}


class GameFileError(ValueError):
    """A document is malformed or does not describe a game."""


def _require_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise GameFileError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _check_keys(data: Mapping[str, Any], allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise GameFileError(f"{where} has unknown keys: {', '.join(unknown)}")
    missing = sorted(required - set(data))
    if missing:
        raise GameFileError(f"{where} is missing keys: {', '.join(missing)}")


def _check_version(data: Mapping[str, Any], where: str) -> None:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise GameFileError(f"{where} schema_version must be {SCHEMA_VERSION}, got {version!r}")


def parse_rational(value: Any, where: str) -> Fraction:
    """Read a rational from a "p/q" string or a JSON integer."""
    if isinstance(value, bool):
        raise GameFileError(f"{where} must be a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise GameFileError(f"{where} is not a rational: {value!r}") from None
    raise GameFileError(f"{where} must be a rational string, got {type(value).__name__}")


def format_rational(value: Fraction) -> str:
    """Exact "p/q" text of a number; floats convert without rounding."""
    if type(value) in (Fraction, int):
        return str(value)
    return str(Fraction(value))


def _parse_players(raw: Any) -> tuple[str, ...]:
    if not isinstance(raw, list) or not raw:
        raise GameFileError("players must be a non-empty list of names")
    names = []
    for i, name in enumerate(raw):
        if not isinstance(name, str) or not name:
            raise GameFileError(f"players[{i}] must be a non-empty string")
        names.append(name)
    if len(set(names)) != len(names):
        raise GameFileError("player names must be distinct")
    return tuple(names)


def _parse_structure(literal: Any, by_name: Mapping[str, int], n: int, where: str) -> CoalitionStructure:
    if not isinstance(literal, list):
        raise GameFileError(f"{where} must be a list of blocks")
    blocks = []
    seen: set[int] = set()
    for b, block in enumerate(literal):
        if not isinstance(block, list) or not block:
            raise GameFileError(f"{where} block {b} must be a non-empty list of names")
        members = []
        for name in block:
            if not isinstance(name, str) or name not in by_name:
                raise GameFileError(f"{where} block {b} names unknown player {name!r}")
            members.append(by_name[name])
        if seen & set(members):
            raise GameFileError(f"{where} assigns a player to two blocks")
        seen.update(members)
        blocks.append(sorted(members))
    if seen != set(range(n)):
        raise GameFileError(f"{where} does not cover every player exactly once")
    return CoalitionStructure.of(blocks, n)


def _structure_literal(structure: CoalitionStructure, names: Sequence[str]) -> list[list[str]]:
    return [[names[i] for i in block] for block in structure.blocks]


def _profile_keys(shape: Sequence[int]) -> list[str]:
    """The canonical key of each profile of the space, in CoalitionGame.profiles() order."""
    return list(map(",".join, itertools.product(*([str(k) for k in range(m)] for m in shape))))


def _reject_profile_key(key: Any, shape: Sequence[int], where: str) -> NoReturn:
    """Raise the error that says why a key is not the canonical key of a profile."""
    if not isinstance(key, str):
        raise GameFileError(f"{where} keys must be strings of comma-joined indices")
    parts = key.split(",")
    if len(parts) != len(shape):
        raise GameFileError(f"{where} key {key!r} must have {len(shape)} indices")
    indices = []
    for i, part in enumerate(parts):
        try:
            idx = int(part)
        except ValueError:
            raise GameFileError(f"{where} key {key!r} has a non-integer index") from None
        if not 0 <= idx < shape[i]:
            raise GameFileError(
                f"{where} key {key!r}: index {idx} out of range for player {i}"
            )
        indices.append(idx)
    # int() also reads "00", " 1" and "+0"; such a key could name the same
    # profile as a canonical one and silently replace its entry.
    raise GameFileError(
        f"{where} key {key!r} is not canonical, expected {','.join(map(str, indices))!r}"
    )


def game_from_dict(data: Any) -> tuple[CoalitionGame, tuple[str, ...]]:
    """Build a validated game and its player names from a parsed document."""
    data = _require_mapping(data, "game document")
    _check_keys(data, _GAME_KEYS, _GAME_KEYS, "game document")
    _check_version(data, "game document")

    names = _parse_players(data["players"])
    n = len(names)
    by_name = {name: i for i, name in enumerate(names)}

    cap = data["K"]
    if isinstance(cap, bool) or not isinstance(cap, int) or not 1 <= cap <= n:
        raise GameFileError(f"K must be an integer in 1..{n}, got {cap!r}")
    family = enumerate_partitions(n, cap)

    raw_sets = data["strategies"]
    if not isinstance(raw_sets, list) or len(raw_sets) != n:
        raise GameFileError(f"strategies must be a list with one entry per player ({n})")
    strategy_sets = []
    for i, raw_list in enumerate(raw_sets):
        if not isinstance(raw_list, list) or not raw_list:
            raise GameFileError(f"strategies[{i}] must be a non-empty list")
        strategies = []
        for j, raw in enumerate(raw_list):
            where = f"strategies[{i}][{j}]"
            raw = _require_mapping(raw, where)
            _check_keys(raw, _STRATEGY_KEYS, {"partition"}, where)
            structure = _parse_structure(raw["partition"], by_name, n, f"{where}.partition")
            try:
                desired = family.index_of(structure)
            except ValueError:
                raise GameFileError(
                    f"{where}.partition has a block larger than K={cap}"
                ) from None
            action = raw.get("action", "")
            if not isinstance(action, str):
                raise GameFileError(f"{where}.action must be a string")
            strategies.append(Strategy(desired, action))
        strategy_sets.append(tuple(strategies))
    shape = [len(s) for s in strategy_sets]
    keys = _profile_keys(shape)
    canonical = set(keys)

    raw_mech = data["mechanism"]
    if raw_mech == UNANIMITY:
        table = None
    elif isinstance(raw_mech, Mapping):
        _check_keys(raw_mech, _MECHANISM_KEYS, _MECHANISM_KEYS, "mechanism")
        raw_table = _require_mapping(raw_mech["table"], "mechanism.table")
        table = {}
        for key, literal in raw_table.items():
            if key not in canonical:
                _reject_profile_key(key, shape, "mechanism.table")
            table[key] = _parse_structure(literal, by_name, n, f"mechanism.table[{key!r}]")
    else:
        raise GameFileError(
            f'mechanism must be "{UNANIMITY}" or an object with a table, got {raw_mech!r}'
        )

    raw_payoffs = _require_mapping(data["payoffs"], "payoffs")
    # Each distinct string or integer, read once. Only strings are looked
    # up before reading: True and 1.0 would find the entry of 1.
    decoded: dict[Any, Fraction] = {}
    for key, row in raw_payoffs.items():
        if key not in canonical:
            _reject_profile_key(key, shape, "payoffs")
        if not isinstance(row, list) or len(row) != n:
            raise GameFileError(f"payoffs[{key!r}] must list {n} rationals")
        for i, v in enumerate(row):
            if type(v) is not str or v not in decoded:
                decoded[v] = parse_rational(v, f"payoffs[{key!r}][{i}]")
    rows = [row and tuple(map(decoded.__getitem__, row)) for row in map(raw_payoffs.get, keys)]
    payoffs = _read_payoffs(rows, (*shape, n))
    index = None
    if table is not None:
        # After the payoffs, so a payoff fault is named first.
        index = _read_table(list(map(table.get, keys)), family, shape)
    return _handed(family, strategy_sets, payoffs, index, table is not None), names


def game_to_dict(game: CoalitionGame, player_names: Sequence[str] | None = None) -> dict:
    """Serialize a game to a plain JSON-ready dictionary.

    Read from the validated tensors: the payoff whose payoff_ints entry
    is v is written as str(Fraction(v, payoff_scale)), the text
    format_rational gives for the stored payoff, and a table mechanism
    writes the structure realized_index names at each profile. Both
    tables are keyed by the profiles of the space, so a missing payoff
    raises the tensor's ValidationError, and a mechanism entry outside
    the space is not written.
    """
    names = _player_names(game, player_names)
    strategies = []
    for player_set in game.strategy_sets:
        entries = []
        for s in player_set:
            entry: dict[str, Any] = {
                "partition": _structure_literal(game.family[s.desired_partition], names)
            }
            if s.action:
                entry["action"] = s.action
            entries.append(entry)
        strategies.append(entries)
    keys = _profile_keys(game.shape)
    scale = game.payoff_scale
    rows = game.payoff_ints.reshape(-1, game.n_players).tolist()
    text = {v: str(Fraction(v, scale)) for v in set(itertools.chain.from_iterable(rows))}
    payoffs = dict(zip(keys, [list(map(text.__getitem__, row)) for row in rows]))
    if game.mechanism.kind == UNANIMITY:
        mechanism: Any = UNANIMITY
    else:
        index = game.realized_index.ravel().tolist()
        literals = {s: _structure_literal(game.family[s], names) for s in set(index)}
        mechanism = {"table": dict(zip(keys, map(literals.__getitem__, index)))}
    return {
        "schema_version": SCHEMA_VERSION,
        "players": list(names),
        "K": game.max_coalition,
        "strategies": strategies,
        "mechanism": mechanism,
        "payoffs": payoffs,
    }


def _player_names(game: CoalitionGame, player_names: Sequence[str] | None) -> tuple[str, ...]:
    if player_names is None:
        return tuple(str(i + 1) for i in range(game.n_players))
    names = tuple(player_names)
    if len(names) != game.n_players or len(set(names)) != len(names):
        raise GameFileError(f"need {game.n_players} distinct player names")
    return names


def _read_document(path: str | Path) -> Any:
    """The parsed JSON at path; read and decode failures raise GameFileError."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path} is not valid JSON: {exc}") from None


def load_game(path: str | Path) -> tuple[CoalitionGame, tuple[str, ...]]:
    """Read and validate a game document from disk."""
    return game_from_dict(_read_document(path))


def save_game(game: CoalitionGame, path: str | Path, player_names: Sequence[str] | None = None) -> None:
    Path(path).write_text(dumps(game_to_dict(game, player_names)) + "\n")


def dumps(data: Any) -> str:
    """Deterministic JSON text: exactly json.dumps(data, indent=2, sort_keys=True).

    json writes indented text with its pure-Python encoder. Here the
    containers are walked in Python, and each dict, list or tuple of
    height 1 or 2 (see _height) is written by one call to the C
    encoder. The encoder of a depth is built once per call, with that
    depth's newline and indent in its item separator, so the items of
    a height-1 container come out indented and only its brackets get
    theirs here; _lift indents the children of a height-2 container.
    Every other container is walked as json walks it: keys are sorted
    and converted as json converts them, empty containers are [] and
    {}, a cycle raises ValueError, and what JSON cannot hold raises
    json's TypeError, with json's messages.
    """
    out: list[str] = []
    encoders: dict[int, Any] = {}
    markers: set[int] = set()

    def encode(value: Any, depth: int) -> str:
        """C text of value with the item separator of items at depth + 1."""
        encoder = encoders.get(depth)
        if encoder is None:
            encoder = encoders[depth] = c_make_encoder(
                None, _refuse, encode_basestring_ascii, None,
                _KEY_MARK, ",\n" + "  " * (depth + 1), True, False, True,
            )
        return "".join(encoder(value, 0))

    def write(value: Any, depth: int) -> None:
        if not isinstance(value, (list, tuple, dict)) or not value:
            out.extend(_compact(value, 0))  # scalars, [] and {}
            return
        height = _height(value)
        indent = "\n" + "  " * depth
        if height == 1:
            text = encode(value, depth).replace(_KEY_MARK, ": ")
            out.extend((text[0], indent, "  ", text[1:-1], indent, text[-1]))
            return
        if height == 2:
            out.append(_lift(encode(value, depth + 1), depth))
            return
        if id(value) in markers:
            raise ValueError("Circular reference detected")
        markers.add(id(value))
        if isinstance(value, dict):
            # Each key is converted just before its value is written, as json does.
            brackets, items = "{}", ((_key_text(k), v) for k, v in sorted(value.items()))
        else:
            brackets, items = "[]", (("", v) for v in value)
        separator = brackets[0] + indent + "  "
        for key, item in items:
            out.extend((separator, key))
            write(item, depth + 1)
            separator = "," + indent + "  "
        out.append(indent + brackets[1])
        markers.remove(id(value))

    write(data, 0)
    return "".join(out)


def _refuse(value: Any) -> Any:
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


# Writes a scalar, [] or {} as json writes it at any indent.
_compact = c_make_encoder(
    None, _refuse, encode_basestring_ascii, None, ": ", ", ", True, False, True
)
_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = frozenset({list, tuple, dict})
# The key separator of the per-depth encoders. json escapes every control
# character inside a string, so raw "\x02" and "\x03" (and the newline of
# an item separator) never occur in the C text except where put there.
_KEY_MARK = ":\x02"


def _height(value: Any) -> int:
    """1 for a container of scalars, 2 for one of non-empty containers of scalars, else 0.

    Types are matched exactly (a subclass may change how it iterates),
    and the keys of a dict count as its items.
    """
    kind = type(value)
    if kind not in _CONTAINERS:
        return 0
    if kind is dict:
        if not _SCALARS.issuperset(map(type, value)):
            return 0
        value = value.values()
    kinds = set(map(type, value))
    if kinds <= _SCALARS:
        return 1
    if not (kinds <= _CONTAINERS and all(value)):
        return 0
    items = itertools.chain.from_iterable(value)
    if dict in kinds:
        items = itertools.chain(items, *(v.values() for v in value if type(v) is dict))
    return 2 if _SCALARS.issuperset(map(type, items)) else 0


def _lift(text: str, depth: int) -> str:
    r"""The indented text of a height-2 container at depth, from its C text.

    The C text was written with the item separator of depth + 2, right
    between scalars, and _KEY_MARK between keys and values. No scalar's
    text ends with "]" or "}", so a separator right after one of those
    lies between two children: it takes the indent of depth + 1, and
    the child before it the newline before its closing bracket. "\x03"
    then marks where each child starts, after the container's opening
    bracket or a separator between children, so that each child's
    opening bracket, after that mark or after its key, gets its newline.
    """
    outer, inner = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
    separator = "," + inner
    text = f"{text[0]}\x03{text[1:-2]}{outer}{text[-2]}\n{'  ' * depth}{text[-1]}"
    text = text.replace("]" + separator, outer + "],\x03")
    text = text.replace("}" + separator, outer + "},\x03")
    if text[0] == "{":  # each child follows its key
        text = text.replace("\x03", outer)
        text = text.replace(_KEY_MARK + "[", ": [" + inner).replace(_KEY_MARK + "{", ": {" + inner)
    else:
        text = text.replace("\x03[", outer + "[" + inner).replace("\x03{", outer + "{" + inner)
    return text.replace(_KEY_MARK, ": ")


def _key_text(key: Any) -> str:
    """A dict key as json writes it, quoted and followed by the key separator."""
    if isinstance(key, str):
        return encode_basestring_ascii(key) + ": "
    if isinstance(key, (int, float)) or key is None:
        return '"' + "".join(_compact(key, 0)) + '": '
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def profile_to_dict(mixed: MixedProfile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "weights": [
            [format_rational(w) for w in row] for row in mixed.weights
        ],
    }


def profile_from_dict(data: Any, game: CoalitionGame) -> MixedProfile:
    """Build a mixed profile for a game from a parsed document."""
    data = _require_mapping(data, "profile document")
    _check_keys(data, _PROFILE_KEYS, _PROFILE_KEYS, "profile document")
    _check_version(data, "profile document")
    raw = data["weights"]
    if not isinstance(raw, list) or len(raw) != game.n_players:
        raise GameFileError(
            f"weights must list one row per player ({game.n_players})"
        )
    rows = []
    for i, row in enumerate(raw):
        wanted = len(game.strategy_sets[i])
        if not isinstance(row, list) or len(row) != wanted:
            raise GameFileError(f"weights[{i}] must list {wanted} rationals")
        rows.append(tuple(parse_rational(v, f"weights[{i}][{j}]") for j, v in enumerate(row)))
    try:
        return MixedProfile(tuple(rows))
    except ValueError as exc:
        raise GameFileError(str(exc)) from None


def load_profile(path: str | Path, game: CoalitionGame) -> MixedProfile:
    return profile_from_dict(_read_document(path), game)
