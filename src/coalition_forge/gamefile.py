"""Reading and writing games and mixed profiles as JSON documents.

The on-disk format is deliberately small. A game document carries the
player names, the coalition size cap, the per-player strategy lists,
the mechanism, and an exact payoff table keyed by comma-joined strategy
indices. Every number is a rational written as a string, so documents
round-trip without floating-point drift. Unknown keys anywhere in a
document are rejected rather than ignored.

Every document is written by dumps, whose text is exactly
json.dumps(data, indent=2, sort_keys=True), so the format is byte
stable. dumps writes with json's C encoder, mostly as one compact
encode of a container that _reindent indents in a few numpy passes
(see dumps for the other two ways). game_to_dict reads the validated
payoff tensor: each payoff's text is str(Fraction) of its payoff_ints
entry over payoff_scale, the text of the stored value. A game's payoffs depend on few things (in lunch, the realized
structure), so its payoff table repeats a handful of rows:
game_to_dict builds one list per distinct row, as it builds one
literal per distinct structure of a table mechanism, and dumps writes
a container that holds one list, tuple or dict at several places from
the text of each distinct child, built once. The cap 4 lunch file
holds 8 distinct rows over 50,625 profiles.

game_from_dict reads the tables the other way, straight into the
game's two arrays: one reader, _by_profile, serves both profile-keyed
tables. It takes the entries in canonical key order and keys them in
C-level passes, with no loop over the keys: payoff rows, lists of
strings, by their tuples, any other entry by its repr. It reads each distinct
entry once and lists the payoff rows and the mechanism's structures in
that order for the payoff and table readers of games; a faulty table
is read again key by key, so the fault named is the first in document
order. Each distinct payoff text becomes one Fraction and each
distinct partition literal of the strategy lists one structure, all of
which are found in the family in one lookup, and no profile-keyed
mapping is built.
"""

from __future__ import annotations

import itertools
import json
import reprlib
from fractions import Fraction
from json.encoder import c_make_encoder, encode_basestring_ascii
from pathlib import Path
from typing import Any, Mapping, NoReturn, Sequence

import numpy as np

from .games import (
    UNANIMITY,
    CoalitionGame,
    Strategy,
    ValidationError,
    _handed,
    _read_payoffs,
    _read_table,
    _require_dense,
)
from .partitions import CoalitionStructure, _row, enumerate_partitions
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


def _shown(texts: Sequence[str]) -> str:
    """The texts joined by commas, bounded in count and length as reprlib bounds a list, without the quotes."""
    cap = reprlib.aRepr.maxlist
    shown = [reprlib.repr(text)[1:-1] for text in texts[:cap]]
    return ", ".join(shown + ["..."] if len(texts) > cap else shown)


def _check_keys(data: Mapping[str, Any], allowed: set[str], required: set[str], where: str) -> None:
    unknown = sorted(map(str, set(data) - allowed))
    if unknown:
        raise GameFileError(f"{where} has unknown keys: {_shown(unknown)}")
    missing = sorted(required - set(data))
    if missing:
        raise GameFileError(f"{where} is missing keys: {', '.join(missing)}")


def _check_version(data: Mapping[str, Any], where: str) -> None:
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        shown = reprlib.repr(version)
        raise GameFileError(f"{where} schema_version must be {SCHEMA_VERSION}, got {shown}")


def parse_rational(value: Any, where: str) -> Fraction:
    """Read a rational from a "p/q" string or a JSON integer."""
    if isinstance(value, bool):
        raise GameFileError(f"{where} must be a rational, got {reprlib.repr(value)}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise GameFileError(f"{where} is not a rational: {reprlib.repr(value)}") from None
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


def _parse_structure(literal: Any, where: str, by_name: Mapping[str, int], n: int) -> CoalitionStructure:
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
                # Depth-bounded, so a deeply nested name cannot exhaust the stack.
                raise GameFileError(f"{where} block {b} names unknown player {reprlib.repr(name)}")
            members.append(by_name[name])
        if seen & set(members):
            raise GameFileError(f"{where} assigns a player to two blocks")
        if len(set(members)) < len(members):
            twice = next(name for k, name in enumerate(block) if name in block[:k])
            raise GameFileError(f"{where} block {b} names player {reprlib.repr(twice)} twice")
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
    shown = reprlib.repr(key)
    parts = key.split(",")
    if len(parts) != len(shape):
        raise GameFileError(f"{where} key {shown} must have {len(shape)} indices")
    indices = []
    for i, part in enumerate(parts):
        try:
            idx = int(part)
        except ValueError:
            raise GameFileError(f"{where} key {shown} has a non-integer index") from None
        if not 0 <= idx < shape[i]:
            raise GameFileError(
                f"{where} key {shown}: index {idx} out of range for player {i}"
            )
        indices.append(idx)
    # int() also reads "00", " 1" and "+0"; such a key could name the same
    # profile as a canonical one and silently replace its entry.
    raise GameFileError(
        f"{where} key {shown} is not canonical, expected {','.join(map(str, indices))!r}"
    )


def _known_as(entry: Any, fallback: Any) -> Any:
    """The repr of a parsed JSON entry, fallback if it is nested too deeply for repr.

    The repr tells apart any two JSON values that differ, such as True, 1
    and 1.0, or ["AB"] and [["A", "B"]].
    """
    try:
        return repr(entry)
    except RecursionError:
        return fallback


def _string_rows(entries: list) -> list[tuple] | None:
    """Each entry as a tuple when every entry is a list and each distinct one holds only strs.

    Then the tuples tell the entries apart as their reprs do, since a str
    equals no other JSON value; otherwise None.
    """
    if set(map(type, entries)) != {list}:
        return None
    rows = list(map(tuple, entries))
    try:
        distinct = dict.fromkeys(rows)
    except TypeError:  # an unhashable item, such as a nested list
        return None
    return rows if all(type(v) is str for row in distinct for v in row) else None


def _by_profile(
    raw: Any, keys: Sequence[str], shape: Sequence[int], where: str, read, *args
) -> list:
    """The entries of a profile-keyed table in canonical key order, None for a gap.

    keys are the canonical keys of the space (_profile_keys). The
    entries are taken in that order and told apart by their tuples when
    each is a list of strs (_string_rows), as payoff rows are, else by
    their reprs (see _known_as), each in one C-level pass, and
    read(entry, where, *args) reads each distinct entry once, in key
    order of first appearance.
    A table with a key outside the space, an entry nested too deeply for
    repr or an entry that fails to read is read again key by key in
    document order, skipping the entries already read, so the fault
    named is the first in document order.
    """
    raw = _require_mapping(raw, where)
    entries = list(map(raw.get, keys, itertools.repeat(_GAP)))
    gaps = entries.count(_GAP)
    done: dict[Any, Any] = {}
    if len(raw) + gaps == len(keys):  # no key outside the space
        try:
            texts = _string_rows(entries) or list(map(repr, entries))
            for text, (key, entry) in dict(zip(texts, zip(keys, entries))).items():
                done[text] = None if entry is _GAP else read(entry, f"{where}[{key!r}]", *args)
            return list(map(done.__getitem__, texts))
        except (GameFileError, RecursionError):
            # The entries read so far are found again by their reprs below.
            done = {k if type(k) is str else repr(list(k)): v for k, v in done.items()}
    position = dict(zip(keys, range(len(keys))))
    entries = [None] * len(keys)
    for key, entry in raw.items():
        if key not in position:
            _reject_profile_key(key, shape, where)
        text = _known_as(entry, (key,))
        if text not in done:
            done[text] = read(entry, f"{where}[{key!r}]", *args)
        entries[position[key]] = done[text]
    return entries


# A profile the table has no entry for; its repr is no JSON value's.
_GAP = object()


def _rationals(row: Any, where: str, size: int, decoded: dict[Any, Fraction]) -> tuple[Fraction, ...]:
    if not isinstance(row, list) or len(row) != size:
        raise GameFileError(f"{where} must list {size} rationals")
    for i, v in enumerate(row):
        # Strings are read once each; True and 1.0 would find the entry of 1.
        if type(v) is not str or v not in decoded:
            decoded[v] = parse_rational(v, f"{where}[{i}]")
    return tuple(map(decoded.__getitem__, row))


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
        raise GameFileError(f"K must be an integer in 1..{n}, got {reprlib.repr(cap)}")
    family = enumerate_partitions(n, cap)

    raw_sets = data["strategies"]
    if not isinstance(raw_sets, list) or len(raw_sets) != n:
        raise GameFileError(f"strategies must be a list with one entry per player ({n})")
    leaders: dict[Any, tuple] = {}  # each distinct partition literal's block leaders, parsed once
    chosen = []  # per player, each strategy's literal and action
    for i, raw_list in enumerate(raw_sets):
        if not isinstance(raw_list, list) or not raw_list:
            raise GameFileError(f"strategies[{i}] must be a non-empty list")
        mine = []
        for j, raw in enumerate(raw_list):
            where = f"strategies[{i}][{j}]"
            raw = _require_mapping(raw, where)
            _check_keys(raw, _STRATEGY_KEYS, {"partition"}, where)
            text = _known_as(raw["partition"], (i, j))
            if text not in leaders:
                structure = _parse_structure(raw["partition"], f"{where}.partition", by_name, n)
                # The family holds every partition of the players with blocks of at most K.
                if structure.max_block_size > cap:
                    raise GameFileError(f"{where}.partition has a block larger than K={cap}")
                leaders[text] = _row(structure)
            action = raw.get("action", "")
            if not isinstance(action, str):
                raise GameFileError(f"{where}.action must be a string")
            mine.append((text, action))
        chosen.append(mine)
    # Every distinct partition is found in the family in one lookup.
    found = dict(zip(leaders, family._find(list(leaders.values())).tolist()))
    strategy_sets = [tuple(Strategy(found[text], action) for text, action in mine) for mine in chosen]
    shape = [len(s) for s in strategy_sets]
    _require_dense(shape, n)
    keys = _profile_keys(shape)

    raw_mech = data["mechanism"]
    if raw_mech == UNANIMITY:
        table = None
    elif isinstance(raw_mech, Mapping):
        _check_keys(raw_mech, _MECHANISM_KEYS, _MECHANISM_KEYS, "mechanism")
        table = _by_profile(
            raw_mech["table"], keys, shape, "mechanism.table", _parse_structure, by_name, n
        )
    else:
        raise GameFileError(
            f'mechanism must be "{UNANIMITY}" or an object with a table, '
            f"got {reprlib.repr(raw_mech)}"
        )

    # One memo for the document: each distinct payoff string is read once.
    rows = _by_profile(data["payoffs"], keys, shape, "payoffs", _rationals, n, {})
    payoffs = _read_payoffs(rows, (*shape, n))
    # After the payoffs, so a payoff fault is named first.
    index = None if table is None else _read_table(table, family, shape)
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

    Profiles with equal payoff rows share one list, and profiles that
    realize one structure share its literal, so dumps writes each once.
    A caller who edits a row or a literal in place changes it at every
    profile that shares it.
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
    payoffs = dict(zip(keys, _payoff_rows(game)))
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


def _payoff_rows(game: CoalitionGame):
    """Each profile's payoff texts in profile order, one list per distinct row.

    The rows are told apart by the positions of their values among the
    sorted distinct values, one machine word each, so an int64 or an
    object tensor of Python ints compares exactly.
    """
    # The distinct values from one sort: np.unique takes longer here, and
    # its first call imports numpy.ma.
    ordered = np.sort(game.payoff_ints, axis=None)
    values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    codes = np.searchsorted(values, game.payoff_ints).reshape(-1, game.n_players)
    text = [str(Fraction(v, game.payoff_scale)) for v in values.tolist()]
    # Each row's codes as one bytes object, so equal rows are equal keys.
    rows = codes.view(np.dtype((np.void, codes.itemsize * game.n_players))).ravel().tolist()
    lists = {row: [text[i] for i in np.frombuffer(row, codes.dtype).tolist()] for row in set(rows)}
    return map(lists.__getitem__, rows)


def _player_names(game: CoalitionGame, player_names: Sequence[str] | None) -> tuple[str, ...]:
    if player_names is None:
        return tuple(str(i + 1) for i in range(game.n_players))
    # The loader's own reader, so every name written is one it accepts.
    names = _parse_players(list(player_names))
    if len(names) != game.n_players:
        raise GameFileError(f"need {game.n_players} distinct player names")
    return names


def _read_document(path: str | Path) -> Any:
    """The parsed JSON at path, read as UTF-8; read, decode and parse failures raise GameFileError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GameFileError(f"cannot read {path}: {exc}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GameFileError(f"{path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise GameFileError(f"{path} nests too deeply to parse") from None


def load_game(path: str | Path) -> tuple[CoalitionGame, tuple[str, ...]]:
    """Read and validate a game document from disk."""
    return game_from_dict(_read_document(path))


def save_game(game: CoalitionGame, path: str | Path, player_names: Sequence[str] | None = None) -> None:
    Path(path).write_text(dumps(game_to_dict(game, player_names)) + "\n", encoding="utf-8")


def dumps(data: Any) -> str:
    """Deterministic JSON text: exactly json.dumps(data, indent=2, sort_keys=True).

    json writes indented text with its pure-Python encoder. Here json's
    C encoder writes the containers, in one of three ways:

    - a container of scalars (_FLAT, see _layout) by one call of its
      depth's encoder, which is built once per call with that depth's
      newline and indent in its item separator, so the items come out
      indented and only the brackets get theirs here;
    - a list, tuple or dict of containers that holds one of them at
      several places (_SHARED), such as a game file's payoff table with
      its shared rows, as one join: its keys are sorted once, and the
      text of each distinct child is built once at depth + 1, in the
      order json first meets them;
    - any other list, tuple or dict by one compact encode of all of it,
      which _reindent indents, unless one of its children is _SHARED.
      Such a container, and a subclass of one, is walked in Python as
      json walks it, to reach that child.

    Keys are sorted and converted as json converts them, empty
    containers are [] and {}, a cycle raises ValueError, and what JSON
    cannot hold raises json's TypeError, with json's messages: a
    container whose compact encode fails is walked instead, and the
    walk fails as json fails.
    """
    out: list[str] = []
    encoders: dict[int, Any] = {}
    markers: set[int] = set()
    # The compact encoder's cycle markers, built per call: a failed
    # encode leaves its path in them, so they are cleared after one.
    entered: dict[int, Any] = {}
    compact = c_make_encoder(
        entered, _refuse, encode_basestring_ascii, None, ": ", ",", True, False, True
    )

    def encode(value: Any, depth: int) -> str:
        """C text of value with the item separator of items at depth + 1."""
        encoder = encoders.get(depth)
        if encoder is None:
            encoder = encoders[depth] = c_make_encoder(
                None, _refuse, encode_basestring_ascii, None,
                ": ", ",\n" + "  " * (depth + 1), True, False, True,
            )
        return "".join(encoder(value, 0))

    def write(value: Any, depth: int, layout: int | None = None) -> None:
        if not isinstance(value, (list, tuple, dict)) or not value:
            out.extend(_compact(value, 0))  # scalars, [] and {}
            return
        if layout is None:
            layout = _layout(value)
        indent = "\n" + "  " * depth
        if layout == _FLAT:
            text = encode(value, depth)
            out.extend((text[0], indent, "  ", text[1:-1], indent, text[-1]))
            return
        layouts: dict[int, int] = {}
        if layout != _SHARED and type(value) in _CONTAINERS:
            children = value.values() if type(value) is dict else value
            layouts = dict(zip(map(id, children), map(_layout, children)))
            if _SHARED not in layouts.values():
                try:
                    out.append(_reindent("".join(compact(value, 0)), depth))
                    return
                except (TypeError, ValueError):
                    entered.clear()
        if id(value) in markers:
            raise ValueError("Circular reference detected")
        markers.add(id(value))
        if layout == _SHARED:
            out.append(joined(value, depth))
            markers.remove(id(value))
            return
        if isinstance(value, dict):
            # Each key is converted just before its value is written, as json does.
            brackets, items = "{}", ((_key_text(k) + ": ", v) for k, v in sorted(value.items()))
        else:
            brackets, items = "[]", (("", v) for v in value)
        separator = brackets[0] + indent + "  "
        for key, item in items:
            out.extend((separator, key))
            write(item, depth + 1, layouts.get(id(item)))
            separator = "," + indent + "  "
        out.append(indent + brackets[1])
        markers.remove(id(value))

    def joined(value: Any, depth: int) -> str:
        """The text of a _SHARED container, one join of its children's texts."""
        keys = sorted(value) if type(value) is dict else None
        children = value if keys is None else list(map(value.__getitem__, keys))
        ids = list(map(id, children))
        # Each distinct child's text once, in the order json first meets it.
        texts = {i: written(child, depth + 1) for i, child in dict(zip(ids, children)).items()}
        items = map(texts.__getitem__, ids)
        brackets = "[]"
        if keys is not None:
            # The C quoting of str keys; json's conversion of the others.
            quote = encode_basestring_ascii if {str}.issuperset(map(type, keys)) else _key_text
            brackets, items = "{}", map(": ".join, zip(map(quote, keys), items))
        indent = "\n" + "  " * depth
        return brackets[0] + indent + "  " + ("," + indent + "  ").join(items) + indent + brackets[1]

    def written(value: Any, depth: int) -> str:
        """The text write gives for value at depth, taken back out of out."""
        start = len(out)
        write(value, depth)
        text = "".join(out[start:])
        del out[start:]
        return text

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
# The layouts _layout tells apart: a container of scalars, and one of
# containers that holds one of them at several places.
_FLAT, _SHARED = 1, -1


def _layout(value: Any) -> int:
    """_FLAT for a container of scalars, _SHARED for one of containers that holds one twice, else 0.

    Children are told apart by identity. Types are matched exactly (a
    subclass may change how it iterates), and the keys of a dict count
    as its items.
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
        return _FLAT
    if kinds <= _CONTAINERS and len(set(map(id, value))) < len(value):
        return _SHARED
    return 0


# Per byte of compact C text: 1 opens a container, -1 closes one and 2
# separates two items; what each does to the nesting level, by code
# (-1 indexes the last entry).
_STRUCTURE = np.zeros(256, dtype=np.int8)
_STRUCTURE[list(b"[{")] = 1
_STRUCTURE[list(b"]}")] = -1
_STRUCTURE[ord(",")] = 2
_STEP = np.array([0, 1, 0, -1])
# The bytes of compact text _reindent indents at a time, which bounds
# its index arrays.
_CHUNK = 1 << 16


def _reindent(text: str, depth: int) -> str:
    r"""The text json writes at indent 2 for a container at depth, from its compact C text.

    The compact text has item separator "," and key separator ": ", and
    it is ASCII: json escapes every other character inside a string,
    and a string is the only place where a bracket or a comma is not
    structure. Once each escaped backslash ("\\") is blanked, a quote
    after a backslash is escaped, and the others open and close strings,
    so a running xor of them marks the bytes inside strings. A running
    sum gives the nesting level of each bracket and comma outside them,
    and each takes a newline and two spaces per level after it (an
    opening bracket or a comma) or before it (a closing bracket), except
    the two brackets of an empty container. The text is read _CHUNK
    bytes at a time, carrying the string state and the level, and each
    chunk's bytes are scattered to their shifted places.
    """
    data = text.encode("ascii")
    chars = np.frombuffer(data, dtype=np.uint8)
    plain = np.frombuffer(data.replace(b"\\\\", b"  "), dtype=np.uint8) if b"\\" in data else chars
    quotes = plain == ord('"')
    if plain is not chars:
        quotes[1:] &= plain[:-1] != ord("\\")
    empty = b"[]" in data or b"{}" in data
    pieces = []
    inside, level = False, depth
    for start in range(0, len(chars), _CHUNK):
        part = chars[start : start + _CHUNK]
        code = np.take(_STRUCTURE, part)
        strings = np.logical_xor.accumulate(quotes[start : start + _CHUNK])
        if inside:
            np.logical_not(strings, out=strings)
        inside = bool(strings[-1])
        code[strings] = 0
        at = np.flatnonzero(code)
        kind = code[at]
        levels = np.cumsum(np.take(_STEP, kind)) + level
        if len(levels):
            level = int(levels[-1])
        if empty:
            # An opening bracket right before a closing one, and that one.
            beside = np.take(_STRUCTURE, chars[at + start + (kind == 1) - (kind == -1)])
            keep = beside != -kind
            at, kind, levels = at[keep], kind[keep], levels[keep]
        breaks = at + (kind != -1)  # each line break goes before the byte there
        widths = 2 * levels + 1
        shift = np.zeros(len(part) + 1, dtype=np.int64)
        shift[breaks] = widths
        np.cumsum(shift, out=shift)
        shift += np.arange(len(part) + 1)
        lines = np.full(shift[-1], ord(" "), dtype=np.uint8)
        lines[shift[:-1]] = part
        lines[shift[breaks] - widths] = ord("\n")
        pieces.append(str(lines.data, "ascii"))
    return "".join(pieces)


def _key_text(key: Any) -> str:
    """A dict key as json writes it, quoted."""
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, (int, float)) or key is None:
        return '"' + "".join(_compact(key, 0)) + '"'
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
    rows = tuple(
        _rationals(row, f"weights[{i}]", len(game.strategy_sets[i]), {}) for i, row in enumerate(raw)
    )
    try:
        return MixedProfile(rows)
    except ValueError as exc:
        raise GameFileError(str(exc)) from None


def load_profile(path: str | Path, game: CoalitionGame) -> MixedProfile:
    return profile_from_dict(_read_document(path), game)
