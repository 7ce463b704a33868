"""Reading and writing games and mixed profiles as JSON documents.

The on-disk format is deliberately small. A game document carries the
player names, the coalition size cap, the per-player strategy lists,
the mechanism, and an exact payoff table keyed by comma-joined strategy
indices. Every number is a rational written as a string, so documents
round-trip without floating-point drift. Unknown keys anywhere in a
document are rejected rather than ignored.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping, Sequence

from .games import (
    TABLE,
    UNANIMITY,
    CoalitionGame,
    Mechanism,
    Profile,
    Strategy,
    ValidationError,
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


def _parse_profile_key(key: Any, game_shape: Sequence[int], where: str) -> Profile:
    if not isinstance(key, str):
        raise GameFileError(f"{where} keys must be strings of comma-joined indices")
    parts = key.split(",")
    if len(parts) != len(game_shape):
        raise GameFileError(f"{where} key {key!r} must have {len(game_shape)} indices")
    profile = []
    for i, part in enumerate(parts):
        try:
            idx = int(part)
        except ValueError:
            raise GameFileError(f"{where} key {key!r} has a non-integer index") from None
        if not 0 <= idx < game_shape[i]:
            raise GameFileError(
                f"{where} key {key!r}: index {idx} out of range for player {i}"
            )
        profile.append(idx)
    # int() also reads "00", " 1" and "+0"; such a key could name the same
    # profile as a canonical one and silently replace its entry.
    if key != _profile_key(profile):
        raise GameFileError(
            f"{where} key {key!r} is not canonical, expected {_profile_key(profile)!r}"
        )
    return tuple(profile)


def _profile_key(profile: Profile) -> str:
    return ",".join(str(i) for i in profile)


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

    raw_mech = data["mechanism"]
    if raw_mech == UNANIMITY:
        mechanism = Mechanism()
    elif isinstance(raw_mech, Mapping):
        _check_keys(raw_mech, _MECHANISM_KEYS, _MECHANISM_KEYS, "mechanism")
        raw_table = _require_mapping(raw_mech["table"], "mechanism.table")
        table = {}
        for key, literal in raw_table.items():
            profile = _parse_profile_key(key, shape, "mechanism.table")
            table[profile] = _parse_structure(
                literal, by_name, n, f"mechanism.table[{key!r}]"
            )
        mechanism = Mechanism(TABLE, table)
    else:
        raise GameFileError(
            f'mechanism must be "{UNANIMITY}" or an object with a table, got {raw_mech!r}'
        )

    raw_payoffs = _require_mapping(data["payoffs"], "payoffs")
    payoffs = {}
    for key, row in raw_payoffs.items():
        profile = _parse_profile_key(key, shape, "payoffs")
        if not isinstance(row, list) or len(row) != n:
            raise GameFileError(f"payoffs[{key!r}] must list {n} rationals")
        payoffs[profile] = tuple(
            parse_rational(v, f"payoffs[{key!r}][{i}]") for i, v in enumerate(row)
        )

    try:
        game = CoalitionGame(n, cap, family, tuple(strategy_sets), mechanism, payoffs)
    except ValidationError:
        raise
    except ValueError as exc:
        raise GameFileError(str(exc)) from None
    game.validate_domains()
    return game, names


def game_to_dict(game: CoalitionGame, player_names: Sequence[str] | None = None) -> dict:
    """Serialize a game to a plain JSON-ready dictionary."""
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
    if game.mechanism.kind == UNANIMITY:
        mechanism: Any = UNANIMITY
    else:
        mechanism = {
            "table": {
                _profile_key(p): _structure_literal(s, names)
                for p, s in sorted(game.mechanism.table.items())
            }
        }
    payoffs = {
        _profile_key(p): [format_rational(v) for v in game.payoffs[p]]
        for p in game.profiles()
    }
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
    """Deterministic JSON text: sorted keys, two-space indent."""
    return json.dumps(data, indent=2, sort_keys=True)


def profile_to_dict(mixed: MixedProfile) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "weights": [
            [format_rational(Fraction(w)) for w in row] for row in mixed.weights
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
