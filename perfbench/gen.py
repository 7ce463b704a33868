"""Seeded input generators for the benchmark.

Everything here is a pure function of a `random.Random` (or of nothing,
for the lunch tables): the same seed gives the same games and the same
bytes. The in-process workloads hand the library only what these
functions produce.

Two kinds of output:

- plain-data game specs (`GameSpec`), turned into library games by
  `to_game`, for the in-process workloads;
- the 4-player lunch game at caps 2, 3 and 4 as payoff tables and as
  game-file text built without the library (sorted keys, two-space
  indent, rationals as strings). The benchmark writes the lunch files
  with the library and checks them against this text byte for byte.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

LUNCH_NAMES = ("A", "B", "C", "D")
LUNCH_CAPS = (2, 3, 4)


def partitions(n: int, cap: int) -> list[tuple[tuple[int, ...], ...]]:
    """Set partitions of range(n) with blocks of at most `cap` members.

    Restricted growth string order, blocks ordered by smallest member:
    the order the library's partition family uses, so index k here is
    family index k there.
    """
    out = []
    blocks: list[list[int]] = []

    def walk(i: int) -> None:
        if i == n:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            if len(b) < cap:
                b.append(i)
                walk(i + 1)
                b.pop()
        blocks.append([i])
        walk(i + 1)
        blocks.pop()

    walk(0)
    return out


def own_block(structure, player: int) -> tuple[int, ...]:
    return next(b for b in structure if player in b)


def unanimity(desired) -> tuple[tuple[int, ...], ...]:
    """Realized structure: a block forms when all its members desire it."""
    n = len(desired)
    formed = []
    taken: set[int] = set()
    for i in range(n):
        if i in taken:
            continue
        block = own_block(desired[i], i)
        if len(block) >= 2 and all(own_block(desired[j], j) == block for j in block):
            formed.append(block)
            taken.update(block)
    formed.extend((i,) for i in range(n) if i not in taken)
    return tuple(sorted(formed))


@dataclass(frozen=True)
class GameSpec:
    """A game as plain data.

    strategies[i] lists (family index, action) pairs for player i;
    payoffs maps each profile to integer payoffs; table, when present,
    maps each profile to the family index of the realized structure.
    """

    name: str
    n_players: int
    cap: int
    strategies: tuple[tuple[tuple[int, str], ...], ...]
    payoffs: dict
    table: dict | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategies)

    @property
    def n_profiles(self) -> int:
        out = 1
        for k in self.shape:
            out *= k
        return out


def _strategy_set(rng, n_structures: int, m: int, n_actions: int):
    """m distinct (desire, action) pairs drawn from all desires and actions."""
    pool = [(p, f"a{a}") for p in range(n_structures) for a in range(n_actions)]
    return tuple(rng.sample(pool, m))


def two_player_game(rng, m: int, name: str) -> GameSpec:
    """Random m x m game at cap 2 with integer payoffs in [-9, 9].

    Each player desires the singleton structure in (m + 1) // 2 of their
    strategies, so the cap-1 restriction always keeps the same number of
    strategies and costs the same for every seed. Actions repeat across
    desires, so joint redesires exist for the group screen.
    """
    together, alone = (partitions(2, 2).index(s) for s in (((0, 1),), ((0,), (1,))))
    n_alone = (m + 1) // 2
    actions = [f"a{a}" for a in range(n_alone)]

    def strategies():
        chosen = [(alone, a) for a in rng.sample(actions, n_alone)]
        chosen += [(together, a) for a in rng.sample(actions, m - n_alone)]
        rng.shuffle(chosen)
        return tuple(chosen)

    sets = (strategies(), strategies())
    payoffs = {
        (r, c): (rng.randint(-9, 9), rng.randint(-9, 9))
        for r in range(m)
        for c in range(m)
    }
    return GameSpec(name, 2, 2, sets, payoffs)


def three_player_game(rng, m: int, table: bool, name: str) -> GameSpec:
    """Random 3-player game with m strategies each and distinct payoffs.

    Payoffs are drawn without replacement per player, so no two
    strategies of a player share a payoff slice. On the table mechanism
    every profile realizes a random structure of the family.
    """
    family = partitions(3, 3)
    n_actions = -(-m // len(family))
    strategies = tuple(
        _strategy_set(rng, len(family), m, n_actions) for _ in range(3)
    )
    profiles = list(itertools.product(range(m), repeat=3))
    columns = [rng.sample(range(-50 * m**3, 50 * m**3), len(profiles)) for _ in range(3)]
    payoffs = {p: tuple(col[k] for col in columns) for k, p in enumerate(profiles)}
    realized = (
        {p: rng.randrange(len(family)) for p in profiles} if table else None
    )
    return GameSpec(name, 3, 3, strategies, payoffs, realized)


def to_game(spec: GameSpec):
    """Build the library game for a spec."""
    from coalition_forge.games import TABLE, CoalitionGame, Mechanism, Strategy
    from coalition_forge.partitions import enumerate_partitions

    family = enumerate_partitions(spec.n_players, spec.cap)
    mechanism = (
        Mechanism()
        if spec.table is None
        else Mechanism(TABLE, {p: family[k] for p, k in spec.table.items()})
    )
    return CoalitionGame(
        n_players=spec.n_players,
        max_coalition=spec.cap,
        family=family,
        strategy_sets=tuple(
            tuple(Strategy(p, a) for p, a in s) for s in spec.strategies
        ),
        mechanism=mechanism,
        payoffs={
            p: tuple(Fraction(v) for v in pay) for p, pay in spec.payoffs.items()
        },
    )


def lunch_payoff(realized) -> tuple[int, ...]:
    """10 in the only realized pair, 0 for all with a block of 3+, else 3."""
    if max(len(b) for b in realized) >= 3:
        return (0,) * 4
    pairs = [b for b in realized if len(b) == 2]
    return tuple(
        10 if len(pairs) == 1 and p in pairs[0] else 3 for p in range(4)
    )


@dataclass(frozen=True)
class LunchTables:
    """The lunch game at one cap: strategy structures and payoff table."""

    cap: int
    structures: tuple
    payoffs: dict


def lunch_tables(cap: int) -> LunchTables:
    """Lunch at a cap: the full game's strategies whose desire fits the cap.

    Strategy order follows the cap-4 family, which is how the library
    restricts a game.
    """
    structures = tuple(
        s for s in partitions(4, 4) if max(len(b) for b in s) <= cap
    )
    # Under unanimity only each player's own desired block matters.
    own = [[own_block(s, i) for s in structures] for i in range(4)]
    by_blocks: dict = {}
    payoffs = {}
    for profile in itertools.product(range(len(structures)), repeat=4):
        blocks = tuple(own[i][k] for i, k in enumerate(profile))
        pay = by_blocks.get(blocks)
        if pay is None:
            desired = [structures[k] for k in profile]
            pay = by_blocks[blocks] = lunch_payoff(unanimity(desired))
        payoffs[profile] = pay
    return LunchTables(cap, structures, payoffs)


def lunch_document(tables: LunchTables) -> str:
    """Game-file text for a lunch table, byte for byte as the library writes it."""
    literal = [
        {"partition": [[LUNCH_NAMES[i] for i in b] for b in s]}
        for s in tables.structures
    ]
    data = {
        "schema_version": 1,
        "players": list(LUNCH_NAMES),
        "K": tables.cap,
        "strategies": [literal] * 4,
        "mechanism": "unanimity",
        "payoffs": {
            ",".join(map(str, p)): [str(v) for v in pay]
            for p, pay in tables.payoffs.items()
        },
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
