"""Cached game construction shared by the test modules.

Catalog games are pure values, so tests can safely share one instance
per (id, parameters) pair; the lunch game in particular is expensive
enough to build that rebuilding it in every module would dominate the
suite's runtime. Restrictions are cached for the same reason.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from coalition_forge.catalog import get_entry
from coalition_forge.games import CoalitionGame, Mechanism, Strategy
from coalition_forge.partitions import CoalitionStructure, enumerate_partitions


@functools.lru_cache(maxsize=None)
def _build(game_id: str, params: tuple):
    return get_entry(game_id).build(**dict(params))


def game(game_id: str, **params):
    frozen = tuple(sorted((k, Fraction(v)) for k, v in params.items()))
    return _build(game_id, frozen)


@functools.lru_cache(maxsize=None)
def restricted(game_id: str, cap: int):
    return game(game_id).restrict(cap)


def lunch_claimed_profile(lunch_game):
    """Each colleague mixes uniformly over their three own-pair desires.

    Works at any cap from 2 up: the chosen structures are those pairing
    the player with exactly one other while everyone else stays alone.
    """
    from coalition_forge.solver import MixedProfile

    rows = []
    for i in range(lunch_game.n_players):
        row = [Fraction(0)] * len(lunch_game.strategy_sets[i])
        chosen = []
        for j, s in enumerate(lunch_game.strategy_sets[i]):
            st = lunch_game.family[s.desired_partition]
            pairs = sum(1 for b in st.blocks if b.size == 2)
            if st.block_of(i).size == 2 and st.max_block_size == 2 and pairs == 1:
                chosen.append(j)
        assert len(chosen) == 3
        for j in chosen:
            row[j] = Fraction(1, 3)
        rows.append(tuple(row))
    return MixedProfile(tuple(rows))


def random_two_player_game(rng, max_actions=4):
    """Random small 2-player game with exact integer payoffs."""
    cap = rng.choice([1, 2])
    family = enumerate_partitions(2, cap)
    sets = []
    for _ in range(2):
        count = rng.randint(2, max_actions)
        seen = set()
        strategies = []
        while len(strategies) < count:
            desire = rng.randrange(len(family))
            action = rng.choice("abcd")
            if (desire, action) in seen:
                continue
            seen.add((desire, action))
            strategies.append(Strategy(desire, action))
        sets.append(tuple(strategies))
    payoffs = {
        p: (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        for p in itertools.product(range(len(sets[0])), range(len(sets[1])))
    }
    return CoalitionGame(2, cap, family, tuple(sets), Mechanism(), payoffs)


def unnested_pair():
    """A cap-1 and a cap-2 game, each valid, that do not form a nested family.

    Both players desire singletons at cap 1. At cap 2 player 0's only
    strategy desires the pair, so the cap-2 game keeps no strategy of
    theirs under cap 1.
    """
    games = []
    for cap in (1, 2):
        family = enumerate_partitions(2, cap)
        alone = tuple(Strategy(family.index_of(CoalitionStructure.singletons(2)), a) for a in "ab")
        first = alone if cap == 1 else (Strategy(family.index_of(CoalitionStructure.of([[0, 1]], 2))),)
        profiles = itertools.product(range(len(first)), range(len(alone)))
        payoffs = {p: (Fraction(p[1]), Fraction(1)) for p in profiles}
        games.append(CoalitionGame(2, cap, family, (first, alone), Mechanism(), payoffs))
    return tuple(games)


def random_exact_profile(g, rng):
    """Random exact mixed profile, possibly with partial support."""
    from coalition_forge.solver import MixedProfile

    rows = []
    for i in range(g.n_players):
        raw = [Fraction(rng.randint(0, 4)) for _ in g.strategy_sets[i]]
        if sum(raw) == 0:
            raw[rng.randrange(len(raw))] = Fraction(1)
        total = sum(raw)
        rows.append(tuple(w / total for w in raw))
    return MixedProfile(tuple(rows))
