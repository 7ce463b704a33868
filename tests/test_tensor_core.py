"""The integer payoff tensor and realized-structure index against brute-force walks.

Every brute-force oracle here reads the game's payoffs mapping and
mechanism table directly, walking whole profile spaces one profile at a
time, so it shares no code with the tensor contractions it checks. The
one exception is the Fraction support lane, the integer support lane's
reference, which solves on the payoffs mapping but checks candidates
through the Fraction contraction that the exact readers used before
they moved to integer units, kept here as their reference.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import io
import itertools
import math
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from _shared import game as catalog_game
from _shared import lunch_claimed_profile, random_two_player_game, restricted
from coalition_forge import solver
from coalition_forge.catalog import CATALOG, _lunch_payoffs
from coalition_forge.cli import (
    _default_names,
    _entry_lines,
    _equilibrium_entry,
    _pure_entries,
    _result_entries,
    _show,
    _strategy_labels,
    main,
)
from coalition_forge.gamefile import (
    GameFileError,
    dumps,
    format_rational,
    game_from_dict,
    game_to_dict,
    load_game,
    save_game,
)
from coalition_forge.games import (
    TABLE,
    UNANIMITY,
    CoalitionGame,
    Mechanism,
    Strategy,
    ValidationError,
    payoff_isomorphic,
)
from coalition_forge.partitions import (
    Coalition,
    CoalitionStructure,
    PartitionFamily,
    enumerate_partitions,
)
from coalition_forge.solver import (
    ITERATIVE,
    PURE,
    SUPPORT,
    EquilibriumResult,
    MixedProfile,
    SolverConfig,
    Solution,
    SupportEnumeration,
    _pure_profiles,
    _solve_fraction_free,
    best_response_value,
    expected_utilities,
    expected_utility,
    expected_utility_by_structure,
    first_pure_equilibrium,
    is_pure_equilibrium,
    mixed_nash_2p_support_enum,
    mixed_nash_iterative,
    point_mass,
    pure_nash_enumerate,
    solve,
    verify_epsilon_nash,
)
from coalition_forge.analysis import (
    EquilibriumPartitionSet,
    _pareto_dominating_pures,
    compare_domains,
    equilibrium_partitions,
    lift_profile,
    stability_K_star,
)

DIFFERENTIAL = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- brute-force oracles ---------------------------------------------------


def all_profiles(game):
    return list(itertools.product(*(range(len(s)) for s in game.strategy_sets)))


def brute_realized(game, profile) -> CoalitionStructure:
    if game.mechanism.kind == TABLE:
        return game.mechanism.table[profile]
    own = [
        frozenset(game.family[game.strategy_sets[i][k].desired_partition].block_of(i).members)
        for i, k in enumerate(profile)
    ]
    blocks = {
        own[i] if all(own[j] == own[i] for j in own[i]) else frozenset({i})
        for i in range(game.n_players)
    }
    return CoalitionStructure.of([sorted(b) for b in blocks], game.n_players)


def probability(mixed, profile):
    prob = Fraction(1)
    for i, k in enumerate(profile):
        prob *= mixed.weights[i][k]
    return prob


def brute_expected(game, mixed):
    totals = [Fraction(0)] * game.n_players
    for profile in all_profiles(game):
        prob = probability(mixed, profile)
        for i in range(game.n_players):
            totals[i] += prob * game.payoffs[profile][i]
    return tuple(totals)


def brute_deviation_values(game, mixed, player):
    """The player's expected payoff from each own pure strategy against the others' mix."""
    values = []
    for k in range(len(game.strategy_sets[player])):
        rows = list(mixed.weights)
        rows[player] = tuple(Fraction(int(j == k)) for j in range(len(rows[player])))
        values.append(brute_expected(game, MixedProfile(tuple(rows)))[player])
    return values


def brute_best(game, mixed, player):
    return max(brute_deviation_values(game, mixed, player))


def brute_by_structure(game, mixed):
    grouped = {}
    for profile in all_profiles(game):
        prob = probability(mixed, profile)
        if prob == 0:
            continue
        structure = brute_realized(game, profile)
        totals = grouped.setdefault(structure, [Fraction(0)] * game.n_players)
        for i in range(game.n_players):
            totals[i] += prob * game.payoffs[profile][i]
    return {s: tuple(v) for s, v in grouped.items()}


def switched(profile, moves):
    out = list(profile)
    for i, k in moves:
        out[i] = k
    return tuple(out)


def brute_pure(game):
    """(profile, degenerate) for each profile passing both screens, in lexicographic order."""
    pay = game.payoffs
    found = []
    for profile in all_profiles(game):
        here = pay[profile]
        alternatives = [
            [k for k in range(len(game.strategy_sets[i])) if k != profile[i]]
            for i in range(game.n_players)
        ]
        if any(
            pay[switched(profile, [(i, k)])][i] > here[i]
            for i in range(game.n_players)
            for k in alternatives[i]
        ):
            continue
        redesires = [
            [
                k
                for k in alternatives[i]
                if game.strategy_sets[i][k].action == game.strategy_sets[i][profile[i]].action
            ]
            for i in range(game.n_players)
        ]
        blocked = any(
            all(pay[switched(profile, zip(group, combo))][i] > here[i] for i in group)
            for size in range(2, game.max_coalition + 1)
            for group in itertools.combinations(range(game.n_players), size)
            for combo in itertools.product(*(redesires[i] for i in group))
        )
        if blocked:
            continue
        degenerate = any(
            pay[switched(profile, [(i, k)])][i] == here[i]
            for i in range(game.n_players)
            for k in alternatives[i]
        )
        found.append((profile, degenerate))
    return found


def brute_nash(game):
    """Each pure Nash profile, mapped to whether some player has a tied best reply."""
    pay = game.payoffs
    found = {}
    for profile in all_profiles(game):
        replies = [
            [pay[switched(profile, [(i, k)])][i] for k in range(len(game.strategy_sets[i]))]
            for i in range(game.n_players)
        ]
        if all(max(r) == r[profile[i]] for i, r in enumerate(replies)):
            found[profile] = any(r.count(max(r)) > 1 for r in replies)
    return found


# -- the Fraction contraction --------------------------------------------------------
#
# The exact readers as they stood before they moved to integer units:
# payoff_ints contracted with Fraction weights in object arrays, and
# lottery probabilities as products of the weights themselves. The
# integer readers must give equal values.


def reference_deviation_values(game, player, mixed):
    """Expected payoff of each pure strategy of one player vs the rest."""
    exact = mixed.is_exact
    tensor = game.payoff_ints[..., player]
    weights = []
    for j, row in enumerate(mixed.support_items()):
        if j != player:
            tensor = tensor.take([k for k, _ in row], axis=j)
        weights.append(np.array([w for _, w in row], dtype=object if exact else float))
    tensor = tensor if exact else solver._float_payoffs(game, tensor)
    values = solver._contract(tensor, weights, player).tolist()
    return [Fraction(v, game.payoff_scale) for v in values] if exact else values


def reference_expected(mixed, player, values):
    """Expected payoff of a player from their deviation values."""
    zero = Fraction(0) if mixed.is_exact else 0.0
    return sum((w * values[k] for k, w in mixed.support_items()[player]), zero)


def reference_support_grid(game, mixed):
    """Flat indices, realized_index codes and probabilities of the support grid."""
    exact = mixed.is_exact
    flat, probs = [0], [1]
    for row, size in zip(mixed.support_items(), game.shape):
        flat = [at * size + k for at in flat for k, _ in row]
        probs = [p * (w if exact else float(w)) for p in probs for _, w in row]
    return flat, game.realized_index.take(flat).tolist(), probs


def reference_verify(game, mixed, tolerance=None):
    if tolerance is None:
        tolerance = Fraction(0) if mixed.is_exact else 1e-9
    values = [reference_deviation_values(game, i, mixed) for i in range(game.n_players)]
    expected = tuple(reference_expected(mixed, i, v) for i, v in enumerate(values))
    best = tuple(max(v) for v in values)
    regrets = tuple(b - e for b, e in zip(best, expected))
    return solver.VerificationReport(
        expected, best, regrets, max(regrets), tolerance, max(regrets) <= tolerance
    )


def reference_masses(game, mixed):
    _, codes, probs = reference_support_grid(game, mixed)
    sums = {}
    for code, p in zip(codes, probs):
        sums[code] = sums.get(code, 0) + p
    return {game.family[code]: sums[code] for code in sorted(sums)}


def reference_by_structure(game, mixed):
    exact = mixed.is_exact
    scale = game.payoff_scale
    flat, codes, probs = reference_support_grid(game, mixed)
    rows = game.payoff_ints.reshape(-1, game.n_players).take(flat, axis=0).tolist()
    sums = {}
    for code, p, row in zip(codes, probs, rows):
        terms = [p * v for v in row] if exact else [p * (v / scale) for v in row]
        total = sums.get(code)
        sums[code] = terms if total is None else [t + v for t, v in zip(total, terms)]
    return {
        game.family[code]: tuple(Fraction(v, scale) for v in sums[code]) if exact else tuple(sums[code])
        for code in sorted(sums)
    }


# -- the Fraction support lane ----------------------------------------------------
#
# The support lane as it stood before it moved to integer units: Fraction
# Gaussian elimination for the indifference weights and the Fraction
# contraction for the check. The integer lane must give the same results,
# repr for repr.


def fraction_solve(matrix, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def fraction_indifference_weights(pay, own_support, other_support):
    k = len(own_support)
    matrix = [[pay[i][j] for j in other_support] + [Fraction(-1)] for i in own_support]
    matrix.append([Fraction(1)] * k + [Fraction(0)])
    solution = fraction_solve(matrix, [Fraction(0)] * k + [Fraction(1)])
    if solution is None or any(w <= 0 for w in solution[:k]):
        return None
    return solution[:k]


def fraction_support_enum(game, max_support=None):
    sizes = [len(s) for s in game.strategy_sets]
    cap = max_support if max_support is not None else min(6, *sizes)
    pay1 = [[game.payoffs[i, j][0] for j in range(sizes[1])] for i in range(sizes[0])]
    pay2_t = [[game.payoffs[i, j][1] for i in range(sizes[0])] for j in range(sizes[1])]
    supports = [
        sorted(s for k in range(1, min(cap, n) + 1) for s in itertools.combinations(range(n), k))
        for n in sizes
    ]
    found = []
    for sup1, sup2 in itertools.product(*supports):
        w1, w2 = [Fraction(1, len(sup1))] * len(sup1), [Fraction(1, len(sup2))] * len(sup2)
        if len(sup1) == len(sup2):
            solved1 = fraction_indifference_weights(pay2_t, sup2, sup1)
            solved2 = fraction_indifference_weights(pay1, sup1, sup2)
            if solved1 is not None and solved2 is not None:
                w1, w2 = solved1, solved2
        rows = []
        for size, support, weights in zip(sizes, (sup1, sup2), (w1, w2)):
            row = [Fraction(0)] * size
            for k, w in zip(support, weights):
                row[k] = Fraction(w)
            rows.append(tuple(row))
        mixed = MixedProfile(tuple(rows))
        values = [reference_deviation_values(game, i, mixed) for i in range(2)]
        expected = tuple(reference_expected(mixed, i, v) for i, v in enumerate(values))
        if any(max(v) != e for v, e in zip(values, expected)):
            continue
        degenerate = any(
            v.count(e) > len(items) for v, e, items in zip(values, expected, mixed.support_items())
        )
        found.append(EquilibriumResult(mixed, expected, Fraction(0), SUPPORT, True, degenerate))
    return SupportEnumeration(tuple(found), cap < max(sizes))


class ExactInt(int):
    """An int whose floor divisions must leave no remainder; arithmetic keeps the type."""

    def __floordiv__(self, other):
        quotient, remainder = divmod(int(self), int(other))
        assert remainder == 0, f"{int(self)} // {int(other)} leaves {remainder}"
        return ExactInt(quotient)

    def __rfloordiv__(self, other):
        return ExactInt(other) // self

    def __mul__(self, other):
        return ExactInt(int(self) * int(other))

    __rmul__ = __mul__

    def __sub__(self, other):
        return ExactInt(int(self) - int(other))

    def __rsub__(self, other):
        return ExactInt(int(other) - int(self))


def square_game(seed, m):
    """A seeded m x m unanimity game with integer payoffs in [-9, 9]."""
    rng = random.Random(seed)
    menu = [Strategy(d, a) for d in range(2) for a in "abcd"]
    sets = tuple(tuple(rng.sample(menu, m)) for _ in range(2))
    payoffs = {
        p: (Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9)))
        for p in itertools.product(range(m), repeat=2)
    }
    return CoalitionGame(2, 2, enumerate_partitions(2, 2), sets, Mechanism(), payoffs)


# -- random games ------------------------------------------------------------


@st.composite
def coalition_games(draw, alone=False, players=(2, 4), payoff_values=st.integers(-3, 3)):
    """Random small games; payoffs either per profile or per realized structure.

    With alone=True every player can desire the all-singleton structure and
    any mechanism table realizes only that, so every restriction succeeds.
    payoff_values draws each payoff, as anything Fraction() accepts.
    """
    n = draw(st.integers(*players))
    cap = draw(st.integers(1, n))
    family = enumerate_partitions(n, cap)
    singletons = family.index_of(CoalitionStructure.singletons(n))
    # Desires come from a short menu, so that players often agree on blocks.
    menu = draw(
        st.lists(
            st.integers(0, len(family) - 1), min_size=min(2, len(family)), max_size=3, unique=True
        )
    )
    sets = []
    for _ in range(n):
        count = draw(st.integers(2, min(3, 2 * len(menu))))
        pairs = draw(
            st.lists(
                st.tuples(st.sampled_from(menu), st.sampled_from("xxy")),
                min_size=count,
                max_size=count,
                unique=True,
            )
        )
        if alone and (singletons, "x") not in pairs:
            pairs[0] = (singletons, "x")
        sets.append(tuple(Strategy(d, a) for d, a in pairs))
    profiles = list(itertools.product(*(range(len(s)) for s in sets)))
    mechanism = Mechanism()
    if draw(st.booleans()):
        choices = st.just(singletons) if alone else st.integers(0, len(family) - 1)
        realized = draw(st.lists(choices, min_size=len(profiles), max_size=len(profiles)))
        mechanism = Mechanism(TABLE, {p: family[k] for p, k in zip(profiles, realized)})
    payoffs = {}
    game = CoalitionGame(n, cap, family, tuple(sets), mechanism, payoffs)
    # Payoffs that follow the realized structure, as in lunch, make joint
    # redesires pay off, so the group screen has work to do.
    by_structure = draw(st.booleans())
    rows = len(family) if by_structure else len(profiles)
    values = draw(st.lists(payoff_values, min_size=n * rows, max_size=n * rows))
    for k, p in enumerate(profiles):
        row = family.index_of(brute_realized(game, p)) if by_structure else k
        payoffs[p] = tuple(Fraction(v) for v in values[row * n : (row + 1) * n])
    return game


# Denominators 1 to 7. In half of the games a fifth of the numerators sit
# beyond 2**63 either way, so payoff_ints takes both dtypes.
small_numerators = st.integers(-3, 3)
big_numerators = st.builds(
    lambda small, offset: small + offset,
    small_numerators,
    st.sampled_from([0, 0, 0, 2**63, -(2**64)]),
)
exact_payoffs = [
    st.builds(Fraction, numerators, st.integers(1, 7))
    for numerators in (small_numerators, big_numerators)
]
exact_games = st.one_of(coalition_games(payoff_values=values) for values in exact_payoffs)
# Payoffs in {0, 1}: ties, weak dominance and degenerate equilibria are common.
binary_payoffs = st.builds(Fraction, st.integers(0, 1))


@st.composite
def two_player_games(draw, payoff_values):
    """Two-player unanimity games with 1 to 5 strategies each."""
    family = enumerate_partitions(2, 2)
    menu = [Strategy(d, a) for d in range(len(family)) for a in "abc"]
    sets = tuple(tuple(draw(st.permutations(menu))[: draw(st.integers(1, 5))]) for _ in range(2))
    profiles = list(itertools.product(*(range(len(s)) for s in sets)))
    values = draw(st.lists(payoff_values, min_size=2 * len(profiles), max_size=2 * len(profiles)))
    payoffs = {p: (values[2 * k], values[2 * k + 1]) for k, p in enumerate(profiles)}
    return CoalitionGame(2, 2, family, sets, Mechanism(), payoffs)


def tied_game():
    """A 2 x 2 game whose rows tie on column 0, the column player's only best reply.

    Its equilibria are both pure rows and their uniform mix, each
    against column 0. A dominance prune that counted ties as wins would
    drop all three; row 1 beats row 0 strictly only on column 1.
    """
    family = enumerate_partitions(2, 2)
    sets = ((Strategy(0, "a"), Strategy(1, "a")), (Strategy(0, "b"), Strategy(1, "b")))
    rows = {(0, 0): (1, 1), (0, 1): (0, 0), (1, 0): (1, 1), (1, 1): (2, 0)}
    payoffs = {p: tuple(map(Fraction, v)) for p, v in rows.items()}
    return CoalitionGame(2, 2, family, sets, Mechanism(), payoffs)


@st.composite
def games_with_baselines(draw):
    """An exact-payoff game and a baseline per player, at or next to a payoff, some floats."""
    game = draw(exact_games)
    # One profile's payoffs, some a hair off: where ceil and floor of the
    # scaled baseline differ.
    row = game.payoffs[draw(st.sampled_from(sorted(game.payoffs)))]
    baseline = []
    for payoff in row:
        value = payoff + draw(st.sampled_from([0, 0, Fraction(1, 1000), Fraction(-1, 1000)]))
        if draw(st.booleans()):
            value = float(value)
        baseline.append(value)
    return game, tuple(baseline)


@st.composite
def games_with_profiles(draw):
    game = draw(coalition_games())
    rows = []
    for strategies in game.strategy_sets:
        raw = draw(
            st.lists(st.integers(0, 3), min_size=len(strategies), max_size=len(strategies)).filter(
                any
            )
        )
        rows.append(tuple(Fraction(w, sum(raw)) for w in raw))
    return game, MixedProfile(tuple(rows))


# -- differential checks ------------------------------------------------------


def hand_built_game():
    """A 4-player unanimity game at cap 2 over a family built by hand, in reverse order.

    Each structure is built on its own, so equal blocks of different
    structures, such as {0,1} in {{0,1},{2,3}} and in {{0,1},{2},{3}},
    are different Coalition objects.
    """
    structures = tuple(
        CoalitionStructure.of([b.members for b in s], 4)
        for s in reversed(enumerate_partitions(4, 2).structures)
    )
    own = [s.block_of(0) for s in structures]
    assert len(set(own)) < len(own) == len(set(map(id, own)))
    strategies = tuple(Strategy(k) for k in range(len(structures)))
    profiles = itertools.product(range(len(strategies)), repeat=4)
    return CoalitionGame(
        4, 2, PartitionFamily(4, 2, structures), (strategies,) * 4,
        payoffs=dict.fromkeys(profiles, (0, 0, 0, 0)),
    )


class TestAgainstBruteForce:
    @staticmethod
    def check_realized_structures_and_domains(game):
        expected = {p: brute_realized(game, p) for p in all_profiles(game)}
        for profile, structure in expected.items():
            assert game.realized_partition(profile) == structure
        grouped = {}
        for profile, structure in expected.items():
            grouped.setdefault(structure, []).append(profile)
        domains = [(structure, list(profiles)) for structure, profiles in game.validate_domains()]
        assert domains == [(s, grouped[s]) for s in game.family if s in grouped]

    @DIFFERENTIAL
    @given(coalition_games(players=(1, 5)))
    def test_realized_structures_and_domains(self, game):
        self.check_realized_structures_and_domains(game)

    @pytest.mark.parametrize(
        "build",
        [hand_built_game, lambda: restricted("lunch", 2), lambda: catalog_game("lunch")],
        ids=["hand-built", "lunch-K2", "lunch-K4"],
    )
    def test_realized_structures_and_domains_of_built_games(self, build):
        self.check_realized_structures_and_domains(build())

    @DIFFERENTIAL
    @given(games_with_profiles())
    def test_mixed_profile_quantities(self, case):
        game, mixed = case
        expected = brute_expected(game, mixed)
        assert expected_utilities(game, mixed) == expected
        report = verify_epsilon_nash(game, mixed)
        best = tuple(brute_best(game, mixed, i) for i in range(game.n_players))
        assert report.expected == expected
        assert report.best_response == best
        assert report.max_regret == max(b - e for b, e in zip(best, expected))
        assert report.passed == (report.max_regret <= 0)
        grouped = brute_by_structure(game, mixed)
        assert expected_utility_by_structure(game, mixed) == grouped
        result = EquilibriumResult(mixed, expected, Fraction(0), "given", True)
        lottery = equilibrium_partitions(game, result)
        masses = {
            s: sum(
                probability(mixed, p)
                for p in all_profiles(game)
                if brute_realized(game, p) == s
            )
            for s in grouped
        }
        assert lottery.probabilities == masses
        assert list(lottery.partitions) == [s for s in game.family if s in masses]

    @DIFFERENTIAL
    @given(coalition_games())
    def test_pure_enumeration(self, game):
        found = [
            (tuple(r.profile.support(i)[0] for i in range(game.n_players)), r.degenerate)
            for r in pure_nash_enumerate(game)
        ]
        assert found == brute_pure(game)
        kept = {p for p, _ in found}
        for profile in all_profiles(game):
            assert is_pure_equilibrium(game, profile) == (profile in kept)

    @DIFFERENTIAL
    @given(st.booleans().flatmap(coalition_games).filter(lambda g: g.max_coalition > 1), st.data())
    def test_restrict(self, game, data):
        cap = data.draw(st.integers(1, game.max_coalition - 1))
        kept = [
            [
                k
                for k, s in enumerate(game.strategy_sets[i])
                if game.family[s.desired_partition].max_block_size <= cap
            ]
            for i in range(game.n_players)
        ]
        parents = {
            small: tuple(kept[i][k] for i, k in enumerate(small))
            for small in itertools.product(*(range(len(r)) for r in kept))
        }
        if any(not rows for rows in kept) or any(
            brute_realized(game, parent).max_block_size > cap for parent in parents.values()
        ):
            with pytest.raises(ValidationError):
                game.restrict(cap)
            return
        # Either path of restrict: the slice of an index the game holds, or
        # a unanimity game that never read its index hands none on.
        held = data.draw(st.booleans(), label="index read before restricting")
        if held:
            game.realized_index
        small = game.restrict(cap)
        assert small.mechanism.kind == game.mechanism.kind
        assert ("realized_index" in vars(small)) == (held or game.mechanism.kind == TABLE)
        for i in range(game.n_players):
            assert [small.strategy_key(i, k) for k in range(len(small.strategy_sets[i]))] == [
                game.strategy_key(i, k) for k in kept[i]
            ]
        assert dict(small.payoffs) == {p: game.payoffs[q] for p, q in parents.items()}
        for profile, parent in parents.items():
            assert small.realized_partition(profile) == brute_realized(game, parent)


class TestSolverLanes:
    @DIFFERENTIAL
    @given(coalition_games(players=(2, 2)))
    def test_support_enumeration(self, game):
        pure = {}
        for result in mixed_nash_2p_support_enum(game).equilibria:
            mixed = result.profile
            expected = brute_expected(game, mixed)
            values = [brute_deviation_values(game, mixed, i) for i in range(2)]
            assert result.expected_payoffs == expected
            assert [max(v) for v in values] == list(expected)
            support = [sum(w != 0 for w in row) for row in mixed.weights]
            assert result.degenerate == any(
                v.count(max(v)) > size for v, size in zip(values, support)
            )
            if support == [1, 1]:
                pure[tuple(row.index(1) for row in mixed.weights)] = result.degenerate
        assert pure == brute_nash(game)

    # 90 examples over three payoff draws keep about 60 on the first two.
    @settings(DIFFERENTIAL, max_examples=90)
    @given(st.one_of(two_player_games(values) for values in (*exact_payoffs, binary_payoffs)))
    @example(tied_game())
    def test_support_lane_matches_the_fraction_lane(self, game):
        for max_support in (None, 1, 2, 3):
            found = mixed_nash_2p_support_enum(game, SolverConfig(max_support=max_support))
            assert repr(found) == repr(fraction_support_enum(game, max_support))

    @settings(DIFFERENTIAL, max_examples=300)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-(2**62), 2**62), min_size=n + 1, max_size=n + 1),
                min_size=n,
                max_size=n,
            )
        ),
        st.sampled_from([False, True, False]),
        st.data(),
    )
    def test_fraction_free_solve(self, rows, repeat, data):
        n = len(rows)
        # About three systems in ten repeat a row, so they are singular.
        repeated = n > 1 and repeat
        if repeated:
            source, target = data.draw(st.permutations(range(n)))[:2]
            rows[target] = list(rows[source])
        expected = fraction_solve([row[:n] for row in rows], [row[n] for row in rows])
        solution = _solve_fraction_free([[ExactInt(v) for v in row] for row in rows])
        if expected is None:
            assert solution is None
            return
        assert not repeated
        numerators, denominator = solution
        assert type(denominator) is ExactInt and denominator > 0
        assert [Fraction(v, denominator) for v in numerators] == expected

    def test_random_games_keep_their_results(self):
        rng = random.Random(7)
        games = [random_two_player_game(rng, 4) for _ in range(300)]
        results = [r for g in games for r in mixed_nash_2p_support_enum(g).equilibria]
        assert len(results) == 609
        assert sum(r.degenerate for r in results) == 209
        assert sum(not r.profile.is_pure for r in results) == 200
        # Trials 278 and 298 each keep one pure result and still miss the
        # mixed equilibria that the lane's docstring names.
        for trial, found, payoffs, missed in (
            (278, ((0, 0, 1, 0), (0, 1)), (5, 5), ((1, 0, 0, 0), (Fraction(1, 3), Fraction(2, 3)))),
            (298, ((0, 1), (0, 1, 0)), (-2, 1), ((Fraction(1, 3), Fraction(2, 3)), (0, 0, 1))),
        ):
            (result,) = mixed_nash_2p_support_enum(games[trial]).equilibria
            assert result.profile.weights == found and result.expected_payoffs == payoffs
            assert not result.degenerate
            assert verify_epsilon_nash(games[trial], MixedProfile(missed)).passed

    def test_random_games_draw_at_most_the_distinct_strategies(self):
        # At cap 1 only 4 distinct (desire, action) strategies exist.
        rng = random.Random(3)
        for _ in range(50):
            game = random_two_player_game(rng, 6)
            for strategies in game.strategy_sets:
                assert 2 <= len(strategies) <= min(6, 4 * len(game.family))
                assert len(set(strategies)) == len(strategies)

    @pytest.mark.parametrize(
        "seed, m, count, degenerate, digest",
        [
            (6, 6, 6, 3, "3e7609e9f57c88b240cf90a845edfc59c66f45e7051aa3b155ccb60df6206b9b"),
            (8, 8, 3, 1, "17a368f4258d7a2848d462a57fbfd7829d651ba16858541269c23d7b190d296e"),
        ],
        ids=["6-6", "8-8"],
    )
    def test_larger_games_reach_zero_regret(self, seed, m, count, degenerate, digest):
        game = square_game(seed, m)
        found = mixed_nash_2p_support_enum(game)
        assert found.truncated == (m > 6)
        assert len(found.equilibria) == count
        assert sum(r.degenerate for r in found.equilibria) == degenerate
        assert hashlib.sha256(repr(found).encode()).hexdigest() == digest
        for result in found.equilibria:
            values = [brute_deviation_values(game, result.profile, i) for i in range(2)]
            assert [max(v) for v in values] == list(brute_expected(game, result.profile))
            assert list(result.expected_payoffs) == [max(v) for v in values]

    @DIFFERENTIAL
    @given(coalition_games())
    def test_fictitious_play_snaps_to_pure_nash(self, game):
        result = mixed_nash_iterative(game, SolverConfig(max_iterations=300))
        if result.profile.is_exact:
            profile = tuple(row.index(1) for row in result.profile.weights)
            nash = brute_nash(game)
            assert profile in nash
            assert result.degenerate == nash[profile]
            assert result.expected_payoffs == game.payoffs[profile]
            assert result.max_regret == 0 and result.is_equilibrium
            assert result.method == ITERATIVE and result.iterations > solver._LOCK_WINDOW

    @pytest.mark.parametrize(
        "name, iterations", [("pd-extended", 65), ("stag-hare", 65), ("lunch", 68)]
    )
    def test_catalog_snaps_keep_their_iteration_counts(self, name, iterations):
        result = mixed_nash_iterative(catalog_game(name))
        assert result.profile.is_exact and result.method == ITERATIVE
        assert result.iterations == iterations


class TestIntegerPayoffs:
    @DIFFERENTIAL
    @given(exact_games)
    def test_payoff_ints_scale_the_tensor_exactly(self, game):
        values = [v for row in game.payoffs.values() for v in row]
        scale = math.lcm(*(v.denominator for v in values))
        assert game.payoff_scale == scale
        ints = game.payoff_ints
        assert ints.shape == (*game.shape, game.n_players) and not ints.flags.writeable
        fits = all(abs(v * scale) < 2**63 for v in values)
        assert ints.dtype == (np.int64 if fits else object)
        for profile in all_profiles(game):
            assert [int(v) for v in ints[profile]] == [v * scale for v in game.payoffs[profile]]

    @DIFFERENTIAL
    @given(exact_games)
    def test_best_reply_counts(self, game):
        pay = game.payoffs
        for profile in all_profiles(game):
            for i in range(game.n_players):
                replies = [
                    pay[switched(profile, [(i, k)])][i] for k in range(len(game.strategy_sets[i]))
                ]
                best = replies.count(max(replies)) if pay[profile][i] == max(replies) else 0
                assert game.best_reply_counts[profile + (i,)] == best
        peaks = tuple(max(row[i] for row in pay.values()) for i in range(game.n_players))
        assert game.payoff_peaks == tuple(p * game.payoff_scale for p in peaks)

    @DIFFERENTIAL
    @given(exact_games)
    def test_pure_enumeration(self, game):
        found = [
            (tuple(r.profile.support(i)[0] for i in range(game.n_players)), r.degenerate)
            for r in pure_nash_enumerate(game)
        ]
        assert found == brute_pure(game)
        for result in pure_nash_enumerate(game):
            profile = tuple(r.index(1) for r in result.profile.weights)
            assert result.expected_payoffs == game.payoffs[profile]

    @DIFFERENTIAL
    @given(games_with_baselines())
    def test_pareto_diagnostics(self, case):
        game, baseline = case
        pure = {p for p, _ in brute_pure(game)}
        expected = [
            (p, game.payoffs[p])
            for p in all_profiles(game)
            if p in pure
            and all(v >= b for v, b in zip(game.payoffs[p], baseline))
            and any(v > b for v, b in zip(game.payoffs[p], baseline))
        ]
        found = [(d.profile, d.payoffs) for d in _pareto_dominating_pures(game, baseline)]
        assert found == expected
        assert all(type(v) is Fraction for _, pay in found for v in pay)


# Every payoff at or just above 2**63, so payoff_ints is an object array.
huge_payoffs = st.integers(0, 6).map(lambda v: v + 2**63)


def pure_profile_of(result):
    return tuple(result.profile.support(i)[0] for i in range(result.profile.n_players))


class TestChunkedScreen:
    """The group screen in chunks of every size against the brute-force walk."""

    @DIFFERENTIAL
    @pytest.mark.parametrize("kind", [UNANIMITY, TABLE])
    @pytest.mark.parametrize("payoff_values", [st.integers(-3, 3), huge_payoffs], ids=["int64", "object"])
    @given(data=st.data())
    def test_against_brute_force(self, kind, payoff_values, data):
        games = coalition_games(payoff_values=payoff_values)
        game = data.draw(games.filter(lambda g: g.mechanism.kind == kind))
        assert (game.payoff_ints.dtype == object) == (payoff_values is huge_payoffs)
        expected = brute_pure(game)
        kept = {p for p, _ in expected}
        baseline = game.payoffs[data.draw(st.sampled_from(all_profiles(game)))]
        dominating = [
            (p, game.payoffs[p])
            for p in all_profiles(game)
            if p in kept
            and all(v >= b for v, b in zip(game.payoffs[p], baseline))
            and any(v > b for v, b in zip(game.payoffs[p], baseline))
        ]
        for profile in all_profiles(game):
            assert is_pure_equilibrium(game, profile) == (profile in kept)
        # One survivor's slice on the smallest group: a budget of exactly
        # one slice, one byte short of it, and two slices and a byte.
        slice_bytes = game.payoff_ints.itemsize * min(a * b for a, b in itertools.combinations(game.shape, 2))
        for budget in (slice_bytes, slice_bytes - 1, 2 * slice_bytes + 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(solver, "_SCREEN_BYTES", budget)
                found = [(pure_profile_of(r), r.degenerate) for r in pure_nash_enumerate(game)]
                assert found == expected
                first = first_pure_equilibrium(game)
                assert (None if first is None else pure_profile_of(first)) == (
                    expected[0][0] if expected else None
                )
                diagnostics = _pareto_dominating_pures(game, baseline)
                assert [(d.profile, d.payoffs) for d in diagnostics] == dominating


class TestScreenOnGivenRows:
    """_pure_profiles on given rows against its own whole-space screen."""

    @DIFFERENTIAL
    @pytest.mark.parametrize("payoff_values", [st.integers(-3, 3), huge_payoffs], ids=["int64", "object"])
    @given(data=st.data())
    def test_rows_that_pass_keep_their_order(self, payoff_values, data):
        game = data.draw(coalition_games(payoff_values=payoff_values))
        assert (game.payoff_ints.dtype == object) == (payoff_values is huge_payoffs)
        profiles = all_profiles(game)
        repeats = data.draw(st.lists(st.sampled_from(profiles), max_size=len(profiles)))
        sample = data.draw(st.permutations(profiles + repeats))
        rows = np.array(sample, dtype=np.int64).reshape(len(sample), game.n_players)
        found = _pure_profiles(game, rows)
        passing = set(map(tuple, _pure_profiles(game).tolist()))
        assert found.shape[1] == game.n_players
        assert list(map(tuple, found.tolist())) == [p for p in sample if p in passing]

    @pytest.mark.parametrize("name", ["bos", "lunch"])
    def test_no_rows_leave_best_replies_unbuilt(self, name):
        game = CATALOG[name].build()
        assert "best_reply_counts" not in vars(game)
        found = _pure_profiles(game, np.empty((0, game.n_players), dtype=np.int64))
        assert found.shape == (0, game.n_players)
        assert "best_reply_counts" not in vars(game)
        point_mass(game, (1,) * game.n_players)
        assert "best_reply_counts" not in vars(game)


def pure_entries_agree(game, names):
    """The array-built pure entries equal those built from results, key order too."""
    labels = _strategy_labels(game, names)
    results = pure_nash_enumerate(game)
    profiles = _pure_profiles(game)
    assert profiles.tolist() == [list(pure_profile_of(r)) for r in results]
    entries = _pure_entries(game, names, labels, profiles)
    expected = _result_entries(game, names, labels, results)
    assert entries == expected
    assert [list(e) for e in entries] == [list(e) for e in expected]


class TestPureEntries:
    @DIFFERENTIAL
    @given(exact_games)
    def test_random_games(self, game):
        pure_entries_agree(game, _default_names(game.n_players))

    @pytest.mark.parametrize("cap", [2, 3, 4])
    def test_lunch(self, cap):
        pure_entries_agree(restricted("lunch", cap), ("A", "B", "C", "D"))


# -- the one solve entry point ------------------------------------------------

# A short fictitious-play budget keeps the iterative lane quick on every game.
SHORT_PLAY = SolverConfig(max_iterations=300)


def lanes_agree(game):
    """solve by each lane's name gives that lane's results and flags."""
    pure = solve(game, "pure")
    assert pure.method == PURE and not pure.truncated and pure.converged
    assert pure.profiles.tolist() == [list(pure_profile_of(r)) for r in pure.results]
    assert repr(pure.results) == repr(pure_nash_enumerate(game))
    played = solve(game, "iterative", SHORT_PLAY)
    expected = mixed_nash_iterative(game, SHORT_PLAY)
    assert played.method == ITERATIVE and played.profiles is None and not played.truncated
    assert repr(played.results) == repr((expected,))
    assert played.converged == expected.is_equilibrium
    if game.n_players != 2:
        message = f"^support enumeration handles exactly 2 players, game has {game.n_players}$"
        with pytest.raises(ValueError, match=message):
            solve(game, "support")
        return
    found = solve(game, "support")
    expected = mixed_nash_2p_support_enum(game)
    assert found.method == SUPPORT and found.profiles is None and found.converged
    assert repr(found.results) == repr(expected.equilibria)
    assert found.truncated == expected.truncated


def reference_first_equilibrium(game, config):
    """The default chain the CLI's analyze and stability ran before solve held it."""
    result = first_pure_equilibrium(game)
    if result is None and game.n_players == 2:
        found = mixed_nash_2p_support_enum(game, config)
        if found.equilibria:
            result = found.equilibria[0]
    if result is None:
        result = mixed_nash_iterative(game, config)
    return result


def pennies_game(n):
    """Matching pennies around a ring: each player but the last wants to match the next.

    The last wants to differ from the first. At cap 1 with two players it
    has no pure equilibrium; neither has the three-player ring (Jordan's
    game).
    """
    family = enumerate_partitions(n, 1)
    coins = (Strategy(0, "heads"), Strategy(0, "tails"))
    payoffs = {
        p: tuple(Fraction(1 if (p[i] == p[(i + 1) % n]) != (i == n - 1) else -1) for i in range(n))
        for p in itertools.product(range(2), repeat=n)
    }
    return CoalitionGame(n, 1, family, (coins,) * n, Mechanism(), payoffs)


class TestSolve:
    @DIFFERENTIAL
    @given(exact_games)
    def test_random_games_match_the_lanes(self, game):
        lanes_agree(game)

    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_games_match_the_lanes(self, name):
        lanes_agree(catalog_game(name))

    @pytest.mark.parametrize(
        "build, method",
        [
            (lambda: catalog_game("bos"), PURE),
            (lambda: restricted("lunch", 2), PURE),
            (lambda: pennies_game(2), SUPPORT),
            (lambda: pennies_game(3), ITERATIVE),
        ],
        ids=["bos", "lunch-2", "pennies", "jordan"],
    )
    @pytest.mark.parametrize("seed", [0, 5])
    def test_first_is_the_default_chain(self, build, method, seed):
        game = build()
        config = SolverConfig(max_iterations=300, rng_seed=seed)
        first = solve(game, "first", config)
        assert first.method == method and len(first.results) == 1
        assert repr(first.results[0]) == repr(reference_first_equilibrium(game, config))
        if method == PURE:
            assert first.profiles.tolist() == [list(pure_profile_of(first.results[0]))]

    @DIFFERENTIAL
    @given(exact_games)
    def test_first_on_random_games(self, game):
        first = solve(game, "first", SHORT_PLAY).results
        assert repr(first) == repr((reference_first_equilibrium(game, SHORT_PLAY),))

    def test_pure_results_are_built_on_first_read(self):
        solution = solve(restricted("lunch", 2), "pure")
        assert solution.converged and len(solution.profiles) == 2304
        assert "results" not in vars(solution)
        results = solution.results
        assert vars(solution)["results"] is results and len(results) == 2304
        assert solution.results is results

    def test_solution_is_frozen(self):
        solution = solve(catalog_game("bos"), "pure")
        with pytest.raises(dataclasses.FrozenInstanceError):
            solution.method = SUPPORT
        assert isinstance(solution, Solution)

    @pytest.mark.parametrize("method", ["auto", "Pure", "", None])
    def test_unknown_method_names_the_accepted_ones(self, method):
        message = f"unknown method {method!r}; methods are pure, support, iterative and first"
        with pytest.raises(ValueError) as caught:
            solve(catalog_game("bos"), method)
        assert str(caught.value) == message


def reference_equilibrium_lines(game, names, labels, index, result):
    """The text lines of one result, as the CLI built them before it read them from its entry."""

    def structure_text(structure):
        blocks = ",".join("{" + ",".join(names[i] for i in block) + "}" for block in structure.blocks)
        return "{" + blocks + "}"

    mixed = result.profile
    if mixed.is_pure:
        shown = ", ".join(labels[i][mixed.support(i)[0]] for i in range(game.n_players))
        head = f"#{index} [{result.method}] ({shown})"
    else:
        parts = []
        for i in range(game.n_players):
            weights = " ".join(
                f"{labels[i][j]}={_show(mixed.weights[i][j])}" for j in mixed.support(i)
            )
            parts.append(f"{names[i]}: {weights}")
        head = f"#{index} [{result.method}] " + " | ".join(parts)
    pay = ", ".join(_show(v) for v in result.expected_payoffs)
    head += f" -> payoffs ({pay}), regret {_show(result.max_regret)}"
    if result.degenerate:
        head += ", degenerate"
    if not result.is_equilibrium:
        return [head + ", NOT verified"]
    dist = equilibrium_partitions(game, result)
    rendered = ", ".join(
        f"{structure_text(s)} {_show(dist.probability(s))}" for s in dist.partitions
    )
    return [head, f"    partitions: {rendered}"]


@st.composite
def drawn_results(draw):
    """A game and a result on a drawn profile: pure or mixed exact, dense or sparse float.

    The verdict flags are drawn apart from the profile, so every
    combination of is_equilibrium and degenerate reaches the formatter.
    """
    game = draw(exact_games)
    kind = draw(st.sampled_from(["pure", "mixed", "float dense", "float sparse"]))
    if kind == "pure":
        mixed = point_mass(game, tuple(draw(st.integers(0, m - 1)) for m in game.shape))
    elif kind == "mixed":
        rows = []
        for m in game.shape:
            raw = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any))
            rows.append(tuple(Fraction(w, sum(raw)) for w in raw))
        mixed = MixedProfile(tuple(rows))
    else:
        mixed = float_profile(game, draw(st.integers(0, 2**32)), kind == "float sparse")
    report = verify_epsilon_nash(game, mixed)
    result = EquilibriumResult(
        profile=mixed,
        expected_payoffs=report.expected,
        max_regret=report.max_regret,
        method=draw(st.sampled_from([PURE, SUPPORT, ITERATIVE, "supplied"])),
        is_equilibrium=draw(st.booleans()),
        degenerate=draw(st.booleans()),
    )
    names = draw(st.sampled_from([_default_names(game.n_players), ("Ann", "Bob", "Cy", "Di")[: game.n_players]]))
    return game, names, result


@DIFFERENTIAL
@given(drawn_results(), st.integers(1, 24))
def test_entry_lines_match_the_reference(case, index):
    """Text read from an entry equals text built from the result, float re-parse included."""
    game, names, result = case
    labels = _strategy_labels(game, names)
    entry = _equilibrium_entry(game, names, labels, result)
    lines = _entry_lines(index, entry, names, result.profile.is_exact)
    assert lines == reference_equilibrium_lines(game, names, labels, index, result)


def brute_lift(source, mixed, target):
    """The profile on the target's strategies, matched by strategy key."""
    rows = []
    for i in range(source.n_players):
        weight = {source.strategy_key(i, k): w for k, w in enumerate(mixed.weights[i])}
        keys = [target.strategy_key(i, k) for k in range(len(target.strategy_sets[i]))]
        assert {key for key, w in weight.items() if w} <= set(keys)
        rows.append(tuple(weight.get(key, Fraction(0)) for key in keys))
    return MixedProfile(tuple(rows))


def brute_stability(games, K0, profile):
    """(K*, [(K, payoff_ok)], [(K, profile, payoffs)]) of a scan from K0 upward."""
    base = games[K0]
    baseline = brute_expected(base, profile)
    checks, diagnostics, K_star = [(K0, True)], [], K0
    for K in sorted(games):
        if K < K0:
            continue
        game = games[K]
        if K > K0:
            lifted = brute_lift(base, profile, game)
            expected = brute_expected(game, lifted)
            best = [brute_best(game, lifted, i) for i in range(game.n_players)]
            checks.append((K, best == list(expected)))
        diagnostics += [
            (K, p, game.payoffs[p])
            for p, _ in brute_pure(game)
            if all(v >= b for v, b in zip(game.payoffs[p], baseline))
            and any(v > b for v, b in zip(game.payoffs[p], baseline))
        ]
        if not checks[-1][1]:
            break
        K_star = K
    return K_star, checks, diagnostics


class TestStability:
    @DIFFERENTIAL
    @given(coalition_games(alone=True), st.data())
    def test_against_a_brute_force_scan(self, game, data):
        games = {K: game.restrict(K) for K in range(1, game.max_coalition + 1)}
        K0 = data.draw(st.integers(1, game.max_coalition))
        base = games[K0]
        results = [first_pure_equilibrium(base)]
        if base.n_players == 2:
            results += mixed_nash_2p_support_enum(base).equilibria
        for result in filter(None, results):
            report = stability_K_star(list(games.values()), K0, result)
            K_star, checks, diagnostics = brute_stability(games, K0, result.profile)
            assert report.K_star == K_star
            assert [(c.K, c.payoff_ok) for c in report.per_K_checks] == checks
            assert all(c.domain_ok for c in report.per_K_checks)
            assert [(d.K, d.profile, d.payoffs) for d in report.diagnostics] == diagnostics


# -- strategy maps against the strategy_key matchings -----------------------------


def reference_payoff_isomorphic(a, b):
    """payoff_isomorphic as it compared per-player lists of strategy keys."""
    if a.n_players != b.n_players or a.max_coalition != b.max_coalition:
        return False
    for i in range(a.n_players):
        keys_a = [a.strategy_key(i, j) for j in range(len(a.strategy_sets[i]))]
        keys_b = [b.strategy_key(i, j) for j in range(len(b.strategy_sets[i]))]
        if keys_a != keys_b:
            return False
    return a.payoff_scale == b.payoff_scale and np.array_equal(a.payoff_ints, b.payoff_ints)


def reference_lift_profile(source, mixed, target):
    """lift_profile as it placed weights by strategy key."""
    solver._check_mixed(source, mixed)
    if source.n_players != target.n_players:
        raise ValueError("games cover different player counts")
    zero = Fraction(0) if mixed.is_exact else 0.0
    rows = []
    for i in range(source.n_players):
        by_key = {source.strategy_key(i, k): w for k, w in mixed.support_items()[i]}
        row = tuple(
            by_key.get(target.strategy_key(i, k), zero)
            for k in range(len(target.strategy_sets[i]))
        )
        placed = sum(1 for w in row if w != 0)
        if placed != len(by_key):
            raise ValueError(
                f"player {i} has support strategies with no counterpart in the target game"
            )
        rows.append(row)
    return MixedProfile(tuple(rows))


def reference_compare_domains(a, b, game_a, game_b):
    """compare_domains with both games, as it compared sets of strategy keys."""
    if a.n_players != b.n_players:
        raise ValueError("profiles cover different player counts")
    solver._check_mixed(game_a, a)
    solver._check_mixed(game_b, b)
    for i in range(a.n_players):
        keys_a = [game_a.strategy_key(i, k) for k in range(len(game_a.strategy_sets[i]))]
        keys_b = [game_b.strategy_key(i, k) for k in range(len(game_b.strategy_sets[i]))]
        if not (set(keys_a) <= set(keys_b) or set(keys_b) <= set(keys_a)):
            raise ValueError(
                f"player {i} strategy universes do not embed in either direction"
            )
        sup_a = {keys_a[k] for k in a.support(i)}
        sup_b = {keys_b[k] for k in b.support(i)}
        if sup_a != sup_b:
            return False
    return True


def reindexed(game, player, order):
    """The game with the player's strategies listed as order: original indices, a permutation or a subset."""
    sets = list(game.strategy_sets)
    sets[player] = tuple(sets[player][k] for k in order)

    def original(profile):
        return profile[:player] + (order[profile[player]],) + profile[player + 1 :]

    profiles = list(itertools.product(*(range(len(s)) for s in sets)))
    mechanism = game.mechanism
    if mechanism.kind == TABLE:
        mechanism = Mechanism(TABLE, {p: game.realized_partition(original(p)) for p in profiles})
    payoffs = {p: game.payoff(original(p)) for p in profiles}
    return CoalitionGame(game.n_players, game.max_coalition, game.family, tuple(sets), mechanism, payoffs)


def outcome(call, *args):
    """What a call returns, as its repr so that weight types count, or the type and message it raises."""
    try:
        return repr(call(*args))
    except Exception as error:
        return type(error), str(error)


@st.composite
def profiles_of(draw, game, exact):
    """An exact or float profile of the game, often with partial support."""
    rows = []
    for strategies in game.strategy_sets:
        size = len(strategies)
        raw = draw(st.lists(st.integers(0, 2), min_size=size, max_size=size).filter(any))
        rows.append(tuple(Fraction(w, sum(raw)) if exact else w / sum(raw) for w in raw))
    return MixedProfile(tuple(rows))


@st.composite
def related_games(draw):
    """A game with actions, under either mechanism, and games around it.

    Its restrictions at every cap, each over its own family; the game
    with one player's strategies permuted; and that permutation without
    its first or its last strategy, which do not embed in each other.
    """
    game = draw(coalition_games(alone=True))
    player = draw(st.integers(0, game.n_players - 1))
    order = draw(st.permutations(range(len(game.strategy_sets[player]))))
    return [
        *(game.restrict(K) for K in range(1, game.max_coalition + 1)),
        reindexed(game, player, order),
        reindexed(game, player, order[1:]),
        reindexed(game, player, order[:-1]),
    ]


@DIFFERENTIAL
@given(related_games(), st.data())
def test_strategy_maps_match_the_key_matchings(games, data):
    profiles = [data.draw(profiles_of(g, exact)) for g in games for exact in (True, False)]
    for a, b in itertools.product(games, repeat=2):
        assert payoff_isomorphic(a, b) is reference_payoff_isomorphic(a, b)
        for exact in (True, False):
            mixed = profiles[2 * games.index(a) + (not exact)]
            lifted = outcome(lift_profile, a, mixed, b)
            assert lifted == outcome(reference_lift_profile, a, mixed, b)
            others = [profiles[2 * games.index(b) + (not exact)]]
            if isinstance(lifted, str):
                others.append(lift_profile(a, mixed, b))
            for other in others:
                expected = outcome(reference_compare_domains, mixed, other, a, b)
                assert outcome(compare_domains, mixed, other, a, b) == expected


@DIFFERENTIAL
@given(related_games(), st.data())
def test_lifted_profiles_carry_what_validation_finds(games, data):
    """A lift hands its rows over unchecked, with the supports and units a check would find."""
    for a, b in itertools.product(games, repeat=2):
        for exact in (True, False):
            mixed = data.draw(profiles_of(a, exact))
            try:
                lifted = lift_profile(a, mixed, b)
            except ValueError:
                continue
            again = MixedProfile(lifted.weights)
            assert repr(lifted) == repr(again) and lifted == again
            assert (lifted.is_exact, lifted.support_items(), lifted._units) == (
                again.is_exact, again.support_items(), again._units
            )


@DIFFERENTIAL
@given(coalition_games(), st.booleans(), st.data())
def test_lotteries_hold_what_the_public_constructor_accepts(game, exact, data):
    """A lottery is handed over unchecked; the checked constructor takes its fields as they are."""
    mixed = data.draw(profiles_of(game, exact))
    result = EquilibriumResult(mixed, (0,) * game.n_players, 0, "test", True)
    lottery = equilibrium_partitions(game, result)
    again = EquilibriumPartitionSet(lottery.partitions, lottery.probabilities)
    assert (again.partitions, again.probabilities) == (lottery.partitions, lottery.probabilities)
    assert lottery.partitions == tuple(s for s in game.family if lottery.probability(s) > 0)


def test_nesting_lifting_and_the_scan_build_no_structure():
    """Eight players over all 4,140 structures, and the game's cap 2 restriction.

    Each player chooses between staying alone and {0,1}{2}...{7}. Players
    0 and 1 earn 2 when their pair forms and 1 otherwise, as everyone
    else does. Neither family builds its structures.
    """
    n = 8
    family = enumerate_partitions(n, n)
    alone = family.index_of(CoalitionStructure.singletons(n))
    pair = family.index_of(CoalitionStructure.of([[0, 1], *([m] for m in range(2, n))], n))
    profiles = itertools.product((0, 1), repeat=n)
    payoffs = {p: (Fraction(1 + (p[0] == p[1] == 1)),) * 2 + (Fraction(1),) * (n - 2) for p in profiles}
    game = CoalitionGame(n, n, family, ((Strategy(alone), Strategy(pair)),) * n, Mechanism(), payoffs)
    assert game.realized_index[(1, 1) + (0,) * (n - 2)] == pair
    small = game.restrict(2)
    assert small.realized_index[(1, 1) + (0,) * (n - 2)] == small.family._lookup(family, [pair])[0] >= 0
    # The pair redesires together out of every profile where it does not form.
    assert len(pure_nash_enumerate(game)) == len(pure_nash_enumerate(small)) == 2 ** (n - 2)
    assert payoff_isomorphic(game.restrict(2), small)
    result = first_pure_equilibrium(small)
    lifted = lift_profile(small, result.profile, game)
    assert compare_domains(result.profile, lifted, small, game)
    assert verify_epsilon_nash(game, lifted).passed
    assert stability_K_star([small, game], 2, result).K_star == n
    assert "structures" not in vars(family) and "structures" not in vars(small.family)


def test_rule_names_a_realized_structure_missing_from_a_hand_built_family():
    alone = CoalitionStructure.singletons(4)
    family = PartitionFamily(4, 2, (alone, CoalitionStructure.of([[0, 1], [2, 3]], 4)))
    game = CoalitionGame(4, 2, family, ((Strategy(0), Strategy(1)),) * 4, Mechanism(), {})
    with pytest.raises(ValueError) as caught:
        game.realized_index
    assert type(caught.value) is ValueError
    assert str(caught.value) == "{{0},{1},{2,3}} is not in the family (n=4, cap=2)"


@pytest.mark.parametrize(
    "value, other, dtype",
    [
        (2**63 - 1, 1, np.int64),
        (-(2**63) + 1, 1, np.int64),
        (2**63, 1, object),
        (-(2**63), 1, object),
        (Fraction(2**62, 3), 1, np.int64),
        (2**62, Fraction(1, 2), object),
    ],
)
def test_payoff_ints_dtype_boundary(value, other, dtype):
    game = table_game()
    payoffs = dict(game.payoffs)
    payoffs[(0, 0)] = (Fraction(value), Fraction(other))
    game = CoalitionGame(2, 2, game.family, game.strategy_sets, game.mechanism, payoffs)
    assert game.payoff_ints.dtype == dtype
    assert game.payoff_ints[0, 0, 0] == value * game.payoff_scale


# Fictitious play on the games of the next test, as the Fraction tensor ran it.
FLOAT_PLAY = {
    0: (
        "EquilibriumResult(profile=MixedProfile(weights=((0.4866749617994463, 0.5133250382005538), "
        "(0.6375616647142222, 0.3624383352857778))), "
        "expected_payoffs=(9.6076789363343e+16, 9.607679473779816e+16), "
        "max_regret=103520994176.0, method='iterative', is_equilibrium=False, degenerate=False, "
        "iterations=20)"
    ),
    2**63: (
        "EquilibriumResult(profile=MixedProfile(weights=((0.4866749617994463, 0.5133250382005538), "
        "(0.6375616647142222, 0.3624383352857778))), "
        "expected_payoffs=(3.170534134981602e+18, 9.607679473779816e+16), "
        "max_regret=103520993792.0, method='iterative', is_equilibrium=False, degenerate=False, "
        "iterations=20)"
    ),
}


@pytest.mark.parametrize("offset", FLOAT_PLAY)
def test_float_payoffs_round_once_from_the_exact_value(offset):
    """Payoffs past 2**53 as floats: each rounded from its exact value, never twice.

    Matching pennies, 2**40 either side of 2**58 / 3. The +31 puts each
    numerator above 2**58 where rounding it to float64 before dividing
    moves the quotient by more than half a unit in its last place.
    """
    game = table_game()
    payoffs = {}
    for k, p in enumerate(sorted(game.payoffs)):
        match = (-1) ** (p[0] + p[1]) * 2**40
        payoffs[p] = (
            Fraction(offset + 2**58 + match + 2 * k + 31, 3),
            Fraction(2**58 - match + 2 * k + 31, 3),
        )
    game = CoalitionGame(2, 2, game.family, game.strategy_sets, game.mechanism, payoffs)
    assert game.payoff_ints.dtype == (np.int64 if offset == 0 else object)
    for profile, row in payoffs.items():
        mass = MixedProfile(tuple(tuple(float(k == j) for k in range(2)) for j in profile))
        assert expected_utilities(game, mass) == tuple(float(v) for v in row)
    result = mixed_nash_iterative(game, SolverConfig(max_iterations=20, rng_seed=3))
    assert repr(result) == FLOAT_PLAY[offset]


def object_float_payoffs(game, ints):
    """Every payoff_ints entry divided by payoff_scale as Python ints, then made a float."""
    return (ints.astype(object) / game.payoff_scale).astype(float)


def reference_mixed_nash_iterative(game, config, start=None):
    """Fictitious play as one loop that rebuilds each contraction every iteration.

    Its floats come from object_float_payoffs, verification's included.
    The solver must reproduce it bit for bit: same operands, same order.
    """
    tensors = np.ascontiguousarray(np.moveaxis(object_float_payoffs(game, game.payoff_ints), -1, 0))
    dists = solver._start_distributions(game, config, start)
    n = game.n_players
    last_br = None
    stable = 0
    iterations = 0
    for t in range(config.max_iterations):
        iterations = t + 1
        values = []
        for i in range(n):
            operands = [x for j in range(n) if j != i for x in (dists[j], [j])]
            values.append(np.einsum(tensors[i], range(n), *operands, [i]))
        br = tuple(int(np.argmax(v)) for v in values)
        regret = max(float(values[i][br[i]] - values[i] @ dists[i]) for i in range(n))
        if regret <= config.tolerance:
            break
        if br == last_br:
            stable += 1
        else:
            last_br = br
            stable = 0
        if stable >= solver._LOCK_WINDOW:
            stable = 0
            if (game.best_reply_counts[br] > 0).all():
                return solver._pure_results(game, np.array([br]), ITERATIVE, iterations)[0]
        alpha = 1.0 / (t + 2)
        for i in range(n):
            dists[i] *= 1.0 - alpha
            dists[i][br[i]] += alpha
    profile = solver._float_profile(dists)
    with mock.patch.object(solver, "_float_payoffs", object_float_payoffs):
        report = verify_epsilon_nash(game, profile, config.tolerance)
    return EquilibriumResult(
        profile=profile,
        expected_payoffs=report.expected,
        max_regret=report.max_regret,
        method=ITERATIVE,
        is_equilibrium=report.passed,
        iterations=iterations,
    )


@st.composite
def exact_starts(draw, game):
    """An exact mixed profile of the game, each weight a draw over the row's total."""
    rows = []
    for strategies in game.strategy_sets:
        size = len(strategies)
        counts = draw(st.lists(st.integers(0, 4), min_size=size, max_size=size))
        counts[draw(st.integers(0, len(counts) - 1))] += 1
        rows.append(tuple(Fraction(c, sum(counts)) for c in counts))
    return MixedProfile(tuple(rows))


# Payoffs whose payoff_ints are int64 within 2**53, int64 beyond it, or object.
iterative_games = st.one_of(
    coalition_games(payoff_values=values)
    for values in (*exact_payoffs, huge_payoffs, st.integers(-(2**62), 2**62))
)


@DIFFERENTIAL
@given(
    game=iterative_games,
    rng_seed=st.one_of(st.just(0), st.integers(1, 2**32)),
    tolerance=st.sampled_from([1e-9, 1e-3, 0.05]),
    max_iterations=st.integers(1, 150),
    data=st.data(),
)
def test_fictitious_play_matches_the_reference_bit_for_bit(
    game, rng_seed, tolerance, max_iterations, data
):
    config = SolverConfig(tolerance=tolerance, max_iterations=max_iterations, rng_seed=rng_seed)
    start = data.draw(st.none() | exact_starts(game))
    expected = reference_mixed_nash_iterative(game, config, start)
    assert repr(mixed_nash_iterative(game, config, start)) == repr(expected)


@pytest.mark.parametrize("scale", [1, 3, 2**53, 2**53 + 1])
@pytest.mark.parametrize(
    "entries, dtype",
    [
        ([2**53, -(2**53), 1, -7], np.int64),
        ([2**53 + 1, 1, 3], np.int64),
        ([-(2**53) - 1, 1, 3], np.int64),
        ([-(2**63), 1, 3], np.int64),
        ([2**63 - 1, 1, 3], np.int64),
        ([2**63, 2**70 + 1, -(2**64), 1, 3], object),
    ],
)
def test_float_payoffs_match_python_int_division(entries, dtype, scale):
    """The one float division holds only where it rounds as int / int does."""
    ints = np.array(entries, dtype=dtype)
    game = SimpleNamespace(payoff_scale=scale)
    expected = object_float_payoffs(game, ints).tobytes()
    assert solver._float_payoffs(game, ints).tobytes() == expected


# Seeded float profiles of four games: per game a seed and a builder.
FLOAT_GAMES = {
    "bos": (1, lambda: catalog_game("bos")),
    "pd-mixed": (2, lambda: catalog_game("pd-mixed")),
    "square": (3, lambda: square_game(3, 3)),
    "lunch-2": (4, lambda: restricted("lunch", 2)),
}

# Per (game, sparse): each realized structure's family index, in family
# order, with float.hex of its mass and of its payoffs by structure.
FLOAT_LOTTERIES = {
    ("bos", False): {
        0: ("0x1.3ae4b53e0dd30p-2", "0x1.203e62659a061p-2", "0x1.c13e19ab58c7cp-3"),
        1: ("0x1.628da560f9169p-1", "0x1.de4ecf8e05bd3p-2", "0x1.32e6ec123e396p-1"),
    },
    ("bos", True): {
        0: ("0x1.0a77c50e72b8ep-3", "0x1.251d58c317cb6p-3", "0x1.17ca8ee8c5422p-2"),
        1: ("0x1.bd620ebc6351dp-1", "0x1.bd620ebc6351dp-1", "0x1.bd620ebc6351dp+0"),
    },
    ("pd-mixed", False): {
        0: ("0x1.b28cd8b259734p-6", "0x1.0a1fd9f5db503p-5", "-0x1.4ccb1f46a902ap-4"),
        1: ("0x1.f26b993a6d346p-1", "-0x1.13f978189e738p-1", "-0x1.40bdb89517bdbp-2"),
    },
    ("pd-mixed", True): {
        0: ("0x1.b5abd92834fdcp-7", "0x1.b5abd92834fdcp-7", "0x0.0p+0"),
        1: ("0x1.f929509b5f2c0p-1", "0x1.6a6102e1dd665p+1", "-0x1.f929509b5f2c0p+1"),
    },
    ("square", False): {
        0: ("0x1.8a78efa88d941p-4", "0x1.27dab3be6a2f1p-1", "0x1.bbc80d9d9f469p-1"),
        1: ("0x1.ceb0e20aee4d8p-1", "0x1.593e3bb01ba2dp-1", "0x1.db315df9d6c63p-2"),
    },
    ("square", True): {
        1: ("0x1.0000000000000p+0", "-0x1.5b587f1411edep+1", "0x1.c91c797cf49a0p+1"),
    },
    ("lunch-2", False): {
        0: (
            "0x1.ce743a3b18032p-12",
            "0x1.5ad72bac52027p-10", "0x1.5ad72bac52027p-10", "0x1.5ad72bac52027p-10", "0x1.5ad72bac52027p-10",
        ),
        1: (
            "0x1.baf89c3b1fed1p-7",
            "0x1.14db61a4f3f40p-3", "0x1.14db61a4f3f40p-3", "0x1.4c3a752c57f21p-5", "0x1.4c3a752c57f21p-5",
        ),
        2: (
            "0x1.e8bfec27fbfe9p-10",
            "0x1.6e8ff11dfcff0p-8", "0x1.6e8ff11dfcff0p-8", "0x1.6e8ff11dfcff0p-8", "0x1.6e8ff11dfcff0p-8",
        ),
        3: (
            "0x1.33ffd24f7e618p-5",
            "0x1.80ffc6e35df91p-2", "0x1.cdffbb773d920p-4", "0x1.80ffc6e35df91p-2", "0x1.cdffbb773d920p-4",
        ),
        4: (
            "0x1.2bd25282489fcp-9",
            "0x1.c1bb7bc36cefbp-8", "0x1.c1bb7bc36cefbp-8", "0x1.c1bb7bc36cefbp-8", "0x1.c1bb7bc36cefbp-8",
        ),
        5: (
            "0x1.4259b7188b201p-5",
            "0x1.e38692a4d0afep-4", "0x1.92f024deade78p-2", "0x1.92f024deade78p-2", "0x1.e38692a4d0afep-4",
        ),
        6: (
            "0x1.af50b5c52f1d3p-5",
            "0x1.0d92719b3d721p-1", "0x1.437c8853e355cp-3", "0x1.437c8853e355cp-3", "0x1.0d92719b3d721p-1",
        ),
        7: (
            "0x1.73c49837ec861p-5",
            "0x1.16d37229f1647p-3", "0x1.d0b5be45e7a78p-2", "0x1.16d37229f1647p-3", "0x1.d0b5be45e7a78p-2",
        ),
        8: (
            "0x1.fe67d825e9d89p-6",
            "0x1.7ecde21c6f624p-4", "0x1.7ecde21c6f624p-4", "0x1.3f00e717b2279p-2", "0x1.3f00e717b2279p-2",
        ),
        9: (
            "0x1.8d2ff087b4354p-1",
            "0x1.29e3f465c7289p+1", "0x1.29e3f465c7289p+1", "0x1.29e3f465c7289p+1", "0x1.29e3f465c7289p+1",
        ),
    },
    ("lunch-2", True): {
        0: (
            "0x1.d86ee1b808c58p-12",
            "0x1.6253294a06942p-10", "0x1.6253294a06942p-10", "0x1.6253294a06942p-10", "0x1.6253294a06942p-10",
        ),
        1: (
            "0x1.d35564aa977f0p-8",
            "0x1.24155eea9eaf5p-4", "0x1.24155eea9eaf5p-4", "0x1.5e800b7ff19f4p-6", "0x1.5e800b7ff19f4p-6",
        ),
        5: (
            "0x1.c597c589a2f7fp-5",
            "0x1.5431d4273a39fp-3", "0x1.1b7edb7605dafp-1", "0x1.1b7edb7605dafp-1", "0x1.5431d4273a39fp-3",
        ),
        7: (
            "0x1.b4793be299795p-5",
            "0x1.475aece9f31afp-3", "0x1.10cbc56d9febep-1", "0x1.475aece9f31afp-3", "0x1.10cbc56d9febep-1",
        ),
        8: (
            "0x1.e3232646df40ap-5",
            "0x1.6a5a5cb527708p-3", "0x1.6a5a5cb527708p-3", "0x1.2df5f7ec4b886p-1", "0x1.2df5f7ec4b886p-1",
        ),
        9: (
            "0x1.a64b04df42153p-1",
            "0x1.3cb843a7718fdp+1", "0x1.3cb843a7718fdp+1", "0x1.3cb843a7718fdp+1", "0x1.3cb843a7718fdp+1",
        ),
    },
}


def float_profile(game, seed, sparse):
    """A seeded float profile; a sparse one keeps half of each row, rounded up."""
    rng = random.Random(seed)
    rows = []
    for strategies in game.strategy_sets:
        raw = [rng.random() for _ in strategies]
        if sparse:
            kept = rng.sample(range(len(raw)), (len(raw) + 1) // 2)
            raw = [w if k in kept else 0.0 for k, w in enumerate(raw)]
        total = sum(raw)
        rows.append(tuple(w / total for w in raw))
    return MixedProfile(tuple(rows))


@pytest.mark.parametrize("name, sparse", list(FLOAT_LOTTERIES))
def test_float_lotteries_keep_their_bits(name, sparse):
    """Float masses and payoffs by structure: their values, type and order, to the bit."""
    seed, build = FLOAT_GAMES[name]
    game = build()
    mixed = float_profile(game, seed, sparse)
    lottery = equilibrium_partitions(game, EquilibriumResult(mixed, (), 0.0, "given", True))
    by_structure = expected_utility_by_structure(game, mixed)
    assert list(lottery.probabilities) == list(by_structure)
    rows = [(lottery.probabilities[s], *by_structure[s]) for s in by_structure]
    assert all(type(v) is float for row in rows for v in row)
    got = [(game.family.index_of(s), tuple(v.hex() for v in row)) for s, row in zip(by_structure, rows)]
    assert got == list(FLOAT_LOTTERIES[name, sparse].items())


@pytest.mark.parametrize(
    "dropped, full_scale, full_dtype",
    [(Fraction(1, 2), 2, np.int64), (Fraction(2**63), 1, object)],
    ids=["half", "huge"],
)
def test_payoff_isomorphic_compares_scales(dropped, full_scale, full_dtype):
    base = table_game()
    whole, halves = (
        CoalitionGame(
            2, 2, base.family, base.strategy_sets, base.mechanism, dict.fromkeys(base.payoffs, row)
        )
        for row in ((Fraction(1), Fraction(2)), (Fraction(1, 2), Fraction(1)))
    )
    assert np.array_equal(whole.payoff_ints, halves.payoff_ints)
    assert (whole.payoff_scale, halves.payoff_scale) == (1, 2)
    assert not payoff_isomorphic(whole, halves)
    # Every dropped payoff, with a denominator or at 2**63, needs a player
    # desiring the pair; restricting it away leaves int64 at scale 1.
    family = enumerate_partitions(2, 2)
    pair = family.index_of(CoalitionStructure.of([[0, 1]], 2))
    alone = family.index_of(CoalitionStructure.singletons(2))
    sets = ((Strategy(alone, "x"), Strategy(alone, "y"), Strategy(pair, "x")),) * 2
    payoffs = {
        p: (Fraction(p[0] + 1), Fraction(p[1] + 2)) if max(p) < 2 else (dropped, Fraction(p[0]))
        for p in itertools.product(range(3), repeat=2)
    }
    full = CoalitionGame(2, 2, family, sets, Mechanism(), payoffs)
    kept = {p: row for p, row in payoffs.items() if max(p) < 2}
    sets = ((Strategy(0, "x"), Strategy(0, "y")),) * 2
    direct = CoalitionGame(2, 1, enumerate_partitions(2, 1), sets, Mechanism(), kept)
    small = full.restrict(1)
    assert (full.payoff_scale, small.payoff_scale, direct.payoff_scale) == (full_scale, 1, 1)
    assert (full.payoff_ints.dtype, small.payoff_ints.dtype) == (full_dtype, np.int64)
    assert payoff_isomorphic(small, direct)


def test_restricted_payoffs_read_as_a_read_only_mapping():
    game = catalog_game("pd-extended")
    small = game.restrict(1)
    view = small.payoffs
    # Plain numpy indexing would wrap the negative index.
    assert [view.get(p) for p in [(-1, 0), (0, 2), (0,), (0, 0, 0)]] == [None] * 4
    assert (-1, 0) not in view and (1, 1) in view
    assert list(view) == list(small.profiles()) and len(view) == small.n_profiles == 4
    assert [view[p] for p in view] == [small.payoff(p) for p in small.profiles()]
    assert all(type(v) is Fraction for p in view for v in view[p])
    with pytest.raises(TypeError):
        view[(0, 0)] = (Fraction(0), Fraction(0))
    with pytest.raises(ValidationError, match="shape"):
        CoalitionGame(2, 2, game.family, game.strategy_sets, game.mechanism, view)


def table_copy(game):
    """The game with its mechanism written out as a profile-keyed table."""
    table = {p: game.realized_partition(p) for p in game.profiles()}
    return CoalitionGame(
        game.n_players, game.max_coalition, game.family, game.strategy_sets,
        Mechanism(TABLE, table), game.payoffs,
    )


def test_restricted_table_reads_as_a_read_only_mapping():
    game = table_copy(catalog_game("pd-extended"))
    small = game.restrict(1)
    view = small.mechanism.table
    assert [view.get(p) for p in [(-1, 0), (0, 2), (0,), (0, 0, 0)]] == [None] * 4
    assert (-1, 0) not in view and (1, 1) in view
    assert list(view) == list(small.profiles()) and len(view) == small.n_profiles == 4
    assert [view[p] for p in view] == [restricted("pd-extended", 1).realized_partition(p) for p in view]
    assert all(type(view[p]) is CoalitionStructure for p in view)
    with pytest.raises(TypeError):
        view[(0, 0)] = small.family[0]
    # A view must fit both the shape and the family of the game.
    with pytest.raises(ValidationError, match="does not fit"):
        CoalitionGame(2, 2, game.family, game.strategy_sets, Mechanism(TABLE, view), game.payoffs)
    pairs = (game.strategy_sets[0][:2],) * 2
    with pytest.raises(ValidationError, match="does not fit"):
        CoalitionGame(2, 2, game.family, pairs, Mechanism(TABLE, view), small.payoffs)


def test_restricted_and_loaded_tables_adopt_their_index(tmp_path):
    game = table_copy(restricted("lunch", 3))
    small = game.restrict(2)
    assert "realized_index" in vars(small) and "_tensor" in vars(small)
    path = tmp_path / "lunch-table.json"
    save_game(small, path)
    loaded, _ = load_game(path)
    assert "realized_index" in vars(loaded) and "_tensor" in vars(loaded)
    expected = restricted("lunch", 2)
    for adopted in (small, loaded):
        assert dict(adopted.mechanism.table) == {
            p: expected.realized_partition(p) for p in expected.profiles()
        }
        assert payoff_isomorphic(adopted, expected)


def mapping_filled_lunch():
    """The lunch builder that fills a payoff mapping after constructing the game."""
    n = 4
    family = enumerate_partitions(n, n)
    strategies = tuple(Strategy(k) for k in range(len(family)))
    payoffs = {}
    game = CoalitionGame(n, n, family, (strategies,) * n, payoffs=payoffs)
    by_structure = [_lunch_payoffs(s) for s in family]
    payoffs.update(
        zip(game.profiles(), (by_structure[s] for s in game.realized_index.ravel().tolist()))
    )
    return game


def test_builders_hand_over_the_tensor():
    built, reference = catalog_game("lunch"), mapping_filled_lunch()
    assert (built.payoff_scale, built.payoff_ints.dtype) == (reference.payoff_scale, reference.payoff_ints.dtype)
    assert np.array_equal(built.payoff_ints, reference.payoff_ints)
    assert np.array_equal(built.realized_index, reference.realized_index)
    for game_id in CATALOG:
        game = catalog_game(game_id)
        assert type(game.payoffs) is not dict and "_tensor" in vars(game)


@pytest.mark.parametrize("bad", [0.5, 2.0, np.float64(1), "1"])
def test_inexact_payoff_is_rejected_naming_the_profile(bad):
    game = table_game()
    payoffs = dict(game.payoffs)
    payoffs[(1, 0)] = (Fraction(1), bad)
    game = CoalitionGame(2, 2, game.family, game.strategy_sets, game.mechanism, payoffs)
    with pytest.raises(ValidationError, match=r"\(1, 0\)"):
        pure_nash_enumerate(game)


@pytest.mark.parametrize(
    "weights, message",
    [
        (((0.0, 0.0),), "player 0 weights sum to 0.0, expected 1"),
        (((Fraction(0), Fraction(0)),), "player 0 weights sum to 0, expected 1"),
        (((Fraction(1),), (Fraction(0), Fraction(1, 2))), "player 1 weights sum to 1/2, expected 1"),
        (((Fraction(3, 2), Fraction(0), Fraction(-1, 2)),), "player 0 has a negative weight"),
        (((1.5, 0.0, -0.5),), "player 0 has a negative weight"),
        (((0.25, 0.0, 0.5),), "player 0 weights sum to 0.75, expected 1"),
        (((float("nan"), 1.0),), "player 0 weights sum to nan, expected 1"),
        (((1.0,), (0.5, float("nan"))), "player 1 weights sum to nan, expected 1"),
    ],
)
def test_mixed_profile_messages(weights, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        MixedProfile(weights)


@pytest.mark.parametrize("masses", [(float("nan"),), (float("nan"), 1.0), (0.5, float("nan"))])
def test_lottery_rejects_a_nan_probability(masses):
    structures = enumerate_partitions(2, 2).structures[: len(masses)]
    with pytest.raises(ValueError, match="^probabilities sum to nan, expected 1$"):
        EquilibriumPartitionSet(structures, dict(zip(structures, masses)))


@pytest.mark.parametrize("value", [Fraction(-7, 3), Fraction(4), 5, -2, 0.1, 2.0, True])
def test_format_rational_text(value):
    assert format_rational(value) == str(Fraction(value))


def test_package_runs_as_a_module():
    proc = subprocess.run(
        [sys.executable, "-m", "coalition_forge", "enumerate", "-n", "4", "--count-only"],
        capture_output=True,
        text=True,
    )
    assert (proc.returncode, proc.stdout) == (0, "15\n")


# -- profile arguments ----------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [(-1, 0), (0, -1), (4, 0), (0, 4), (0,), (0, 0, 0), (1.0, 0), (True, 0), (np.float64(0), 0), ("0", 0)],
)
def test_profile_entry_points_reject_bad_indices(bad):
    g = catalog_game("pd-extended")
    calls = (
        g.payoff,
        g.realized_partition,
        lambda p: g.coalition_value(p, Coalition.of(0)),
        lambda p: point_mass(g, p),
        lambda p: is_pure_equilibrium(g, p),
    )
    for call in calls:
        with pytest.raises(ValueError, match="out of range|entries"):
            call(bad)


def test_numpy_integer_indices_are_read_as_ints():
    g = catalog_game("pd-extended")
    profile, plain = (np.int64(1), 0), (1, 0)
    assert g.payoff(profile) == g.payoff(plain)
    assert g.realized_partition(profile) == g.realized_partition(plain)
    assert g.coalition_value(profile, Coalition.of(np.int64(0))) == g.coalition_value(plain, Coalition.of(0))
    assert is_pure_equilibrium(g, profile) == is_pure_equilibrium(g, plain)
    mass = point_mass(g, profile)
    assert mass == point_mass(g, plain)
    assert all(type(k) is int for i in range(2) for k in mass.support(i))
    assert g.payoffs[profile] == g.payoffs[plain] and g.payoffs.get(profile) == g.payoffs[plain]
    for player in (np.int64(1), np.int32(1)):
        assert expected_utility(g, mass, player) == expected_utility(g, mass, 1)
        assert best_response_value(g, mass, player) == best_response_value(g, mass, 1)
        assert g.realized_partition(plain).block_of(player) == g.realized_partition(plain).block_of(1)
    assert all(type(v) is Fraction for v in (expected_utility(g, mass, np.int64(0)), *g.payoff(profile)))
    members = Coalition.of(np.int64(1), np.int32(0)).members
    assert members == (0, 1) and all(type(m) is int for m in members)


def view_games():
    """A restricted game whose payoffs and table are both views of its arrays."""
    return table_copy(catalog_game("pd-extended")).restrict(1)


KEY_ENTRIES = st.one_of(
    st.integers(-2, 3),
    st.integers(-2, 3).map(np.int64),
    st.integers(0, 2).map(np.int8),
    st.sampled_from([0.0, 1.0, 0.5, np.float64(1), float("nan")]),
    st.booleans(),
)
VIEW_KEYS = st.one_of(
    st.tuples(KEY_ENTRIES, KEY_ENTRIES),
    st.lists(KEY_ENTRIES, max_size=4).map(tuple),
    st.lists(KEY_ENTRIES, max_size=3),
    KEY_ENTRIES,
    st.sampled_from([None, "00", "01", b"\x00\x00", frozenset({0, 1}), np.zeros(2, dtype=int)]),
)


def is_integer_key(key) -> bool:
    return isinstance(key, tuple) and all(
        isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in key
    )


@DIFFERENTIAL
@given(st.lists(VIEW_KEYS, min_size=1, max_size=8))
def test_views_read_keys_as_their_dicts_do(keys):
    small = view_games()
    for view in (small.payoffs, small.mechanism.table):
        plain = dict(view)
        for key in keys:
            present = is_integer_key(key) and key in plain
            assert (key in view) is present
            assert view.get(key) == (plain[key] if present else None)
            if present:
                assert view[key] == plain[key]
            else:
                with pytest.raises(KeyError):
                    view[key]


def test_returned_profiles_hold_python_ints():
    full = catalog_game("stag-hare")
    family = [full.restrict(1), full]
    report = stability_K_star(family, 1, first_pure_equilibrium(family[0]))
    profiles = [d.profile for d in report.diagnostics] + [
        profile for _, domain in full.validate_domains() for profile in domain
    ]
    snapped = mixed_nash_iterative(catalog_game("pd-extended"))
    assert snapped.profile.is_exact
    assert profiles and all(type(k) is int for p in profiles for k in p)
    for result in pure_nash_enumerate(full) + (snapped,):
        for row in result.profile.weights:
            assert all(type(w) is Fraction for w in row)
        assert all(type(v) is Fraction for v in result.expected_payoffs)


def test_is_exact_is_computed_once_and_stays_out_of_equality():
    weights = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(0), Fraction(1)))
    mixed = MixedProfile(weights)
    support = (((0, Fraction(1, 2)), (1, Fraction(1, 2))), ((1, Fraction(1)),))
    assert vars(mixed)["is_exact"] is True
    assert vars(mixed)["_support_items"] == support
    assert mixed == MixedProfile(weights) and hash(mixed) == hash(MixedProfile(weights))
    assert repr(mixed) == f"MixedProfile(weights={weights!r})"
    floats = dataclasses.replace(mixed, weights=((0.5, 0.5), (1.0, 0.0)))
    assert vars(floats)["is_exact"] is False and floats.mode == "float"
    assert vars(floats)["_support_items"] == (((0, 0.5), (1, 0.5)), ((0, 1.0),))


# -- game file keys ---------------------------------------------------------------


def table_game():
    family = enumerate_partitions(2, 2)
    sets = ((Strategy(0, "x"), Strategy(1, "y")),) * 2
    profiles = list(itertools.product(range(2), range(2)))
    table = {p: family[int(p == (0, 0))] for p in profiles}
    payoffs = {p: (Fraction(p[0]), Fraction(p[1])) for p in profiles}
    return CoalitionGame(2, 2, family, sets, Mechanism(TABLE, table), payoffs)


@pytest.mark.parametrize("key", ["00,1", " 1,+0", "0, 1", "+1,1", "0,0_0"])
def test_noncanonical_payoff_keys_are_rejected(key):
    document = game_to_dict(catalog_game("pd-standard"), ("1", "2"))
    document["payoffs"][key] = ["7", "7"]
    with pytest.raises(GameFileError, match="not canonical"):
        game_from_dict(document)


def test_noncanonical_table_key_is_rejected():
    document = game_to_dict(table_game())
    assert game_from_dict(copy.deepcopy(document))[0].realized_partition((0, 1))
    table = document["mechanism"]["table"]
    table["0,01"] = table.pop("0,1")
    with pytest.raises(GameFileError, match="not canonical"):
        game_from_dict(document)


def test_repeated_bad_rational_fails_at_its_first_position():
    document = game_to_dict(table_game())
    document["payoffs"]["0,1"][1] = "1/0"
    document["payoffs"]["1,0"][0] = "1/0"
    with pytest.raises(GameFileError) as caught:
        game_from_dict(document)
    assert str(caught.value) == "payoffs['0,1'][1] is not a rational: '1/0'"


@pytest.mark.parametrize("one", ["1", 1])
def test_boolean_after_the_same_number_is_rejected(one):
    document = game_to_dict(table_game())
    document["payoffs"]["0,1"] = [one, "1"]
    document["payoffs"]["1,0"] = [True, "1"]
    with pytest.raises(GameFileError) as caught:
        game_from_dict(document)
    assert str(caught.value) == "payoffs['1,0'][0] must be a rational, got True"


@pytest.mark.parametrize(
    "key, message",
    [
        ("00,1", "payoffs key '00,1' is not canonical, expected '0,1'"),
        ("0,2", "payoffs key '0,2': index 2 out of range for player 1"),
        ("0,x", "payoffs key '0,x' has a non-integer index"),
        ("0,1,0", "payoffs key '0,1,0' must have 2 indices"),
    ],
)
def test_bad_key_after_canonical_ones_keeps_its_message(key, message):
    document = game_to_dict(table_game())
    document["payoffs"][key] = ["7", "7"]
    with pytest.raises(GameFileError) as caught:
        game_from_dict(document)
    assert str(caught.value) == message
    table = document["mechanism"]["table"]
    table[key] = table["0,0"]
    with pytest.raises(GameFileError) as caught:
        game_from_dict(document)
    assert str(caught.value) == message.replace("payoffs", "mechanism.table")


def test_noncanonical_key_exits_with_usage_code(tmp_path):
    document = game_to_dict(catalog_game("pd-standard"), ("1", "2"))
    document["payoffs"]["00,1"] = ["7", "7"]
    path = tmp_path / "shadowed.json"
    path.write_text(dumps(document) + "\n")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["solve", str(path)])
    assert code == 2
    assert "not canonical" in err.getvalue()


def mapping_game_to_dict(game, names=None):
    """game_to_dict as written before it read the tensors.

    It reads the payoffs mapping, one format_rational per payoff, and
    writes the mechanism table as stored, entry by entry.
    """
    names = tuple(names) if names is not None else tuple(str(i + 1) for i in range(game.n_players))

    def literal(structure):
        return [[names[i] for i in block] for block in structure.blocks]

    def key(profile):
        return ",".join(str(i) for i in profile)

    strategies = [
        [
            {
                "partition": literal(game.family[s.desired_partition]),
                **({"action": s.action} if s.action else {}),
            }
            for s in player_set
        ]
        for player_set in game.strategy_sets
    ]
    mechanism = "unanimity"
    if game.mechanism.kind == TABLE:
        mechanism = {"table": {key(p): literal(s) for p, s in sorted(game.mechanism.table.items())}}
    return {
        "schema_version": 1,
        "players": list(names),
        "K": game.max_coalition,
        "strategies": strategies,
        "mechanism": mechanism,
        "payoffs": {key(p): [format_rational(v) for v in game.payoffs[p]] for p in game.profiles()},
    }


@st.composite
def games_with_payoff_types(draw):
    """An exact game whose payoffs are, each at random, Fraction, int, np.int64 or bool.

    Only whole payoffs change type: np.int64 where they fit and bool for
    0 and 1.
    """
    game = draw(exact_games)
    rng = random.Random(draw(st.integers(0, 2**32)))

    def recast(value):
        kinds = [Fraction]
        if value.denominator == 1:
            kinds += [int, np.int64] if abs(value) < 2**63 else [int]
            kinds += [bool] if value in (0, 1) else []
        kind = rng.choice(kinds)
        return value if kind is Fraction else kind(int(value))

    payoffs = {p: tuple(map(recast, row)) for p, row in game.payoffs.items()}
    return CoalitionGame(
        game.n_players, game.max_coalition, game.family, game.strategy_sets, game.mechanism, payoffs
    )


@DIFFERENTIAL
@given(games_with_payoff_types(), st.booleans())
def test_game_to_dict_matches_the_mapping_writer(game, named):
    names = tuple("PQRS"[: game.n_players]) if named else None
    game.validate_domains()
    document = game_to_dict(game, names)
    expected = mapping_game_to_dict(game, names)
    assert document == expected
    assert dumps(document) == dumps(expected)


def test_table_entry_outside_the_profile_space_is_not_written(tmp_path):
    base = catalog_game("pd-mixed")
    table = {p: base.realized_partition(p) for p in base.profiles()}
    # A table may hold more than the profile space; the game still validates.
    game = CoalitionGame(
        2, 2, base.family, base.strategy_sets,
        Mechanism(TABLE, {**table, (9, 9): base.family[0]}), dict(base.payoffs),
    )
    game.validate_domains()
    path = tmp_path / "pd-mixed-table.json"
    save_game(game, path, ("1", "2"))
    back, names = load_game(path)
    assert names == ("1", "2")
    # The file is read straight into the tensor, which the game adopts.
    assert type(back.payoffs) is not dict
    assert "_tensor" in vars(back)
    assert dict(back.payoffs) == dict(game.payoffs)
    assert payoff_isomorphic(back, game)
    assert back.mechanism.table == table


def test_game_to_dict_names_a_missing_payoff():
    game = table_game()
    payoffs = dict(game.payoffs)
    del payoffs[(1, 0)]
    broken = CoalitionGame(2, 2, game.family, game.strategy_sets, game.mechanism, payoffs)
    with pytest.raises(ValidationError, match=r"^payoff table has no entry for profile \(1, 0\)$"):
        game_to_dict(broken)


@pytest.mark.parametrize(
    "faults, message",
    [
        ({(1, 0): None}, "payoff table has no entry for profile (1, 0)"),
        ({(1, 0): (Fraction(1),)}, "payoff entry for (1, 0) has the wrong arity"),
        ({(1, 0): (0.5, 1)}, "payoff entry for (1, 0) holds 0.5, not an exact rational"),
        ({(1, 1): None, (1, 0): (1, 2, 3)}, "payoff entry for (1, 0) has the wrong arity"),
        # Every row is checked for presence and arity before any value is read.
        ({(0, 1): (1, "1"), (1, 0): None}, "payoff table has no entry for profile (1, 0)"),
    ],
)
def test_mapping_faults_name_the_first_faulty_profile(faults, message):
    game = table_game()
    payoffs = dict(game.payoffs)
    for profile, row in faults.items():
        if row is None:
            del payoffs[profile]
        else:
            payoffs[profile] = row
    broken = CoalitionGame(2, 2, game.family, game.strategy_sets, game.mechanism, payoffs)
    with pytest.raises(ValidationError) as caught:
        broken.payoff_ints
    assert str(caught.value) == message


def drop_payoff(document):
    del document["payoffs"]["1,0"]


def drop_table_entry(document):
    del document["mechanism"]["table"]["1,0"]


def pair_above_the_cap(document):
    document["K"] = 1
    for player in document["strategies"]:
        for strategy in player:
            strategy["partition"] = [["1"], ["2"]]
    table = document["mechanism"]["table"]
    for key in table:
        table[key] = [["1"], ["2"]]
    table["0,1"] = [["1", "2"]]


@pytest.mark.parametrize(
    "fault, message",
    [
        (drop_payoff, "payoff table has no entry for profile (1, 0)"),
        (drop_table_entry, "mechanism table has no entry for profile (1, 0)"),
        (pair_above_the_cap, "profile (0, 1) realizes {{0,1}}, outside the family cap 1"),
    ],
)
def test_load_faults_keep_their_message_and_exit_code(tmp_path, fault, message):
    document = game_to_dict(table_game())
    fault(document)
    with pytest.raises(ValidationError) as caught:
        game_from_dict(copy.deepcopy(document))
    assert str(caught.value) == message
    path = tmp_path / "broken.json"
    path.write_text(dumps(document) + "\n")
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["solve", str(path)])
    assert (code, err.getvalue()) == (3, f"coalition-forge: invalid game: {message}\n")


def test_integer_and_string_payoffs_load_alike():
    document = game_to_dict(table_game())
    numbers = copy.deepcopy(document)
    numbers["payoffs"] = {key: [int(v) for v in row] for key, row in document["payoffs"].items()}
    numbers["payoffs"]["1,1"][0] = "1"
    game, _ = game_from_dict(document)
    assert payoff_isomorphic(game_from_dict(numbers)[0], game)


# -- exact readers in integer units ------------------------------------------------


@st.composite
def wide_unit_profiles(draw):
    """An exact-payoff game and an exact profile whose units stretch past int64.

    Each row is drawn integers over their sum. In a wide row some of
    them sit beyond 2**63, so its D and the product of the others' D pass
    2**63 and its numerators can too. Whole weights, 0 and 1, are
    written as int or Fraction at random.
    """
    game = draw(exact_games)
    rows = []
    for strategies in game.strategy_sets:
        size = len(strategies)
        offsets = draw(st.sampled_from([(0,), (0, 2**62 + 1, 2**64 + 3, 3**41)]))
        raw = draw(
            st.lists(
                st.builds(lambda w, o: w + o, st.integers(0, 3), st.sampled_from(offsets)),
                min_size=size,
                max_size=size,
            ).filter(any)
        )
        row = []
        for w in raw:
            weight = Fraction(w, sum(raw))
            if weight.denominator == 1 and draw(st.booleans()):
                weight = int(weight)
            row.append(weight)
        rows.append(tuple(row))
    return game, MixedProfile(tuple(rows))


@DIFFERENTIAL
@given(wide_unit_profiles())
def test_exact_readers_match_the_fraction_contraction(case):
    game, mixed = case
    report = reference_verify(game, mixed)
    assert verify_epsilon_nash(game, mixed) == report
    assert expected_utilities(game, mixed) == report.expected
    players = range(game.n_players)
    assert tuple(expected_utility(game, mixed, i) for i in players) == report.expected
    assert tuple(best_response_value(game, mixed, i) for i in players) == report.best_response
    by_structure = expected_utility_by_structure(game, mixed)
    assert by_structure == reference_by_structure(game, mixed)
    result = EquilibriumResult(mixed, report.expected, 0, "given", True)
    lottery = equilibrium_partitions(game, result)
    assert lottery.probabilities == reference_masses(game, mixed)
    values = [*report.expected, *report.best_response, *report.regrets, report.max_regret]
    values += [*lottery.probabilities.values(), *itertools.chain(*by_structure.values())]
    assert all(type(v) is Fraction for v in values)


@st.composite
def float_profiles(draw):
    """A game and a float profile of it, sometimes with one numpy float or one Fraction weight.

    The Fraction is the float weight's own ratio, a small integer over
    the row's sum, so the row still sums to one within the float slack.
    """
    game = draw(exact_games)
    rows = [list(row) for row in draw(profiles_of(game, False)).weights]
    i = draw(st.integers(0, game.n_players - 1))
    k = draw(st.integers(0, len(rows[i]) - 1))
    kind = draw(st.sampled_from(["float", "numpy", "fraction"]))
    if kind == "numpy":
        rows[i][k] = np.float64(rows[i][k])
    elif kind == "fraction":
        rows[i][k] = Fraction(rows[i][k]).limit_denominator(100)
    return game, MixedProfile(tuple(map(tuple, rows)))


def float_bits(values):
    return [float(v).hex() for v in values]


@DIFFERENTIAL
@given(float_profiles())
def test_float_readers_match_the_reference(case):
    """Float readers against the reference, bit for bit and as Python floats.

    The reference keeps numpy types where a weight is one, so both
    sides are compared through float().
    """
    game, mixed = case
    report = reference_verify(game, mixed)
    got = verify_epsilon_nash(game, mixed)
    fields = ("expected", "best_response", "regrets")
    assert [float_bits(getattr(got, f)) for f in fields] == [float_bits(getattr(report, f)) for f in fields]
    assert float_bits([got.max_regret]) == float_bits([report.max_regret])
    assert got.passed is bool(report.passed)
    players = range(game.n_players)
    assert float_bits(expected_utilities(game, mixed)) == float_bits(report.expected)
    assert float_bits(expected_utility(game, mixed, i) for i in players) == float_bits(report.expected)
    best = [best_response_value(game, mixed, i) for i in players]
    assert float_bits(best) == float_bits(report.best_response)
    by_structure = expected_utility_by_structure(game, mixed)
    reference = reference_by_structure(game, mixed)
    assert list(by_structure) == list(reference)
    assert [float_bits(v) for v in by_structure.values()] == [float_bits(v) for v in reference.values()]
    result = EquilibriumResult(mixed, got.expected, 0.0, "given", True)
    masses = equilibrium_partitions(game, result).probabilities
    reference = reference_masses(game, mixed)
    assert list(masses) == list(reference)
    assert float_bits(masses.values()) == float_bits(reference.values())
    values = [*got.expected, *got.best_response, *got.regrets, got.max_regret, *best]
    values += [*masses.values(), *itertools.chain(*by_structure.values())]
    assert all(type(v) is float for v in values)


@DIFFERENTIAL
@given(coalition_games(alone=True, payoff_values=exact_payoffs[1]), st.data())
def test_stability_scan_matches_the_fraction_contraction(game, data):
    """The scan with the integer readers against the same scan on the reference verification."""
    games = [game.restrict(K) for K in range(1, game.max_coalition + 1)]
    K0 = data.draw(st.integers(1, game.max_coalition))
    base = games[K0 - 1]
    profiles = [r.profile for r in pure_nash_enumerate(base)[:2]]
    if base.n_players == 2:
        profiles += [r.profile for r in mixed_nash_2p_support_enum(base).equilibria[:2]]
    profiles.append(data.draw(profiles_of(base, True)))
    for mixed in profiles:
        result = EquilibriumResult(mixed, (), 0, "given", True)
        got = outcome(stability_K_star, games, K0, result)
        with mock.patch("coalition_forge.analysis.verify_epsilon_nash", reference_verify):
            assert got == outcome(stability_K_star, games, K0, result)


@pytest.mark.parametrize("product, dtype", [(2**63 - 1, np.int64), (2**63, object)])
def test_exact_contraction_dtype_boundary(product, dtype, monkeypatch):
    """int64 while the largest payoff magnitude times the others' D lies below 2**63.

    2**63 - 1 is 7 times an integer. Every payoff is that peak or its
    negative, so player 0's sum of numerators times the peak is the
    product itself, which int64 would wrap at 2**63.
    """
    denominator = 7 if product % 7 == 0 else 2
    peak = product // denominator
    game = table_game()
    payoffs = dict.fromkeys(game.payoffs, (Fraction(peak), Fraction(-peak)))
    game = CoalitionGame(2, 2, game.family, game.strategy_sets, game.mechanism, payoffs)
    assert game.payoff_ints.dtype == np.int64
    row = (Fraction(1, denominator), Fraction(denominator - 1, denominator))
    mixed = MixedProfile((row, row))
    contract, dtypes = solver._contract, []

    def spy(tensor, weights, player):
        dtypes.append(tensor.dtype)
        return contract(tensor, weights, player)

    monkeypatch.setattr(solver, "_contract", spy)
    report = verify_epsilon_nash(game, mixed)
    assert dtypes == [dtype, dtype]
    assert report.expected == report.best_response == (peak, -peak)
    assert report.passed and report.max_regret == 0


def test_exact_work_builds_few_fractions(monkeypatch):
    """Verification builds three Fractions per player, a point-mass lottery one per partition.

    The Pareto scan builds none for its thresholds, only the payoffs of
    the diagnostics it yields. Counted through Fraction.__new__, so the
    bound does not depend on the host.
    """
    game = catalog_game("lunch")
    mixed = lunch_claimed_profile(game)
    assert all(len(row) == 3 for row in mixed.support_items())
    point = pure_nash_enumerate(game)[0]
    baseline = (Fraction(17, 3), 9.5, Fraction(-1, 2), 3)
    new, built = Fraction.__new__, []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert verify_epsilon_nash(game, mixed).passed
    assert len(built) <= 3 * game.n_players + 1
    built.clear()
    lottery = equilibrium_partitions(game, point)
    # One mass per partition, and one more for the sum that validates them.
    assert len(lottery) == 1 and len(built) <= 2
    built.clear()
    diagnostics = list(_pareto_dominating_pures(game, baseline))
    assert diagnostics and len(built) == game.n_players * len(diagnostics)


@DIFFERENTIAL
@given(
    st.one_of(
        two_player_games(binary_payoffs),
        two_player_games(exact_payoffs[1]),
        coalition_games(payoff_values=binary_payoffs),
    )
)
def test_built_profiles_match_validated_ones(game):
    """Profiles the lanes and point_mass build without validation are what validation would make."""
    results = pure_nash_enumerate(game)
    if game.n_players == 2:
        results += mixed_nash_2p_support_enum(game).equilibria
    corners = [(0,) * game.n_players, tuple(m - 1 for m in game.shape)]
    profiles = [r.profile for r in results] + [point_mass(game, p) for p in corners]
    for built in profiles:
        again = MixedProfile(built.weights)
        assert vars(built) == vars(again)
        assert built.is_exact and built.support_items() == again.support_items()
        assert built._units == again._units
        assert built == again and hash(built) == hash(again) and repr(built) == repr(again)
