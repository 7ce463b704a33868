"""The payoff tensor and realized-structure index against brute-force walks.

Every oracle here reads the game's payoffs mapping and mechanism table
directly, walking whole profile spaces one profile at a time, so it
shares no code with the tensor contractions it checks.
"""

from __future__ import annotations

import copy
import io
import itertools
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _shared import game as catalog_game
from coalition_forge.cli import main
from coalition_forge.gamefile import GameFileError, dumps, game_from_dict, game_to_dict
from coalition_forge.games import TABLE, CoalitionGame, Mechanism, Strategy, ValidationError
from coalition_forge.partitions import Coalition, CoalitionStructure, enumerate_partitions
from coalition_forge.solver import (
    EquilibriumResult,
    MixedProfile,
    expected_utilities,
    expected_utility_by_structure,
    first_pure_equilibrium,
    is_pure_equilibrium,
    mixed_nash_iterative,
    point_mass,
    pure_nash_enumerate,
    verify_epsilon_nash,
)
from coalition_forge.analysis import equilibrium_partitions, stability_K_star

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


def brute_best(game, mixed, player):
    best = None
    for k in range(len(game.strategy_sets[player])):
        rows = list(mixed.weights)
        rows[player] = tuple(Fraction(int(j == k)) for j in range(len(rows[player])))
        value = brute_expected(game, MixedProfile(tuple(rows)))[player]
        best = value if best is None else max(best, value)
    return best


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


# -- random games ------------------------------------------------------------


@st.composite
def coalition_games(draw, alone=False):
    """Random small games; payoffs either per profile or per realized structure.

    With alone=True every player can desire the all-singleton structure and
    any mechanism table realizes only that, so every restriction succeeds.
    """
    n = draw(st.integers(2, 4))
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
    values = draw(st.lists(st.integers(-3, 3), min_size=n * rows, max_size=n * rows))
    for k, p in enumerate(profiles):
        row = family.index_of(brute_realized(game, p)) if by_structure else k
        payoffs[p] = tuple(Fraction(v) for v in values[row * n : (row + 1) * n])
    return game


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


class TestAgainstBruteForce:
    @DIFFERENTIAL
    @given(coalition_games())
    def test_realized_structures_and_domains(self, game):
        expected = {p: brute_realized(game, p) for p in all_profiles(game)}
        for profile, structure in expected.items():
            assert game.realized_partition(profile) == structure
        domains = game.validate_domains()
        listed = [structure for structure, _ in domains]
        assert listed == [s for s in game.family if s in set(expected.values())]
        for structure, profiles in domains:
            assert list(profiles) == [p for p, s in expected.items() if s == structure]

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
        small = game.restrict(cap)
        for i in range(game.n_players):
            assert [small.strategy_key(i, k) for k in range(len(small.strategy_sets[i]))] == [
                game.strategy_key(i, k) for k in kept[i]
            ]
        assert dict(small.payoffs) == {p: game.payoffs[q] for p, q in parents.items()}
        for profile, parent in parents.items():
            assert small.realized_partition(profile) == brute_realized(game, parent)


# -- profile arguments ----------------------------------------------------------


@pytest.mark.parametrize("bad", [(-1, 0), (0, -1), (4, 0), (0, 4), (0,), (0, 0, 0)])
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
    weights = ((Fraction(1, 2), Fraction(1, 2)), (Fraction(1),))
    mixed = MixedProfile(weights)
    assert vars(mixed)["is_exact"] is True
    assert mixed == MixedProfile(weights)
    assert repr(mixed) == f"MixedProfile(weights={weights!r})"
    assert MixedProfile(((0.5, 0.5),)).mode == "float"


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
