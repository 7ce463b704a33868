"""Expected utilities, pure enumeration and the two mixed solvers."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from _shared import (
    game,
    lunch_claimed_profile,
    one_profile_game,
    random_exact_profile,
    random_two_player_game,
    restricted,
)
from coalition_forge import solver
from coalition_forge.analysis import equilibrium_partitions, lift_profile
from coalition_forge.games import CoalitionGame, Mechanism, Strategy
from coalition_forge.partitions import enumerate_partitions
from coalition_forge.solver import (
    ITERATIVE,
    PURE,
    SUPPORT,
    EquilibriumResult,
    MixedProfile,
    SolverConfig,
    _deviation_values,
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
    verify_epsilon_nash,
)


def matching_pennies():
    """Zero-sum coordination with a unique half-half equilibrium."""
    family = enumerate_partitions(2, 1)
    sets = (
        (Strategy(0, "heads"), Strategy(0, "tails")),
        (Strategy(0, "heads"), Strategy(0, "tails")),
    )
    payoffs = {
        (0, 0): (Fraction(1), Fraction(-1)),
        (1, 1): (Fraction(1), Fraction(-1)),
        (0, 1): (Fraction(-1), Fraction(1)),
        (1, 0): (Fraction(-1), Fraction(1)),
    }
    return CoalitionGame(2, 1, family, sets, Mechanism(), payoffs)


class TestMixedProfile:
    def test_point_mass(self):
        g = game("pd-standard")
        mp = point_mass(g, (1, 0))
        assert mp.is_pure and mp.is_exact and mp.mode == "exact"
        assert mp.support(0) == (1,) and mp.support(1) == (0,)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            MixedProfile(((Fraction(1, 2), Fraction(1, 3)),))
        with pytest.raises(ValueError):
            MixedProfile(((Fraction(3, 2), Fraction(-1, 2)),))

    def test_float_mode(self):
        mp = MixedProfile(((0.5, 0.5), (1.0, 0.0)))
        assert not mp.is_exact and mp.mode == "float"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(tolerance=0)
        with pytest.raises(ValueError, match="^tolerance must be positive, got nan$"):
            SolverConfig(tolerance=float("nan"))
        with pytest.raises(ValueError):
            SolverConfig(damping=0)
        with pytest.raises(ValueError):
            SolverConfig(rng_seed=-1)

    @pytest.mark.parametrize("field", ["max_support", "max_iterations", "rng_seed"])
    @pytest.mark.parametrize("value", [2.5, True, "3", Fraction(3), np.float64(2.0)])
    def test_config_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError) as caught:
            SolverConfig(**{field: value})
        assert str(caught.value) == f"{field} must be an integer, got {value!r}"

    @pytest.mark.parametrize("field", ["tolerance", "damping"])
    @pytest.mark.parametrize("value", ["x", None, True, np.bool_(True), 1j])
    def test_config_tolerance_and_damping_must_be_real(self, field, value):
        with pytest.raises(ValueError) as caught:
            SolverConfig(**{field: value})
        assert str(caught.value) == f"{field} must be a real number, got {value!r}"

    def test_config_tolerance_must_be_finite(self):
        with pytest.raises(ValueError, match="^tolerance must be finite, got inf$"):
            SolverConfig(tolerance=float("inf"))
        with pytest.raises(ValueError, match="^tolerance must be finite, got inf$"):
            SolverConfig(tolerance=np.float64("inf"))
        reals = [(Fraction(1, 10), Fraction(1, 2)), (np.float64(1e-3), 1), (10**400, 0.5)]
        for tolerance, damping in reals:
            SolverConfig(tolerance=tolerance, damping=damping)

    def test_config_counts_keep_their_range_checks(self):
        for field, value, message in [
            ("max_support", 0, "max_support must be at least 1, got 0"),
            ("max_iterations", np.int64(0), "max_iterations must be at least 1, got 0"),
            ("rng_seed", -1, "rng_seed must be non-negative, got -1"),
            ("max_iterations", None, "max_iterations must be an integer, got None"),
            ("rng_seed", None, "rng_seed must be an integer, got None"),
        ]:
            with pytest.raises(ValueError) as caught:
                SolverConfig(**{field: value})
            assert str(caught.value) == message

    def test_config_accepts_numpy_integers(self):
        g = game("pd-standard")
        config = SolverConfig(max_support=np.int64(1), max_iterations=np.int32(50), rng_seed=np.uint8(3))
        counts = (config.max_support, config.max_iterations, config.rng_seed)
        assert counts == (1, 50, 3) and all(type(v) is int for v in counts)
        assert SolverConfig(max_support=None).max_support is None
        assert mixed_nash_2p_support_enum(g, config)
        assert mixed_nash_iterative(g, config).iterations <= 50
        # A Python bool, which game files can write; a numpy one they refuse.
        assert mixed_nash_2p_support_enum(game("bos"), config).truncated is True

    def test_numpy_tolerance_gives_python_verdicts(self):
        g = game("bos")
        tolerance = np.float64(1e-3)
        result = mixed_nash_iterative(g, SolverConfig(tolerance=tolerance, max_iterations=50))
        assert result.is_equilibrium is False
        assert verify_epsilon_nash(g, result.profile, tolerance).passed is False
        assert verify_epsilon_nash(g, point_mass(g, (0, 0)), tolerance).passed is True

    def test_numpy_weight_gives_python_floats(self):
        g = game("pd-standard")
        mixed = MixedProfile(((np.float64(0.25), 0.75), (0.5, 0.5)))
        report = verify_epsilon_nash(g, mixed)
        values = [*report.expected, *report.best_response, *report.regrets, report.max_regret]
        values += [*expected_utilities(g, mixed), best_response_value(g, mixed, 0)]
        values += itertools.chain(*expected_utility_by_structure(g, mixed).values())
        assert all(type(v) is float for v in values)
        assert type(report.passed) is bool


class TestExpectedUtility:
    def test_point_mass_equals_payoff(self):
        for game_id in ("pd-standard", "pd-extended", "stag-hare"):
            g = game(game_id)
            rng = random.Random(5)
            for _ in range(10):
                profile = tuple(
                    rng.randrange(len(g.strategy_sets[i]))
                    for i in range(g.n_players)
                )
                assert expected_utilities(g, point_mass(g, profile)) == g.payoff(profile)

    def test_uniform_dilemma(self):
        g = game("pd-standard")
        uniform = MixedProfile(
            (
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1, 2), Fraction(1, 2)),
            )
        )
        assert expected_utilities(g, uniform) == (-1, -1)
        assert expected_utility(g, uniform, 0) == -1

    def test_one_player_reads_only_their_deviation_values(self, monkeypatch):
        g = game("lunch")
        mixed = lunch_claimed_profile(g)
        players = []

        def counted(game_, player, mixed_):
            players.append(player)
            return _deviation_values(game_, player, mixed_)

        monkeypatch.setattr(solver, "_deviation_values", counted)
        values = [expected_utility(g, mixed, i) for i in range(g.n_players)]
        assert players == list(range(g.n_players))
        monkeypatch.undo()
        assert tuple(values) == expected_utilities(g, mixed)

    def test_lunch_claimed_profile_sum(self):
        g = game("lunch")
        mixed = lunch_claimed_profile(g)
        supports = [mixed.support(i) for i in range(4)]
        total = [Fraction(0)] * 4
        count = 0
        for combo in itertools.product(*supports):
            count += 1
            pay = g.payoff(combo)
            total = [t + p for t, p in zip(total, pay)]
        assert count == 81
        by_hand = tuple(t / 81 for t in total)
        assert by_hand == (Fraction(137, 27),) * 4
        assert expected_utilities(g, mixed) == by_hand

    def test_structure_view_agrees_with_flat_walk(self):
        rng = random.Random(23)
        games = [game("pd-extended"), game("bos"), restricted("lunch", 2)]
        for g in games:
            for _ in range(10):
                mixed = random_exact_profile(g, rng)
                flat = expected_utilities(g, mixed)
                grouped = expected_utility_by_structure(g, mixed)
                summed = tuple(
                    sum(vals[i] for vals in grouped.values())
                    for i in range(g.n_players)
                )
                assert summed == flat

    def test_linearity_in_own_weights(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_two_player_game(rng)
            base = random_exact_profile(g, rng)
            player = rng.randrange(2)
            other = random_exact_profile(g, rng)
            lam = Fraction(rng.randint(0, 8), 8)

            def swap(profile, row):
                rows = list(profile.weights)
                rows[player] = row
                return MixedProfile(tuple(rows))

            blended_row = tuple(
                lam * a + (1 - lam) * b
                for a, b in zip(base.weights[player], other.weights[player])
            )
            left = expected_utility(g, swap(base, blended_row), player)
            right = lam * expected_utility(g, base, player) + (
                1 - lam
            ) * expected_utility(g, swap(base, other.weights[player]), player)
            assert left == right


class TestBestResponse:
    def test_known_values(self):
        pd = game("pd-standard")
        assert best_response_value(pd, point_mass(pd, (1, 1)), 0) == -2
        assert best_response_value(pd, point_mass(pd, (0, 0)), 0) == 3
        hunt = game("stag-hare")
        assert best_response_value(hunt, point_mass(hunt, (3, 3)), 0) == 100

    def test_dominates_every_mixed_deviation(self):
        rng = random.Random(47)
        for _ in range(30):
            g = random_two_player_game(rng)
            mixed = random_exact_profile(g, rng)
            for player in range(2):
                best = best_response_value(g, mixed, player)
                assert best >= expected_utility(g, mixed, player)
                deviation = random_exact_profile(g, rng)
                rows = list(mixed.weights)
                rows[player] = deviation.weights[player]
                value = expected_utility(g, MixedProfile(tuple(rows)), player)
                assert value <= best


class TestVerification:
    def test_exact_equilibrium_passes_at_zero(self):
        g = game("lunch")
        report = verify_epsilon_nash(g, lunch_claimed_profile(g))
        assert report.passed
        assert report.max_regret == 0
        assert report.tolerance == 0
        assert report.expected == (Fraction(137, 27),) * 4

    def test_regret_of_uniform_dilemma(self):
        g = game("pd-standard")
        uniform = MixedProfile(
            (
                (Fraction(1, 2), Fraction(1, 2)),
                (Fraction(1, 2), Fraction(1, 2)),
            )
        )
        report = verify_epsilon_nash(g, uniform)
        assert report.expected == (-1, -1)
        assert report.best_response == (Fraction(1, 2), Fraction(1, 2))
        assert report.regrets == (Fraction(3, 2), Fraction(3, 2))
        assert not report.passed

    def test_perturbed_claim_fails(self):
        g = game("lunch")
        rows = [list(r) for r in lunch_claimed_profile(g).weights]
        sup = [j for j, w in enumerate(rows[0]) if w > 0]
        rows[0][sup[0]] += Fraction(1, 6)
        rows[0][sup[1]] -= Fraction(1, 6)
        report = verify_epsilon_nash(g, MixedProfile(tuple(tuple(r) for r in rows)))
        assert report.max_regret > 0
        assert not report.passed


class TestPureEnumeration:
    def test_dilemma_unique(self):
        results = pure_nash_enumerate(game("pd-standard"))
        assert len(results) == 1
        (res,) = results
        assert res.method == PURE
        assert res.is_equilibrium
        assert res.profile.support(0) == (1,) and res.profile.support(1) == (1,)
        assert res.expected_payoffs == (-2, -2)
        assert res.max_regret == 0

    def test_extended_dilemma_four_defections(self):
        g = game("pd-extended")
        results = pure_nash_enumerate(g)
        profiles = {
            tuple(r.profile.support(i)[0] for i in range(2)) for r in results
        }
        assert profiles == {(1, 1), (1, 3), (3, 1), (3, 3)}
        for r in results:
            assert r.expected_payoffs == (-2, -2)
        realized = sorted(
            str(g.realized_partition(tuple(r.profile.support(i)[0] for i in range(2))))
            for r in results
        )
        assert realized.count("{{0,1}}") == 1
        assert realized.count("{{0},{1}}") == 3

    def test_bonus_variants_are_unique(self):
        for game_id, expected_profile, eps_name in (
            ("pd-extroverts", (3, 3), "eps"),
            ("pd-introverts", (1, 1), "delta"),
        ):
            for value in (1, 2):
                g = game(game_id, **{eps_name: value})
                results = pure_nash_enumerate(g)
                assert len(results) == 1, (game_id, value)
                (res,) = results
                got = tuple(res.profile.support(i)[0] for i in range(2))
                assert got == expected_profile
                assert res.expected_payoffs == (-2 + value, -2 + value)

    def test_mixed_types_two_pures(self):
        results = pure_nash_enumerate(game("pd-mixed"))
        profiles = {
            tuple(r.profile.support(i)[0] for i in range(2)) for r in results
        }
        assert profiles == {(1, 1), (3, 1)}
        # The defection payoffs are lopsided: only the introvert column
        # player collects the delta bonus for being left alone.
        for r in results:
            assert r.expected_payoffs == (-2, -1)

    def test_partner_game_keeps_the_pair(self):
        results = pure_nash_enumerate(game("bos", eps=Fraction(1, 10)))
        profiles = {
            tuple(r.profile.support(i)[0] for i in range(2)) for r in results
        }
        assert profiles == {(2, 2), (3, 3)}

    def test_hunt_keeps_alone_profiles_and_the_pact(self):
        results = pure_nash_enumerate(game("stag-hare"))
        profiles = {
            tuple(r.profile.support(i)[0] for i in range(2)) for r in results
        }
        assert profiles == {(0, 0), (0, 2), (2, 0), (3, 3)}

    def test_lunch_pure_set_is_exactly_single_pair(self):
        g = game("lunch")
        results = pure_nash_enumerate(g)

        def pair_desires(i):
            return [
                j
                for j, s in enumerate(g.strategy_sets[i])
                if g.family[s.desired_partition].block_of(i).size == 2
                and g.family[s.desired_partition].max_block_size == 2
            ]

        # Independent count: choose the realized pair, each partner picks
        # any desire containing that exact pair, outsiders pick anything
        # that does not unanimously form a second pair.
        total = 0
        players = range(4)
        for a, b in itertools.combinations(players, 2):
            pair_choices = 0
            for i in (a, b):
                pair_choices_i = [
                    j
                    for j, s in enumerate(g.strategy_sets[i])
                    if g.family[s.desired_partition].block_of(i).members == (a, b)
                ]
                pair_choices = pair_choices_i if i == a else pair_choices
                assert len(pair_choices_i) == 2
            outsiders = [p for p in players if p not in (a, b)]
            c, d = outsiders
            free = 0
            for jc in range(len(g.strategy_sets[c])):
                for jd in range(len(g.strategy_sets[d])):
                    cd_c = g.family[
                        g.strategy_sets[c][jc].desired_partition
                    ].block_of(c).members == tuple(sorted((c, d)))
                    cd_d = g.family[
                        g.strategy_sets[d][jd].desired_partition
                    ].block_of(d).members == tuple(sorted((c, d)))
                    if not (cd_c and cd_d):
                        free += 1
            assert free == 221
            total += 2 * 2 * free
        assert total == 5304
        assert len(results) == 5304
        for r in results[:100]:
            profile = tuple(r.profile.support(i)[0] for i in range(4))
            realized = g.realized_partition(profile)
            assert sum(1 for blk in realized.blocks if blk.size == 2) == 1
            assert realized.max_block_size == 2

    def test_two_pair_lunch_profile_is_screened_out(self):
        g = game("lunch")
        idx = g.family.index_of(
            g.family[3]
        )  # family order puts a two-pair structure at index 3
        assert g.family[idx].max_block_size == 2
        profile = tuple(
            g.strategy_sets[i].index(Strategy(idx)) for i in range(4)
        )
        # No one gains unilaterally, yet two players can re-desire into a
        # fresh pair and both strictly gain, so this is not reported.
        report = verify_epsilon_nash(g, point_mass(g, profile))
        assert report.max_regret == 0
        assert not is_pure_equilibrium(g, profile)

    def test_first_pure_matches_enumeration_head(self):
        for game_id in ("pd-standard", "pd-extended", "stag-hare"):
            g = game(game_id)
            first = first_pure_equilibrium(g)
            head = pure_nash_enumerate(g)[0]
            assert first.profile.weights == head.profile.weights

    def test_first_pure_none_when_none_exist(self):
        assert first_pure_equilibrium(matching_pennies()) is None


class TestSupportEnumeration:
    def test_matching_pennies_unique_mix(self):
        found = mixed_nash_2p_support_enum(matching_pennies())
        assert not found.truncated
        interior = [r for r in found.equilibria if not r.profile.is_pure]
        assert len(interior) == 1
        (res,) = interior
        half = (Fraction(1, 2), Fraction(1, 2))
        assert res.profile.weights == (half, half)
        assert res.expected_payoffs == (0, 0)
        assert res.method == SUPPORT
        assert len(found.equilibria) == 1

    def test_partner_game_all_equilibria(self):
        g = game("bos", eps=Fraction(1, 10))
        found = mixed_nash_2p_support_enum(g)
        assert len(found.equilibria) == 6
        pure = {
            tuple(r.profile.support(i)[0] for i in range(2))
            for r in found.equilibria
            if r.profile.is_pure
        }
        assert pure == {(0, 0), (1, 1), (2, 2), (3, 3)}
        mixed = [r for r in found.equilibria if not r.profile.is_pure]
        together = [r for r in mixed if r.profile.support(0) == (2, 3)]
        assert len(together) == 1
        res = together[0]
        assert res.profile.weights[0][2] == Fraction(2, 3)
        assert res.profile.weights[0][3] == Fraction(1, 3)
        assert res.profile.weights[1][2] == Fraction(1, 3)
        assert res.profile.weights[1][3] == Fraction(2, 3)
        assert res.expected_payoffs == (Fraction(23, 30), Fraction(23, 30))
        assert res.max_regret == 0

    def test_together_mix_does_not_move_with_the_bonus(self):
        for eps in (Fraction(0), Fraction(1, 10), Fraction(1)):
            g = game("bos", eps=eps)
            found = mixed_nash_2p_support_enum(g)
            together = [
                r
                for r in found.equilibria
                if not r.profile.is_pure
                and r.profile.support(0) == (2, 3)
                and r.profile.support(1) == (2, 3)
            ]
            assert len(together) == 1
            res = together[0]
            assert res.profile.weights[0][2] == Fraction(2, 3)
            assert res.profile.weights[1][2] == Fraction(1, 3)
            assert res.expected_payoffs == (
                Fraction(2, 3) + eps,
                Fraction(2, 3) + eps,
            )

    def test_mixed_types_continuum_representative(self):
        found = mixed_nash_2p_support_enum(game("pd-mixed"))
        wide = [
            r
            for r in found.equilibria
            if r.profile.support(0) == (1, 3) and r.profile.support(1) == (1,)
        ]
        assert len(wide) == 1
        res = wide[0]
        assert res.profile.weights[0][1] == Fraction(1, 2)
        assert res.expected_payoffs == (-2, -1)
        # The reported point stands in for a continuum: any other split
        # over the same support verifies as well.
        g = game("pd-mixed")
        other = MixedProfile(
            (
                (Fraction(0), Fraction(1, 4), Fraction(0), Fraction(3, 4)),
                (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
            )
        )
        assert verify_epsilon_nash(g, other).passed

    def test_all_results_verify_exactly(self):
        for game_id in ("pd-extended", "bos", "pd-mixed", "stag-hare"):
            g = game(game_id)
            for r in mixed_nash_2p_support_enum(g).equilibria:
                assert r.is_equilibrium
                report = verify_epsilon_nash(g, r.profile)
                assert report.passed and report.max_regret == 0

    def test_support_cap_truncates(self):
        g = game("bos")
        found = mixed_nash_2p_support_enum(g, SolverConfig(max_support=1))
        assert found.truncated
        assert all(r.profile.is_pure for r in found.equilibria)

    def test_needs_two_players(self):
        with pytest.raises(ValueError):
            mixed_nash_2p_support_enum(restricted("lunch", 2))

    def test_pure_enumeration_is_contained_in_singleton_supports(self):
        rng = random.Random(2024)
        for _ in range(50):
            g = random_two_player_game(rng)
            screened = {
                tuple(r.profile.support(i)[0] for i in range(2))
                for r in pure_nash_enumerate(g)
            }
            singles = {
                tuple(r.profile.support(i)[0] for i in range(2))
                for r in mixed_nash_2p_support_enum(g).equilibria
                if r.profile.is_pure
            }
            assert screened <= singles


class TestIterative:
    def test_snaps_to_strict_pure(self):
        res = mixed_nash_iterative(game("pd-standard"))
        assert res.is_equilibrium
        assert res.method == ITERATIVE
        assert res.profile.is_exact
        assert res.profile.support(0) == (1,) and res.profile.support(1) == (1,)
        assert res.max_regret == 0
        assert res.iterations > 0

    def test_snaps_in_the_bonus_game(self):
        res = mixed_nash_iterative(game("pd-extroverts"))
        assert res.is_equilibrium
        assert res.profile.support(0) == (3,) and res.profile.support(1) == (3,)

    def test_lunch_run_lands_on_a_weak_pure(self):
        res = mixed_nash_iterative(game("lunch"))
        assert res.is_equilibrium
        assert res.max_regret == 0
        assert res.profile.is_pure

    def test_cycling_game_converges_to_the_mix(self):
        g = game("bos", eps=Fraction(1, 10))
        res = mixed_nash_iterative(g, SolverConfig(tolerance=1e-3))
        assert res.is_equilibrium
        weights = res.profile.weights
        assert abs(float(weights[0][2]) - 2 / 3) < 0.05
        assert abs(float(weights[1][2]) - 1 / 3) < 0.05
        assert abs(float(res.expected_payoffs[0]) - 23 / 30) < 5e-3

    def test_same_seed_same_run(self):
        g = game("bos")
        a = mixed_nash_iterative(g, SolverConfig(tolerance=1e-3, rng_seed=3))
        b = mixed_nash_iterative(g, SolverConfig(tolerance=1e-3, rng_seed=3))
        assert a.profile.weights == b.profile.weights
        assert a.iterations == b.iterations

    def test_full_damping_is_the_default(self):
        g = game("bos")
        default = mixed_nash_iterative(g, SolverConfig(max_iterations=200))
        assert mixed_nash_iterative(g, SolverConfig(max_iterations=200, damping=1.0)) == default
        half = mixed_nash_iterative(g, SolverConfig(max_iterations=200, damping=0.5))
        assert half.profile != default.profile
        assert (default.max_regret, half.max_regret) == (0.00275426350832908, 0.003995627001365576)

    def test_start_at_a_pure_equilibrium_stops_at_once(self):
        g = game("bos")
        res = mixed_nash_iterative(g, start=MixedProfile(((0, 0, 0, 1), (0, 0, 0, 1))))
        assert (res.iterations, res.is_equilibrium, res.max_regret) == (1, True, 0.0)
        assert res.profile.weights == ((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 1.0))
        short = MixedProfile(((0, 1), (0, 0, 0, 1)))
        with pytest.raises(ValueError, match="^player 0 weight vector has length 2, strategy set has 4$"):
            mixed_nash_iterative(g, start=short)

    def test_budget_exhaustion_is_flagged(self):
        # Seed 1 starts off-center; the averaging dynamic closes in on
        # the half-half mix only at a polynomial rate, far short of the
        # demanded tolerance within the budget.
        res = mixed_nash_iterative(
            matching_pennies(),
            SolverConfig(tolerance=1e-12, max_iterations=50, rng_seed=1),
        )
        assert not res.is_equilibrium
        assert res.iterations == 50
        assert res.max_regret > 0


def test_more_players_than_einsum_axes_are_refused():
    """einsum labels at most 52 axes; a 53-player game is refused by name.

    The pure lane and the lottery read no contraction and still answer.
    """
    g = one_profile_game(53)
    (res,) = pure_nash_enumerate(g)
    assert res.profile.support(52) == (0,)
    lottery = equilibrium_partitions(g, res)
    assert list(lottery.probabilities.values()) == [1]
    message = "^contractions handle at most 52 players, game has 53$"
    for call in (
        lambda: verify_epsilon_nash(g, res.profile),
        lambda: expected_utilities(g, res.profile),
        lambda: mixed_nash_iterative(g),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_float_readers_refuse_payoffs_beyond_the_float_range():
    """A payoff past the float range is refused by name; exact readers still read it."""
    g = game("bos", eps=Fraction(10**400))
    floats = MixedProfile(((0.25,) * 4,) * 2)
    message = (
        "^a payoff lies beyond the float range, "
        "so float profiles cannot read this game; exact profiles can$"
    )
    for call in (
        lambda: expected_utilities(g, floats),
        lambda: expected_utility(g, floats, 1),
        lambda: verify_epsilon_nash(g, floats),
        lambda: best_response_value(g, floats, 0),
        lambda: expected_utility_by_structure(g, floats),
        lambda: mixed_nash_iterative(g),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    exact = MixedProfile(((Fraction(1, 4),) * 4,) * 2)
    by_hand = tuple(sum(g.payoff(p)[i] for p in g.profiles()) / 16 for i in range(2))
    assert by_hand[0] > 10**399
    assert expected_utilities(g, exact) == verify_epsilon_nash(g, exact).expected == by_hand
    by_structure = expected_utility_by_structure(g, exact)
    assert tuple(map(sum, zip(*by_structure.values()))) == by_hand
    results = mixed_nash_2p_support_enum(g).equilibria + pure_nash_enumerate(g)
    assert results and all(verify_epsilon_nash(g, r.profile).passed for r in results)


HALVES = MixedProfile(((Fraction(1, 2),) * 2,) * 2)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MixedProfile(()), "mixed profile needs at least one player"),
        (lambda: MixedProfile(((Fraction(1),), ())), "player 1 has an empty weight vector"),
        (
            lambda: verify_epsilon_nash(game("pd-standard"), THREE_PLAYERS),
            "profile covers 3 players, game has 2",
        ),
        (
            lambda: verify_epsilon_nash(game("pd-standard"), MixedProfile(((1, 0, 0), (1, 0)))),
            "player 0 weight vector has length 3, strategy set has 2",
        ),
        (lambda: expected_utility(game("pd-standard"), HALVES, 2), "player index 2 out of range"),
        (lambda: expected_utility(game("pd-standard"), HALVES, -1), "player index -1 out of range"),
        (lambda: expected_utility(game("pd-standard"), HALVES, 0.5), "player index 0.5 out of range"),
        (lambda: expected_utility(game("pd-standard"), HALVES, True), "player index True out of range"),
        (lambda: best_response_value(game("pd-standard"), HALVES, 2), "player index 2 out of range"),
        (lambda: best_response_value(game("pd-standard"), HALVES, 0.5), "player index 0.5 out of range"),
        (lambda: best_response_value(game("pd-standard"), HALVES, True), "player index True out of range"),
    ],
    ids=["no players", "empty row", "player count", "row length", "utility of player 2",
         "utility of player -1", "utility of player 0.5", "utility of player True",
         "best response of player 2", "best response of player 0.5", "best response of player True"],
)
def test_profile_faults_keep_their_message(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


THREE_PLAYERS = MixedProfile(((Fraction(1), Fraction(0)),) * 3)


@pytest.mark.parametrize(
    "read",
    [
        expected_utilities,
        lambda g, m: expected_utility(g, m, 0),
        lambda g, m: best_response_value(g, m, 0),
        verify_epsilon_nash,
        expected_utility_by_structure,
        lambda g, m: equilibrium_partitions(g, EquilibriumResult(m, (0,) * 3, 0, PURE, True)),
        lambda g, m: lift_profile(g, m, game("pd-extended")),
        lambda g, m: mixed_nash_iterative(g, start=m),
    ],
    ids=["expected utilities", "expected utility", "best response", "verification",
         "by structure", "equilibrium partitions", "lift", "iterative start"],
)
def test_profile_readers_refuse_another_player_count(read):
    with pytest.raises(ValueError) as caught:
        read(game("pd-standard"), THREE_PLAYERS)
    assert type(caught.value) is ValueError
    assert str(caught.value) == "profile covers 3 players, game has 2"
