"""Partition distributions, cooperation, stochasticity and stability."""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction

import pytest

from _shared import game, lunch_claimed_profile, restricted, unnested_pair
from coalition_forge import analysis
from coalition_forge.analysis import (
    CooperationReport,
    EquilibriumPartitionSet,
    classify_stochastic,
    compare_domains,
    equilibrium_partitions,
    is_complete_cooperation,
    lift_profile,
    stability_K_star,
)
from coalition_forge.games import CoalitionGame, Mechanism, Strategy
from coalition_forge.partitions import Coalition, CoalitionStructure, enumerate_partitions
from coalition_forge.solver import (
    EquilibriumResult,
    MixedProfile,
    SolverConfig,
    first_pure_equilibrium,
    point_mass,
    pure_nash_enumerate,
    verify_epsilon_nash,
)

PAIR = CoalitionStructure.of([[0, 1]], 2)
SPLIT = CoalitionStructure.singletons(2)
UNLISTED = "every partition with positive probability must be listed"


def supplied(g, mixed):
    report = verify_epsilon_nash(g, mixed)
    return EquilibriumResult(
        profile=mixed,
        expected_payoffs=report.expected,
        max_regret=report.max_regret,
        method="supplied",
        is_equilibrium=report.passed,
    )


def grid_masses(g, mixed):
    """The lottery summed over the support grid in lexicographic order, in family order.

    Each profile's mass is the product of the players' weights in player
    order: exact weights as they are, float weights as Python floats.
    """
    masses = {}
    for profile in itertools.product(*(mixed.support(i) for i in range(g.n_players))):
        weights = [mixed.weights[i][k] for i, k in enumerate(profile)]
        mass = math.prod(weights if mixed.is_exact else map(float, weights))
        structure = g.realized_partition(profile)
        masses[structure] = masses.get(structure, 0) + mass
    return {s: masses[s] for s in g.family if s in masses}


def both_h_mix(g):
    """Uniform weight on the two defection strategies of each player."""
    half = Fraction(1, 2)
    row = (Fraction(0), half, Fraction(0), half)
    return supplied(g, MixedProfile((row, row)))


class TestPartitionDistribution:
    def test_point_mass_is_deterministic(self):
        g = game("pd-extroverts")
        (res,) = pure_nash_enumerate(g)
        dist = equilibrium_partitions(g, res)
        assert len(dist) == 1
        assert dist.probability(PAIR) == 1
        assert dist.probability(SPLIT) == 0

    def test_lunch_claimed_distribution(self):
        g = game("lunch")
        res = supplied(g, lunch_claimed_profile(g))
        assert res.is_equilibrium
        dist = equilibrium_partitions(g, res)
        pair_structures = [
            s
            for s in g.family
            if s.max_block_size == 2
            and sum(1 for b in s.blocks if b.size == 2) == 1
        ]
        two_pair_structures = [
            s
            for s in g.family
            if sum(1 for b in s.blocks if b.size == 2) == 2
        ]
        assert len(pair_structures) == 6
        assert len(two_pair_structures) == 3
        for s in pair_structures:
            assert dist.probability(s) == Fraction(8, 81)
        for s in two_pair_structures:
            assert dist.probability(s) == Fraction(1, 81)
        singles = CoalitionStructure.singletons(4)
        assert dist.probability(singles) == Fraction(10, 27)
        assert sum(dist.probability(s) for s in dist.partitions) == 1

    def test_point_masses_match_the_support_grid(self):
        near_one = 1 - 2.0**-40
        cases = [(game("pd-extroverts"), 1), (game("pd-mixed"), 1), (restricted("lunch", 2), 97)]
        for g, step in cases:
            for res in pure_nash_enumerate(g)[::step]:
                exact = res.profile.weights
                variants = (
                    exact,
                    [[float(w) for w in row] for row in exact],
                    [[near_one if w else 0.0 for w in row] for row in exact],
                )
                for weights in variants:
                    mixed = MixedProfile(weights)
                    result = EquilibriumResult(
                        mixed, res.expected_payoffs, res.max_regret, "given", True
                    )
                    grid = grid_masses(g, mixed)
                    dist = equilibrium_partitions(g, result)
                    assert dist.probabilities == grid
                    assert [type(v) for v in dist.probabilities.values()] == [
                        type(v) for v in grid.values()
                    ]
                    assert list(dist.partitions) == list(grid)

    def test_rejects_unverified_results(self):
        g = game("pd-standard")
        bad = supplied(g, point_mass(g, (0, 0)))
        assert not bad.is_equilibrium
        with pytest.raises(ValueError):
            equilibrium_partitions(g, bad)

    @pytest.mark.parametrize(
        "listed, masses, message",
        [
            ((0,), {1: Fraction(1)}, "every listed partition needs a probability"),
            ((0, 0), {0: Fraction(1)}, "a partition is listed twice"),
            ((0,), {0: Fraction(1, 2), 1: Fraction(1, 2)}, UNLISTED),
            ((0,), {0: 0.5, 1: 0.5}, UNLISTED),
        ],
    )
    def test_lottery_must_list_exactly_its_positive_partitions(self, listed, masses, message):
        structures = enumerate_partitions(2, 2).structures
        with pytest.raises(ValueError, match=f"^{message}$"):
            EquilibriumPartitionSet(
                tuple(structures[k] for k in listed), {structures[k]: v for k, v in masses.items()}
            )

    def test_lottery_may_carry_a_zero_mass_it_does_not_list(self):
        s0, s1 = enumerate_partitions(2, 2).structures
        lottery = EquilibriumPartitionSet((s0,), {s0: Fraction(1), s1: Fraction(0)})
        assert list(lottery) == [s0] and lottery.probability(s1) == 0


class TestCooperation:
    def test_bonus_pair_cooperates_completely(self):
        g = game("pd-extroverts")
        (res,) = pure_nash_enumerate(g)
        report = is_complete_cooperation(g, res, Coalition.of(0, 1))
        assert report.ex_ante and report.ex_post and report.complete

    def test_isolated_defection_does_not(self):
        g = game("pd-standard")
        (res,) = pure_nash_enumerate(g)
        report = is_complete_cooperation(g, res, Coalition.of(0, 1))
        assert not report.ex_ante
        assert not report.ex_post
        assert not report.complete

    def test_one_sided_desire_is_not_cooperation(self):
        g = game("pd-extended")
        res = supplied(g, point_mass(g, (1, 3)))
        assert res.is_equilibrium
        report = is_complete_cooperation(g, res, Coalition.of(0, 1))
        assert not report.ex_ante
        assert not report.ex_post

    def test_pairwise_desire_with_pair_outcome(self):
        g = game("pd-extended")
        res = supplied(g, point_mass(g, (3, 3)))
        report = is_complete_cooperation(g, res, Coalition.of(0, 1))
        assert report.ex_ante and report.ex_post and report.complete

    @pytest.mark.parametrize("members", [(3,), (0, 5), (2, 0)])
    def test_coalition_out_of_range_is_named(self, members):
        g = game("pd-extended")
        coalition = Coalition.of(*members)
        with pytest.raises(ValueError, match=f"^coalition {re.escape(str(coalition))} out of range for n=2$"):
            is_complete_cooperation(g, first_pure_equilibrium(g), coalition)

    def test_lunch_rotation_never_commits_to_one_pair(self):
        g = game("lunch")
        res = supplied(g, lunch_claimed_profile(g))
        report = is_complete_cooperation(g, res, Coalition.of(0, 1))
        assert not report.ex_ante
        assert not report.ex_post


class TestStochastic:
    def test_lunch_claimed_is_stochastic(self):
        g = game("lunch")
        assert classify_stochastic(g, supplied(g, lunch_claimed_profile(g)))

    def test_pure_outcomes_are_not(self):
        g = game("pd-extroverts")
        (res,) = pure_nash_enumerate(g)
        assert not classify_stochastic(g, res)

    def test_randomizing_strategies_may_still_fix_the_partition(self):
        # Mixing between the alone and together defections never forms
        # the pair unless both land on together, yet with the introvert
        # column pinned alone the realized partition is constant.
        g = game("pd-mixed")
        mixed = MixedProfile(
            (
                (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2)),
                (Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
            )
        )
        res = supplied(g, mixed)
        assert res.is_equilibrium
        assert not classify_stochastic(g, res)

    def test_mixing_across_blocks_is_stochastic(self):
        g = game("pd-extended")
        res = both_h_mix(g)
        assert res.is_equilibrium
        dist = equilibrium_partitions(g, res)
        assert dist.probability(PAIR) == Fraction(1, 4)
        assert dist.probability(SPLIT) == Fraction(3, 4)
        assert classify_stochastic(g, res)


class TestLifting:
    def test_zero_padding_preserves_meaning(self):
        small = game("pd-standard")
        big = game("pd-extended")
        lifted = lift_profile(small, point_mass(small, (1, 1)), big)
        assert lifted.support(0) == (1,) and lifted.support(1) == (1,)
        assert verify_epsilon_nash(big, lifted).passed

    def test_lunch_claim_lifts_through_caps(self):
        low = restricted("lunch", 2)
        full = game("lunch")
        claimed = lunch_claimed_profile(low)
        lifted = lift_profile(low, claimed, full)
        report = verify_epsilon_nash(full, lifted)
        assert report.passed
        assert report.expected == (Fraction(137, 27),) * 4

    def test_missing_counterpart_is_an_error(self):
        big = game("pd-extended")
        small = game("pd-standard")
        on_together = point_mass(big, (3, 3))
        with pytest.raises(ValueError):
            lift_profile(big, on_together, small)


class TestCompareDomains:
    def test_positional_comparison(self):
        small = game("pd-standard")
        big = game("pd-extended")
        a = point_mass(small, (1, 1))
        b = point_mass(big, (1, 1))
        assert compare_domains(a, b)
        c = point_mass(big, (1, 3))
        assert not compare_domains(a, c)

    def test_semantic_comparison_tracks_meaning(self):
        low = restricted("lunch", 2)
        full = game("lunch")
        claimed = lunch_claimed_profile(low)
        lifted = lift_profile(low, claimed, full)
        assert compare_domains(claimed, lifted, low, full)
        moved = lunch_claimed_profile(full)
        assert compare_domains(claimed, moved, low, full)

    def test_games_must_come_in_pairs(self):
        g = game("pd-standard")
        a = point_mass(g, (1, 1))
        with pytest.raises(ValueError):
            compare_domains(a, a, g, None)

    def test_incompatible_universes_are_rejected(self):
        pd = game("pd-extended")
        partner = game("bos")
        with pytest.raises(ValueError):
            compare_domains(
                point_mass(pd, (1, 1)),
                point_mass(partner, (1, 1)),
                pd,
                partner,
            )


class TestStability:
    def test_dilemma_survives_the_pairing_cap(self):
        base = game("pd-standard")
        extended = game("pd-extended")
        result = first_pure_equilibrium(base)
        report = stability_K_star([base, extended], 1, result)
        assert report.K0 == 1
        assert report.K_star == 2
        assert [c.K for c in report.per_K_checks] == [1, 2]
        assert all(c.passed for c in report.per_K_checks)
        assert report.diagnostics == ()

    def test_hunt_flags_the_pact_without_failing(self):
        full = game("stag-hare")
        family = [full.restrict(1), full]
        result = first_pure_equilibrium(family[0])
        report = stability_K_star(family, 1, result)
        assert report.K_star == 2
        assert all(c.passed for c in report.per_K_checks)
        assert len(report.diagnostics) == 1
        diag = report.diagnostics[0]
        assert diag.K == 2
        assert diag.payoffs == (100, 100)
        assert diag.profile == (3, 3)

    def test_lunch_claim_survives_to_the_full_cap(self):
        family = [restricted("lunch", 2), restricted("lunch", 3), game("lunch")]
        base = family[0]
        result = supplied(base, lunch_claimed_profile(base))
        report = stability_K_star(family, 2, result)
        assert report.K_star == 4
        assert [c.K for c in report.per_K_checks] == [2, 3, 4]
        assert all(c.passed for c in report.per_K_checks)
        assert report.diagnostics == ()

    @pytest.mark.parametrize("lunch", [False, True])
    def test_each_cap_is_verified_once(self, monkeypatch, lunch):
        if lunch:
            family = [restricted("lunch", 2), restricted("lunch", 3), game("lunch")]
            result = supplied(family[0], lunch_claimed_profile(family[0]))
        else:
            family = [game("pd-standard"), game("pd-extended")]
            result = first_pure_equilibrium(family[0])
        verified = []

        def counted(g, mixed, tolerance=None):
            verified.append(g.max_coalition)
            return verify_epsilon_nash(g, mixed, tolerance)

        monkeypatch.setattr(analysis, "verify_epsilon_nash", counted)
        report = stability_K_star(family, family[0].max_coalition, result)
        # The base verification, then one per level above K0 visited.
        assert verified == [c.K for c in report.per_K_checks]
        assert all(c.passed for c in report.per_K_checks)

    def test_family_must_nest(self):
        pd = game("pd-standard")
        partner = game("bos")
        result = first_pure_equilibrium(pd)
        with pytest.raises(ValueError):
            stability_K_star([pd, partner], 1, result)

    def test_family_without_a_restriction_is_not_nested(self):
        small, big = unnested_pair()
        result = first_pure_equilibrium(small)
        with pytest.raises(ValueError) as caught:
            stability_K_star([small, big], 1, result)
        assert type(caught.value) is ValueError
        assert str(caught.value) == "family is not nested between caps 1 and 2"

    def test_caps_must_be_distinct(self):
        g = game("pd-extended")
        result = first_pure_equilibrium(g)
        with pytest.raises(ValueError):
            stability_K_star([g, g], 2, result)

    def test_base_game_must_be_present(self):
        g = game("pd-extended")
        result = first_pure_equilibrium(g)
        with pytest.raises(ValueError):
            stability_K_star([g], 1, result)

    def test_result_must_verify_on_the_base(self):
        base = game("pd-standard")
        extended = game("pd-extended")
        bad = supplied(base, point_mass(base, (0, 0)))
        fake = EquilibriumResult(
            profile=bad.profile,
            expected_payoffs=bad.expected_payoffs,
            max_regret=bad.max_regret,
            method="supplied",
            is_equilibrium=True,
        )
        with pytest.raises(ValueError):
            stability_K_star([base, extended], 1, fake)


HALVES = MixedProfile(((Fraction(1, 2),) * 2,) * 2)
ALONE = CoalitionStructure.singletons(2)


def three_player_game():
    """Three players at cap 3, each with the one strategy of desiring the grand coalition."""
    family = enumerate_partitions(3, 3)
    return CoalitionGame(3, 3, family, ((Strategy(0),),) * 3, Mechanism(), {(0, 0, 0): (1, 1, 1)})


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: EquilibriumPartitionSet((ALONE,), {ALONE: 0}),
            "every listed partition needs positive probability",
        ),
        (
            lambda: EquilibriumPartitionSet((ALONE,), {ALONE: Fraction(1, 2)}),
            "probabilities sum to 1/2, expected 1",
        ),
        (
            lambda: CooperationReport(Coalition.of(0, 1), True, False, True),
            "complete must equal ex_ante and ex_post",
        ),
        (
            lambda: lift_profile(game("pd-standard"), HALVES, three_player_game()),
            "games cover different player counts",
        ),
        (
            lambda: compare_domains(HALVES, MixedProfile(((1,),) * 3)),
            "profiles cover different player counts",
        ),
        (
            lambda: stability_K_star([], 1, first_pure_equilibrium(game("pd-standard"))),
            "family is empty",
        ),
        (
            lambda: stability_K_star(
                [game("pd-standard"), three_player_game()], 1, first_pure_equilibrium(game("pd-standard"))
            ),
            "family mixes player counts",
        ),
    ],
    ids=["zero mass listed", "masses off one", "complete mismatch", "lift across player counts",
         "compare across player counts", "empty family", "mixed player counts"],
)
def test_analysis_faults_keep_their_message(call, message):
    with pytest.raises(ValueError) as caught:
        call()
    assert type(caught.value) is ValueError
    assert str(caught.value) == message
