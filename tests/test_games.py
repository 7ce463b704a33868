"""Mechanism, domains and nested restriction on the concrete games."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest

from _shared import game as build_game, restricted
from coalition_forge import catalog, games
from coalition_forge.analysis import stability_K_star
from coalition_forge.gamefile import load_game, save_game
from coalition_forge.games import (
    CoalitionGame,
    Mechanism,
    Strategy,
    ValidationError,
    payoff_isomorphic,
    restrict_game,
)
from coalition_forge.partitions import (
    Coalition,
    CoalitionStructure,
    enumerate_partitions,
)
from coalition_forge.solver import first_pure_equilibrium, pure_nash_enumerate

PAIR = CoalitionStructure.of([[0, 1]], 2)
SPLIT = CoalitionStructure.singletons(2)


class TestUnanimity:
    # pd-extended strategy order per player: L_a, H_a, L_t, H_t.

    def test_pair_needs_both(self):
        game = build_game("pd-extended")
        assert game.realized_partition((3, 3)) == PAIR
        assert game.realized_partition((2, 3)) == PAIR
        assert game.realized_partition((3, 1)) == SPLIT
        assert game.realized_partition((1, 3)) == SPLIT
        assert game.realized_partition((0, 0)) == SPLIT

    def test_action_does_not_gate_formation(self):
        game = build_game("bos")
        for i in (2, 3):
            for j in (2, 3):
                assert game.realized_partition((i, j)) == PAIR

    def test_formed_blocks_are_exactly_unanimous(self):
        game = restricted("lunch", 2)
        rng = random.Random(11)
        for _ in range(200):
            profile = tuple(
                rng.randrange(len(game.strategy_sets[i])) for i in range(4)
            )
            realized = game.realized_partition(profile)
            for block in realized.blocks:
                if block.size < 2:
                    continue
                for member in block:
                    desired = game.desired_structure(member, profile[member])
                    assert desired.contains_block(block)
            # Any unanimously desired pair must have formed.
            for i in range(4):
                want = game.desired_structure(i, profile[i])
                mine = want.block_of(i)
                if mine.size >= 2 and all(
                    game.desired_structure(j, profile[j]).block_of(j) == mine
                    for j in mine
                ):
                    assert realized.contains_block(mine)

    def test_veto_dissolves_to_singletons(self):
        game = build_game("pd-extended")
        assert game.realized_partition((3, 3)) == PAIR
        for lonely in (0, 1):
            assert game.realized_partition((3, lonely)) == SPLIT
            assert game.realized_partition((lonely, 3)) == SPLIT

    def test_table_mechanism_is_looked_up(self):
        family = enumerate_partitions(2, 2)
        sets = (
            (Strategy(1, "x"), Strategy(0, "y")),
            (Strategy(1, "x"), Strategy(0, "y")),
        )
        # Deliberately perverse table: the pair forms unless both ask for it.
        table = {
            (0, 0): PAIR,
            (0, 1): PAIR,
            (1, 0): PAIR,
            (1, 1): SPLIT,
        }
        payoffs = {p: (Fraction(0), Fraction(0)) for p in table}
        game = CoalitionGame(2, 2, family, sets, Mechanism("table", table), payoffs)
        assert game.realized_partition((1, 1)) == SPLIT
        assert game.realized_partition((0, 1)) == PAIR
        missing = dict(table)
        del missing[(1, 0)]
        broken = CoalitionGame(
            2, 2, family, sets, Mechanism("table", missing), payoffs
        )
        with pytest.raises(ValidationError):
            broken.validate_domains()


class TestDomains:
    def test_single_domain_when_cap_is_one(self):
        domains = build_game("pd-standard").validate_domains()
        assert len(domains) == 1
        ((structure, profiles),) = list(domains)
        assert structure == SPLIT
        assert len(profiles) == 4

    def test_pair_and_split_domains(self):
        for game_id in ("pd-extended", "stag-hare", "bos"):
            game = build_game(game_id)
            domains = dict(game.validate_domains())
            assert set(domains) == {PAIR, SPLIT}
            assert len(domains[PAIR]) == 4
            assert len(domains[SPLIT]) == 12

    def test_domains_cover_and_respect_family_order(self):
        game = restricted("lunch", 2)
        domains = game.validate_domains()
        assert domains.profile_count() == game.n_profiles
        order = list(game.family.structures)
        listed = [s for s, _ in domains]
        assert listed == [s for s in order if s in set(listed)]
        seen = set()
        for _, profiles in domains:
            for p in profiles:
                assert p not in seen
                seen.add(p)
        assert len(seen) == game.n_profiles

    def test_every_lunch_structure_is_realizable(self):
        game = build_game("lunch")
        domains = game.validate_domains()
        assert len(domains) == len(game.family)


class TestPayoffs:
    def test_lunch_values(self):
        game = build_game("lunch")
        by_structure = {
            tuple(tuple(b.members) for b in s.blocks): s for s in game.family
        }

        def profile_desiring(structure):
            return tuple(
                game.strategy_sets[i].index(
                    Strategy(game.family.index_of(structure))
                )
                for i in range(4)
            )

        one_pair = by_structure[((0, 1), (2,), (3,))]
        two_pair = by_structure[((0, 1), (2, 3))]
        triple = by_structure[((0, 1, 2), (3,))]
        grand = by_structure[((0, 1, 2, 3),)]

        assert game.payoff(profile_desiring(one_pair)) == (10, 10, 3, 3)
        assert game.payoff(profile_desiring(two_pair)) == (3, 3, 3, 3)
        assert game.payoff(profile_desiring(triple)) == (0, 0, 0, 0)
        assert game.payoff(profile_desiring(grand)) == (0, 0, 0, 0)

    def test_coalition_value(self):
        game = build_game("lunch")
        ab = Coalition.of(0, 1)

        def all_desire(blocks):
            structure = CoalitionStructure.of(blocks, 4)
            idx = game.family.index_of(structure)
            return tuple(
                game.strategy_sets[i].index(Strategy(idx)) for i in range(4)
            )

        assert game.coalition_value(all_desire([[0, 1], [2], [3]]), ab) == 20
        assert game.coalition_value(all_desire([[0, 1], [2, 3]]), ab) == 6
        with pytest.raises(ValueError):
            game.coalition_value(all_desire([[0, 2], [1], [3]]), ab)

    def test_payoffs_are_exact_rationals(self):
        game = build_game("bos", eps=Fraction(1, 10))
        for profile in game.profiles():
            for value in game.payoff(profile):
                assert isinstance(value, Fraction)


class TestMappingsAfterTheirRead:
    """A game built from mappings holds the read-only view of what it read in each mapping's place."""

    SETS = ((Strategy(1, "x"), Strategy(0, "y")),) * 2

    def test_payoffs_written_after_the_first_read_are_refused(self):
        game = CoalitionGame(2, 2, enumerate_partitions(2, 2), self.SETS, payoffs={})
        # Filled after construction, as demos/custom_games.py fills its game.
        for profile in game.profiles():
            game.payoffs[profile] = (Fraction(sum(profile)), Fraction(1))
        game.payoffs[(0, 0)] = (Fraction(3), Fraction(3))
        assert game.payoff((0, 0)) == (3, 3)
        before = repr(pure_nash_enumerate(game))
        with pytest.raises(TypeError):
            game.payoffs[(0, 0)] = (5, 5)
        assert game.payoffs[(0, 0)] == game.payoff((0, 0)) == (3, 3)
        assert repr(pure_nash_enumerate(game)) == before
        assert dict(game.payoffs) == {p: game.payoff(p) for p in game.profiles()}

    def test_payoffs_stay_writable_after_a_failed_read(self):
        game = CoalitionGame(2, 2, enumerate_partitions(2, 2), self.SETS, payoffs={(0, 0): (1, 1)})
        with pytest.raises(ValidationError, match=r"no entry for profile \(0, 1\)"):
            game.payoff((0, 0))
        for profile in game.profiles():
            game.payoffs[profile] = (Fraction(2), Fraction(2))
        assert game.payoff((1, 1)) == (2, 2)
        with pytest.raises(TypeError):
            game.payoffs[(1, 1)] = (1, 1)

    def test_a_table_written_after_the_first_read_is_refused(self):
        payoffs = {p: (Fraction(0), Fraction(0)) for p in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        game = CoalitionGame(2, 2, enumerate_partitions(2, 2), self.SETS, Mechanism("table", {}), payoffs)
        for profile in game.profiles():
            game.mechanism.table[profile] = SPLIT
        game.mechanism.table[(1, 1)] = PAIR
        assert game.realized_partition((1, 1)) == PAIR
        with pytest.raises(TypeError):
            game.mechanism.table[(1, 1)] = SPLIT
        assert game.mechanism.kind == "table"
        assert game.mechanism.table[(1, 1)] == game.realized_partition((1, 1)) == PAIR
        assert dict(game.mechanism.table) == {p: game.realized_partition(p) for p in game.profiles()}
        assert [len(profiles) for _, profiles in game.validate_domains()] == [1, 3]

    def test_a_callers_own_mappings_are_read_once_at_the_first_read(self):
        """Writes to the caller's mappings count until the game reads them, then go unseen."""
        payoffs = {p: (Fraction(0), Fraction(0)) for p in [(0, 0), (0, 1), (1, 0), (1, 1)]}
        table = {p: SPLIT for p in payoffs}
        game = CoalitionGame(2, 2, enumerate_partitions(2, 2), self.SETS, Mechanism("table", table), payoffs)
        payoffs[(0, 0)] = (Fraction(3), Fraction(3))
        table[(1, 1)] = PAIR
        assert game.payoff((0, 0)) == (3, 3)
        assert game.realized_partition((1, 1)) == PAIR
        payoffs[(0, 0)] = (Fraction(5), Fraction(5))
        table[(1, 1)] = SPLIT
        assert game.payoff((0, 0)) == game.payoffs[(0, 0)] == (3, 3)
        assert game.realized_partition((1, 1)) == game.mechanism.table[(1, 1)] == PAIR
        assert game.payoffs is not payoffs and game.mechanism.table is not table


class TestRestriction:
    def test_restrict_to_base_dilemma(self):
        extended = build_game("pd-extended")
        standard = build_game("pd-standard")
        assert payoff_isomorphic(extended.restrict(1), standard)
        assert payoff_isomorphic(restrict_game(extended, 1), standard)

    def test_restrict_is_identity_at_own_cap(self):
        game = build_game("stag-hare")
        assert game.restrict(2) is game

    def test_restrict_keeps_alone_block(self):
        game = build_game("stag-hare")
        small = game.restrict(1)
        assert small.n_profiles == 4
        # Alone, the stag is never taken: hare pays 8, stag pays 0.
        labels = [s.action for s in small.strategy_sets[0]]
        hare = labels.index("hare")
        stag = labels.index("stag")
        assert small.payoff((hare, hare)) == (8, 8)
        assert small.payoff((stag, stag)) == (0, 0)
        assert small.payoff((stag, hare)) == (0, 8)

    def test_restriction_chain_matches_pointwise(self):
        game = build_game("lunch")
        mid = game.restrict(3)
        low = game.restrict(2)
        assert payoff_isomorphic(mid.restrict(2), low)
        # Every restricted profile keeps the payoff of its parent profile.
        parent_rows = [
            [
                j
                for j, s in enumerate(game.strategy_sets[i])
                if game.desired_structure(i, j).max_block_size <= 2
            ]
            for i in range(4)
        ]
        rng = random.Random(3)
        for _ in range(100):
            small_profile = tuple(
                rng.randrange(len(low.strategy_sets[i])) for i in range(4)
            )
            parent_profile = tuple(
                parent_rows[i][small_profile[i]] for i in range(4)
            )
            assert low.payoff(small_profile) == game.payoff(parent_profile)

    def test_lunch_and_its_restrictions_run_the_rule_once(self, monkeypatch):
        rule, calls = games._unanimity_index, []

        def counted(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(games, "_unanimity_index", counted)
        monkeypatch.setattr(catalog, "_unanimity_index", counted)
        lunch = catalog.build_game("lunch")
        lunch.realized_index
        for cap in (2, 3):
            lunch.restrict(cap).realized_index
        assert len(calls) == 1

    def test_loaded_unanimity_files_restrict_without_the_rule(self, monkeypatch, tmp_path):
        for cap in (2, 3):
            save_game(restricted("lunch", cap), tmp_path / f"lunch_K{cap}.json")
        small, _ = load_game(tmp_path / "lunch_K2.json")
        big, _ = load_game(tmp_path / "lunch_K3.json")
        result = first_pure_equilibrium(small)
        rule, calls = games._unanimity_index, []

        def counted(*args):
            calls.append(args)
            return rule(*args)

        monkeypatch.setattr(games, "_unanimity_index", counted)
        sliced = big.restrict(2)
        assert calls == [] and "realized_index" not in vars(sliced)
        # The nesting check of the stability scan restricts the cap 3 game.
        assert stability_K_star([small, big], 2, result).K_star == 3
        assert calls == []
        # Read afterwards, the index is the rule's, and the slice of the
        # larger game's once that game holds its own.
        expected = rule(sliced.family, sliced.strategy_sets)
        assert np.array_equal(sliced.realized_index, expected)
        big.realized_index
        assert np.array_equal(big.restrict(2).realized_index, expected)
        assert len(calls) == 2

    def test_restrict_to_a_numpy_cap_holds_int_dimensions(self):
        game = build_game("lunch").restrict(np.int64(2))
        assert type(game.max_coalition) is int
        assert type(game.family.n_players) is int and type(game.family.max_block) is int
        assert repr(game.family) == repr(enumerate_partitions(4, 2))

    def test_restrict_rejects_bad_caps(self):
        game = build_game("pd-extended")
        with pytest.raises(ValueError):
            game.restrict(0)
        with pytest.raises(ValueError):
            game.restrict(3)
        bos = build_game("bos")
        for cap in (2.0, 1.0, True, "2"):
            for restrict in (bos.restrict, lambda cap: restrict_game(bos, cap)):
                with pytest.raises(ValueError) as caught:
                    restrict(cap)
                assert str(caught.value) == f"restriction cap must be an integer, got {cap!r}"
        assert bos.restrict(np.int64(2)) is bos
        assert type(bos.restrict(np.int64(1)).max_coalition) is int


class TestValidation:
    def test_strategy_index_bounds(self):
        family = enumerate_partitions(2, 1)
        with pytest.raises(ValidationError):
            CoalitionGame(
                2,
                1,
                family,
                ((Strategy(0), Strategy(1)), (Strategy(0),)),
            )

    @pytest.mark.parametrize(
        "player, strategy, message",
        [
            (0, -1, "strategy index -1 out of range for player 0"),
            (0, 4, "strategy index 4 out of range for player 0"),
            (0, True, "strategy index True out of range for player 0"),
            (0, 1.0, "strategy index 1.0 out of range for player 0"),
            (2, 0, "player index 2 out of range"),
            (-1, 0, "player index -1 out of range"),
            (True, 0, "player index True out of range"),
            (1.0, 0, "player index 1.0 out of range"),
        ],
    )
    def test_strategy_reads_reject_bad_indices(self, player, strategy, message):
        game = build_game("bos")
        for read in (game.desired_structure, game.strategy_key):
            with pytest.raises(ValueError) as caught:
                read(player, strategy)
            assert str(caught.value) == message
        assert game.desired_structure(np.int64(1), np.int64(3)) == game.desired_structure(1, 3)
        assert game.strategy_key(np.int64(1), np.int64(3)) == game.strategy_key(1, 3)

    def test_duplicate_strategies_rejected(self):
        family = enumerate_partitions(2, 1)
        with pytest.raises(ValidationError):
            CoalitionGame(
                2,
                1,
                family,
                ((Strategy(0), Strategy(0)), (Strategy(0),)),
            )

    def test_missing_payoffs_fail_before_the_mechanism_is_built(self):
        # 810,000 declared profiles: the payoff check must come first,
        # before the structure index allocates arrays of that size.
        family = enumerate_partitions(4, 4)
        strategies = tuple(
            Strategy(k, action) for k in range(len(family)) for action in ("x", "y")
        )
        game = CoalitionGame(
            4, 4, family, (strategies,) * 4, payoffs={(0, 0, 0, 0): (0, 0, 0, 0)}
        )
        with pytest.raises(ValidationError, match=r"no entry for profile \(0, 0, 0, 1\)"):
            game.validate_domains()
        assert "realized_index" not in game.__dict__

    def test_restrict_slices_without_rebuilding_or_revalidating(self, monkeypatch):
        lunch = build_game("lunch")
        lunch.realized_index
        calls = []
        monkeypatch.setattr(games, "_unanimity_index", lambda *args: calls.append(args))
        small = lunch.restrict(3)
        monkeypatch.undo()
        assert calls == []
        # The unanimity game holds the slice of its parent's index.
        assert "realized_index" in vars(small)
        assert np.array_equal(
            small.realized_index, games._unanimity_index(small.family, small.strategy_sets)
        )
        assert not isinstance(small.payoffs, dict)
        # A table may still realize a block larger than the new cap.
        family = enumerate_partitions(2, 2)
        strategies = tuple(
            Strategy(family.index_of(s), a) for s, a in [(SPLIT, "x"), (SPLIT, "y"), (PAIR, "x")]
        )
        profiles = [(i, j) for i in range(3) for j in range(3)]
        table = {p: PAIR if p == (0, 1) else SPLIT for p in profiles}
        game = CoalitionGame(
            2, 2, family, (strategies,) * 2, Mechanism("table", table), dict.fromkeys(profiles, (0, 0))
        )
        with pytest.raises(ValidationError) as caught:
            game.restrict(1)
        assert str(caught.value) == "profile (0, 1) realizes {{0,1}}, outside the family cap 1"

    @pytest.mark.parametrize(
        "early, late, message",
        [
            (None, PAIR, "mechanism table has no entry for profile (0, 1)"),
            (PAIR, None, "profile (0, 1) realizes {{0,1}}, outside the family cap 1"),
        ],
    )
    def test_a_table_names_its_earliest_faulty_profile(self, early, late, message):
        # Either order of the two faulty objects' ids is met by one case.
        family = enumerate_partitions(2, 1)
        strategies = (Strategy(0, "x"), Strategy(0, "y"))
        table = {(0, 0): SPLIT, (0, 1): early, (1, 0): late, (1, 1): late}
        game = CoalitionGame(2, 1, family, (strategies,) * 2, Mechanism("table", table))
        with pytest.raises(ValidationError) as caught:
            game.realized_index
        assert str(caught.value) == message

    def test_a_profile_space_too_large_for_a_dense_table_is_refused(self, monkeypatch):
        # 52**5 = 380,204,032 profiles: refused before anything walks them.
        def walked(*args):
            raise AssertionError("the profile space was walked")

        monkeypatch.setattr(CoalitionGame, "profiles", walked)
        monkeypatch.setattr(games, "_unanimity_index", walked)
        family = enumerate_partitions(5, 5)
        strategy_sets = (tuple(Strategy(k) for k in range(len(family))),) * 5
        unanimity = CoalitionGame(5, 5, family, strategy_sets)
        table = CoalitionGame(5, 5, family, strategy_sets, Mechanism("table", {}))
        for game, read, width in [
            (unanimity, "payoff_ints", 5),
            (unanimity, "realized_index", 1),
            (table, "realized_index", 1),
        ]:
            with pytest.raises(ValidationError) as caught:
                getattr(game, read)
            assert str(caught.value) == (
                f"380204032 profiles of {width} entries each exceed "
                "the dense table limit of 134217728 entries"
            )
        with pytest.raises(ValidationError, match="dense table limit"):
            unanimity.validate_domains()

    def test_the_dense_limit_counts_entries(self, monkeypatch):
        # 16 profiles of 2 payoffs each, but one structure index each.
        monkeypatch.setattr(games, "_DENSE_LIMIT", 16)
        pd = build_game("pd-extended")
        game = CoalitionGame(2, 2, pd.family, pd.strategy_sets, payoffs=dict(pd.payoffs))
        assert np.array_equal(game.realized_index, pd.realized_index)
        with pytest.raises(ValidationError, match="^16 profiles of 2 entries each exceed the dense"):
            game.payoff_ints

    def test_family_dimensions_must_match(self):
        family = enumerate_partitions(3, 2)
        with pytest.raises(ValidationError):
            CoalitionGame(2, 2, family, ((Strategy(0),), (Strategy(0),)))

    @pytest.mark.parametrize(
        "n, cap, message",
        [
            (2, 2.0, "max_coalition must be an integer, got 2.0"),
            (2.0, 2, "n_players must be an integer, got 2.0"),
            (True, True, "n_players must be an integer, got True"),
            (2, "2", "max_coalition must be an integer, got '2'"),
        ],
    )
    def test_dimensions_must_be_integers(self, n, cap, message):
        family = enumerate_partitions(2, 2)
        with pytest.raises(ValidationError) as caught:
            CoalitionGame(n, cap, family, ((Strategy(0),), (Strategy(0),)), payoffs={(0, 0): (0, 0)})
        assert str(caught.value) == message

    def test_numpy_integer_dimensions_save_and_load(self, tmp_path):
        pd = build_game("pd-extended")
        game = CoalitionGame(np.int64(2), np.int64(2), pd.family, pd.strategy_sets, payoffs=dict(pd.payoffs))
        assert type(game.n_players) is int and type(game.max_coalition) is int
        save_game(game, tmp_path / "game.json")
        loaded, _ = load_game(tmp_path / "game.json")
        assert (loaded.n_players, loaded.max_coalition) == (2, 2)
        assert payoff_isomorphic(loaded, pd)


ALONE = (Strategy(0),)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Mechanism("majority"), ValueError, "unknown mechanism kind 'majority'"),
        (lambda: Mechanism(games.TABLE), ValueError, "table mechanism needs an explicit profile map"),
        (lambda: Mechanism(games.UNANIMITY, {}), ValueError, "unanimity mechanism takes no table"),
        (
            lambda: CoalitionGame(0, 1, enumerate_partitions(1, 1), ()),
            ValidationError,
            "need at least one player",
        ),
        (
            lambda: CoalitionGame(2, 3, enumerate_partitions(2, 2), (ALONE, ALONE)),
            ValidationError,
            "coalition cap must satisfy 1 <= K <= n, got 3",
        ),
        (
            lambda: CoalitionGame(2, 1, enumerate_partitions(2, 1), (ALONE,)),
            ValidationError,
            "one strategy set per player required",
        ),
        (
            lambda: CoalitionGame(2, 1, enumerate_partitions(2, 1), (ALONE, ())),
            ValidationError,
            "player 1 has an empty strategy set",
        ),
        (
            lambda: CoalitionGame(2, 2, enumerate_partitions(2, 2), (ALONE, (Strategy(0), Strategy(1.0)))),
            ValidationError,
            "player 1 desires partition index 1.0, family has 2",
        ),
        (
            lambda: CoalitionGame(2, 2, enumerate_partitions(2, 2), ((Strategy(True),), ALONE)),
            ValidationError,
            "player 0 desires partition index True, family has 2",
        ),
    ],
    ids=["unknown kind", "table without map", "unanimity with table", "no players",
         "cap above n", "too few strategy sets", "empty strategy set", "float desire",
         "bool desire"],
)
def test_construction_faults_keep_their_type_and_message(build, error, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == message
