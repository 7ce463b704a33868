"""Enumeration checked against brute force and the Bell triangle, family
lookups against sets of frozensets."""

from __future__ import annotations

import random
from dataclasses import FrozenInstanceError
from math import comb

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coalition_forge import partitions
from coalition_forge.partitions import (
    Coalition,
    CoalitionStructure,
    PartitionFamily,
    enumerate_partitions,
    is_nested,
    labelled_blocks,
    restricted_bell,
)


def all_partitions(n):
    """Every set partition of range(n), built one player at a time."""
    if n == 0:
        yield []
        return
    for smaller in all_partitions(n - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [n - 1]] + smaller[i + 1 :]
        yield smaller + [[n - 1]]


def reference_walk(n, cap):
    """Recursive restricted-growth walk: player i joins each block with
    room, in block order, and then opens a new one."""
    out, blocks = [], []

    def walk(i):
        if i == n:
            out.append(CoalitionStructure.of([tuple(b) for b in blocks], n))
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


def walk_rows(n_players, max_block):
    """A loop walk over restricted growth strings, the reference for the code arrays.

    It assigns players in index order: each joins the first block from
    first_choice on that has room, or else opens a new one, and after
    each structure the walk backs up to the last player with a later
    block to try. Each leaf records the tuple of the open blocks' member
    tuples, so the result is every structure as its row, in restricted
    growth string order.
    """
    rows = []
    blocks = []  # the open blocks' member tuples
    joined = [0] * n_players  # the block each placed player is in
    before = [()] * n_players  # that block's members before the player joined
    player, first_choice = 0, 0
    while True:
        b = first_choice
        while b < len(blocks) and len(blocks[b]) >= max_block:
            b += 1
        if b == len(blocks):
            blocks.append(())
        before[player] = blocks[b]
        blocks[b] = blocks[b] + (player,)
        joined[player] = b
        player += 1
        if player < n_players:
            first_choice = 0
            continue
        rows.append(tuple(blocks))
        # A player left alone in their block opened it, the last choice they have.
        while True:
            player -= 1
            b = joined[player]
            blocks[b] = before[player]
            if blocks[b]:
                first_choice = b + 1
                break
            blocks.pop()
            if player == 0:
                return rows


def as_key(blocks):
    return frozenset(frozenset(b) for b in blocks)


def bell_triangle(rows):
    """Bell numbers by the standard triangle recurrence."""
    triangle = [[1]]
    for _ in range(rows - 1):
        prev = triangle[-1]
        row = [prev[-1]]
        for value in prev:
            row.append(row[-1] + value)
        triangle.append(row)
    return [row[0] for row in triangle]


class TestEnumeration:
    def test_matches_brute_force_filter(self):
        for n in range(1, 7):
            full = [as_key(p) for p in all_partitions(n)]
            for cap in range(1, n + 1):
                family = enumerate_partitions(n, cap)
                expected = {
                    k for k in full if max(len(b) for b in k) <= cap
                }
                got = {as_key(s.blocks) for s in family}
                assert got == expected, (n, cap)
                assert len(family) == len(expected)

    def test_counts_match_brute_force_to_eight(self):
        for n in range(1, 9):
            full = [as_key(p) for p in all_partitions(n)]
            for cap in range(1, n + 1):
                want = sum(1 for k in full if max(len(b) for b in k) <= cap)
                assert restricted_bell(n, cap) == want, (n, cap)

    def test_known_counts(self):
        assert restricted_bell(2, 1) == 1
        assert restricted_bell(2, 2) == 2
        assert restricted_bell(4, 2) == 10
        assert restricted_bell(4, 3) == 14
        assert restricted_bell(4, 4) == 15

    def test_full_counts_are_bell_numbers(self):
        bell = bell_triangle(11)
        for n in range(1, 11):
            assert restricted_bell(n, n) == bell[n]

    def test_order_is_stable_and_indexable(self):
        family = enumerate_partitions(3, 3)
        expected = [
            [[0, 1, 2]],
            [[0, 1], [2]],
            [[0, 2], [1]],
            [[0], [1, 2]],
            [[0], [1], [2]],
        ]
        assert [s for s in family] == [
            CoalitionStructure.of(blocks, 3) for blocks in expected
        ]
        for i, s in enumerate(family):
            assert family.index_of(s) == i
            assert family[i] is s

    def test_order_matches_reference_walk(self):
        for n in range(1, 9):
            for cap in range(1, n + 1):
                family = enumerate_partitions(n, cap)
                reference = reference_walk(n, cap)
                assert list(family) == reference, (n, cap)
                assert [str(s) for s in family] == [str(s) for s in reference]

    def test_equal_blocks_are_one_object(self):
        for n, cap in [(5, 5), (7, 3), (8, 2)]:
            shared = {}
            for s in enumerate_partitions(n, cap):
                for block in s:
                    assert shared.setdefault(block, block) is block
            assert len(shared) == sum(comb(n, k) for k in range(1, cap + 1))

    def test_many_players_do_not_recurse(self):
        family = enumerate_partitions(1200, 1)
        assert list(family) == [CoalitionStructure.singletons(1200)]

    def test_many_players_are_looked_up_by_wide_keys(self):
        family = enumerate_partitions(1200, 1)
        alone = CoalitionStructure.singletons(1200)
        assert alone in family and family.index_of(alone) == 0
        assert CoalitionStructure.of([[0, 1], *([m] for m in range(2, 1200))], 1200) not in family
        assert family == PartitionFamily(1200, 1, [alone]) and hash(family) == hash(PartitionFamily(1200, 1, [alone]))

    def test_codes_that_coincide_across_player_counts_are_told_apart(self):
        """{0,1} over 2 players has the code of {0,1,2} over 3 players, padded."""
        family = enumerate_partitions(3, 3)
        pair = CoalitionStructure.of([[0, 1]], 2)
        assert pair not in family
        with pytest.raises(ValueError) as caught:
            family.index_of(pair)
        assert str(caught.value) == "{{0,1}} is not in the family (n=3, cap=3)"
        assert CoalitionStructure.of([[0, 1, 2]], 3) in family

    def test_a_family_too_large_to_hold_is_refused_from_its_count(self):
        count = restricted_bell(30, 2)
        assert count == 606917269909048576
        with pytest.raises(ValueError) as caught:
            enumerate_partitions(30, 2)
        assert str(caught.value) == (
            f"the {count} partitions of 30 players with blocks of at most 2 "
            f"exceed the dense limit of {2**27} entries"
        )

    def test_the_dense_limit_counts_leader_entries(self, monkeypatch):
        # restricted_bell(4, 2) is 10 structures of 4 entries each.
        monkeypatch.setattr(partitions, "_DENSE_LIMIT", 40)
        assert len(enumerate_partitions(4, 2)) == 10
        monkeypatch.setattr(partitions, "_DENSE_LIMIT", 39)
        with pytest.raises(ValueError, match="^the 10 partitions of 4 players with blocks of at most 2 exceed"):
            enumerate_partitions(4, 2)

    def test_twelve_players_and_thirteen_at_cap_three_fit_the_limit(self):
        assert all(restricted_bell(12, K) * 12 <= partitions._DENSE_LIMIT for K in range(1, 13))
        assert restricted_bell(13, 3) * 13 <= partitions._DENSE_LIMIT < restricted_bell(13, 4) * 13

    def test_singleton_structure_always_first_cap_one(self):
        for n in range(1, 6):
            family = enumerate_partitions(n, 1)
            assert len(family) == 1
            assert family[0] == CoalitionStructure.singletons(n)

    def test_nesting(self):
        small = enumerate_partitions(4, 2)
        mid = enumerate_partitions(4, 3)
        big = enumerate_partitions(4, 4)
        assert is_nested(small, mid)
        assert is_nested(mid, big)
        assert is_nested(small, big)
        assert not is_nested(big, small)
        with pytest.raises(ValueError):
            is_nested(enumerate_partitions(3, 2), big)

    def test_nested_prefix_property(self):
        # Structures legal under the smaller cap keep relative order in
        # the larger family, since both walks share the same string order.
        small = enumerate_partitions(5, 2)
        big = enumerate_partitions(5, 4)
        positions = [big.index_of(s) for s in small]
        assert positions == sorted(positions)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            enumerate_partitions(0, 1)
        with pytest.raises(ValueError):
            enumerate_partitions(3, 0)
        with pytest.raises(ValueError):
            enumerate_partitions(3, 4)
        with pytest.raises(ValueError):
            restricted_bell(-1, 1)

    @pytest.mark.parametrize(
        "n, cap, message",
        [
            (4, 2.0, "max_block must be an integer, got 2.0"),
            (4.0, 2, "n_players must be an integer, got 4.0"),
            (True, 1, "n_players must be an integer, got True"),
            (2, True, "max_block must be an integer, got True"),
            (3, "2", "max_block must be an integer, got '2'"),
        ],
    )
    def test_non_integer_arguments(self, n, cap, message):
        restricted_bell(4, 2)  # a cached count must not answer for 2.0
        for call in (enumerate_partitions, restricted_bell):
            with pytest.raises(ValueError) as excinfo:
                call(n, cap)
            assert str(excinfo.value) == message


class TestStructures:
    def test_canonical_form(self):
        a = CoalitionStructure.of([[2, 1], [0]], 3)
        b = CoalitionStructure.of([[0], [1, 2]], 3)
        assert a == b
        assert str(a.blocks[0]) == "{0}"

    def test_rejects_overlap_and_gaps(self):
        cases = [
            ([[0, 1], [1, 2]], 3, "player 1 appears in two blocks"),
            ([[0], [2]], 3, "blocks cover [0, 2], expected all of 0..2"),
            ([[0, 1], [2, 3]], 3, "blocks cover [0, 1, 2, 3], expected all of 0..2"),
            # An overlap is reported before the gap at player 2.
            ([[0, 1], [1], [3]], 4, "player 1 appears in two blocks"),
            ([[0, 2], [2]], 3, "player 2 appears in two blocks"),
        ]
        for blocks, n, message in cases:
            with pytest.raises(ValueError) as excinfo:
                CoalitionStructure.of(blocks, n)
            assert str(excinfo.value) == message
        cases = [
            ((), "a coalition needs at least one member"),
            ((0, 0), "duplicate members in (0, 0)"),
            ((1, 1, 3), "duplicate members in (1, 1, 3)"),
            ((-1,), "negative player index in (-1,)"),
            ((2, -1, 0), "negative player index in (2, -1, 0)"),
            ((0.5,), "coalition member 0.5 of (0.5,) is not an integer"),
            ((0, True), "coalition member True of (0, True) is not an integer"),
            ((1, "2"), "coalition member '2' of (1, '2') is not an integer"),
        ]
        for members, message in cases:
            with pytest.raises(ValueError) as excinfo:
                Coalition.of(*members)
            assert str(excinfo.value) == message

    @pytest.mark.parametrize("n", [0, -1, True, 2.0, "2", None])
    def test_player_count_is_an_integer_of_at_least_one(self, n):
        message = f"n_players must be an integer of at least 1, got {n!r}"
        for build in (CoalitionStructure.singletons, lambda n: CoalitionStructure((), n),
                      lambda n: CoalitionStructure.of([[0, 1]], n)):
            with pytest.raises(ValueError) as caught:
                build(n)
            assert str(caught.value) == message

    def test_numpy_player_counts_read_back_as_int(self):
        for s in (CoalitionStructure.singletons(np.int64(2)), CoalitionStructure.of([[0, 1]], np.int8(2))):
            assert type(s.n_players) is int and s.n_players == 2
            assert s == CoalitionStructure.of([b.members for b in s], 2) and s in enumerate_partitions(2, 2)

    def test_block_lookup(self):
        s = CoalitionStructure.of([[0, 2], [1], [3]], 4)
        assert s.block_of(2) == Coalition.of(0, 2)
        assert s.block_of(1) == Coalition.of(1)
        assert s.contains_block(Coalition.of(0, 2))
        assert not s.contains_block(Coalition.of(0,))
        assert not s.contains_block(Coalition.of(1, 3))
        assert s.max_block_size == 2

    def test_block_of_partitions_family(self):
        rng = random.Random(7)
        family = enumerate_partitions(6, 3)
        for _ in range(50):
            s = family[rng.randrange(len(family))]
            player = rng.randrange(6)
            block = s.block_of(player)
            assert player in block
            assert s.contains_block(block)
            for other in block:
                assert s.block_of(other) == block


LOOKUPS = settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def rebuilt(structures, n):
    """The structures built again one by one, so no two share a Coalition."""
    return tuple(CoalitionStructure.of([b.members for b in s], n) for s in structures)


@st.composite
def families(draw):
    """An enumerated family, or one built by hand from a reordering or a subset of one."""
    n = draw(st.integers(1, 5))
    family = enumerate_partitions(n, draw(st.integers(1, n)))
    kind = draw(st.sampled_from(["enumerated", "reordered", "subset"]))
    if kind == "enumerated":
        return family
    structures = rebuilt(family, n)
    if kind == "reordered":
        structures = draw(st.permutations(structures))
    else:
        structures = draw(st.lists(st.sampled_from(structures), unique=True))
    return PartitionFamily(n, family.max_block, tuple(structures))


def oracle(family):
    """The family as a list of sets of frozensets of players."""
    return [as_key(s.blocks) for s in family]


class TestFamilyLookups:
    @LOOKUPS
    @given(families(), families())
    def test_against_sets_of_frozensets(self, first, second):
        for family in (first, second):
            structures = rebuilt(family, family.n_players)
            again = PartitionFamily(family.n_players, family.max_block, structures)
            assert family == again and hash(family) == hash(again)
            reversed_ = PartitionFamily(family.n_players, family.max_block, structures[::-1])
            assert (family == reversed_) == (oracle(family) == oracle(family)[::-1])
        same = (first.n_players, first.max_block, oracle(first)) == (
            second.n_players, second.max_block, oracle(second)
        )
        assert (first == second) == same
        assert (first != second) == (not same)
        if same:
            assert hash(first) == hash(second)
        if first.n_players != second.n_players:
            with pytest.raises(ValueError):
                is_nested(first, second)
            return
        assert is_nested(first, second) == (set(oracle(first)) <= set(oracle(second)))
        keys = oracle(second)
        for blocks in all_partitions(second.n_players):
            probe = CoalitionStructure.of(blocks, second.n_players)
            assert (probe in second) == (as_key(blocks) in keys)
            if probe in second:
                assert second.index_of(probe) == keys.index(as_key(blocks))
            else:
                with pytest.raises(ValueError):
                    second.index_of(probe)

    def test_other_values_are_not_members(self):
        family = enumerate_partitions(3, 2)
        for value in [None, 0, "{0,1},{2}", ((0, 1), (2,)), [[0, 1], [2]], Coalition.of(0, 1)]:
            assert value not in family
        assert CoalitionStructure.singletons(4) not in family
        assert family != "family" and family != family._leaders

    def test_reads_build_structures_once_and_only_when_read(self, monkeypatch):
        smaller = enumerate_partitions(10, 2)
        probe = CoalitionStructure.singletons(10)
        built = []
        check = CoalitionStructure.__post_init__

        def counted(structure):
            built.append(structure)
            check(structure)

        monkeypatch.setattr(CoalitionStructure, "__post_init__", counted)
        family = enumerate_partitions(10, 3)
        assert len(family) == restricted_bell(10, 3)
        assert probe in family
        assert family.index_of(probe) == len(family) - 1
        assert is_nested(smaller, family) and not is_nested(family, smaller)
        assert family == enumerate_partitions(10, 3)
        hash(family)
        assert built == []
        first = family[0]
        assert len(built) == len(family)
        assert list(family) == list(family.structures) == built
        assert family[0] is first and family[-1] is built[-1]
        assert len(built) == len(family)


N_AND_CAP = st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n)))


class TestCodesAgainstTheWalk:
    @LOOKUPS
    @given(N_AND_CAP)
    def test_same_structures_in_the_same_order_and_lookups(self, n_and_cap):
        n, cap = n_and_cap
        family = enumerate_partitions(n, cap)
        rows = walk_rows(n, cap)
        assert len(family) == len(rows) == restricted_bell(n, cap)
        assert [tuple(b.members for b in s) for s in family] == rows
        assert [tuple(row) for row in family._leaders.tolist()] == [partitions._row(s) for s in family]
        assert family._find(family._leaders).tolist() == list(range(len(family)))
        position = {as_key(row): i for i, row in enumerate(rows)}
        for blocks in all_partitions(n):
            probe = CoalitionStructure.of(blocks, n)
            i = position.get(as_key(blocks))
            assert (probe in family) == (i is not None)
            if i is None:
                with pytest.raises(ValueError):
                    family.index_of(probe)
            else:
                assert family.index_of(probe) == i
        for other_cap in range(1, n + 1):
            other = enumerate_partitions(n, other_cap)
            assert is_nested(family, other) == (cap <= other_cap)
            assert is_nested(other, family) == (other_cap <= cap)
        hand_built = PartitionFamily(n, cap, rebuilt(family, n))
        assert hand_built == family and hash(hand_built) == hash(family)
        if len(family) > 1:
            assert PartitionFamily(n, cap, rebuilt(family, n)[::-1]) != family


@pytest.mark.parametrize("n, cap", [(1, 1), (2, 1), (2, 2), (4, 2), (5, 5), (7, 3), (65, 1)])
def test_labelled_blocks_are_the_blocks_of_each_structure_labelled_once(n, cap):
    family = enumerate_partitions(n, cap)
    calls = []

    def label(members):
        calls.append(members)
        return list(members)

    rows = labelled_blocks(family, label)
    assert [tuple(map(tuple, row)) for row in rows] == [tuple(b.members for b in s) for s in family]
    # One label per distinct block, shared by every structure that has the block.
    assert len(calls) == len(set(calls)) == len({b for s in family for b in s})
    shared = {id(block) for row in rows for block in row}
    assert len(shared) == len(calls)


@pytest.mark.parametrize("n", [16, 17, 127, 128, 129])
def test_hand_built_families_at_the_edges_of_the_code_format(n):
    """Rows of 16 and 17 players are keyed as every row is, and leaders need 16 bits from 128."""
    structures = [
        CoalitionStructure.singletons(n),
        CoalitionStructure.of([range(n)], n),
        CoalitionStructure.of([[0, n - 1], *([m] for m in range(1, n - 1))], n),
        CoalitionStructure.of([range(0, n, 2), range(1, n, 2)], n),
        CoalitionStructure.of([[m, m + 1] for m in range(0, n - 1, 2)] + ([[n - 1]] if n % 2 else []), n),
    ]
    family = PartitionFamily(n, n, structures)
    backwards = PartitionFamily(n, n, structures[::-1])
    for i, s in enumerate(structures):
        assert s in family and family.index_of(s) == i
        assert backwards.index_of(s) == len(structures) - 1 - i
    for absent in (
        CoalitionStructure.of([[0, 1], *([m] for m in range(2, n))], n),
        CoalitionStructure.of([[0], range(1, n)], n),
        CoalitionStructure.singletons(n - 1),
    ):
        assert absent not in family and absent not in backwards
    assert is_nested(family, backwards) and is_nested(backwards, family)
    assert not is_nested(family, PartitionFamily(n, n, structures[1:]))
    assert family == PartitionFamily(n, n, rebuilt(structures, n)) and family != backwards
    assert hash(family) == hash(PartitionFamily(n, n, rebuilt(structures, n)))
    assert list(PartitionFamily._of_leaders(n, n, family._leaders.copy())) == structures


@pytest.mark.parametrize("n", [16, 17])
def test_single_lookups_agree_with_the_family_lookup_on_hand_built_families(n):
    """in and index_of give what _lookup gives, at 16 and 17 players."""
    rng = np.random.default_rng(n)
    labels = [rng.integers(0, k, n) for k in (2, 3, 5, 8, 13, n)]
    drawn = [CoalitionStructure.of([np.flatnonzero(row == v) for v in np.unique(row)], n) for row in labels]
    # The last two differ only in the last player's block, the last byte of their keys.
    edges = [CoalitionStructure.of([range(n)], n), CoalitionStructure.of([range(n - 1), [n - 1]], n)]
    probes = PartitionFamily(n, n, dict.fromkeys([*drawn, CoalitionStructure.singletons(n), *edges]))
    family = PartitionFamily(n, n, probes[::-2])  # every other probe, out of key order
    found = family._lookup(probes).tolist()
    assert sorted(found) == [-1] * (len(probes) - len(family)) + list(range(len(family)))
    assert [s in family for s in probes] == [i >= 0 for i in found]
    assert [family.index_of(s) for s in probes if s in family] == [i for i in found if i >= 0]
    for s in probes:
        if s not in family:
            with pytest.raises(ValueError, match="is not in the family"):
                family.index_of(s)


class TestFamilyValue:
    ENUMERATED_REPR = (
        "PartitionFamily(n_players=3, max_block=2, structures=("
        "CoalitionStructure(blocks=(Coalition(members=(0, 1)), Coalition(members=(2,))), n_players=3), "
        "CoalitionStructure(blocks=(Coalition(members=(0, 2)), Coalition(members=(1,))), n_players=3), "
        "CoalitionStructure(blocks=(Coalition(members=(0,)), Coalition(members=(1, 2))), n_players=3), "
        "CoalitionStructure(blocks=(Coalition(members=(0,)), Coalition(members=(1,)), "
        "Coalition(members=(2,))), n_players=3)))"
    )
    HAND_BUILT_REPR = (
        "PartitionFamily(n_players=2, max_block=2, structures=("
        "CoalitionStructure(blocks=(Coalition(members=(0, 1)),), n_players=2), "
        "CoalitionStructure(blocks=(Coalition(members=(0,)), Coalition(members=(1,))), n_players=2)))"
    )

    def hand_built(self):
        return PartitionFamily(2, 2, [CoalitionStructure.of([[0, 1]], 2), CoalitionStructure.singletons(2)])

    def test_repr_lists_every_structure(self):
        assert repr(enumerate_partitions(3, 2)) == self.ENUMERATED_REPR
        assert repr(self.hand_built()) == self.HAND_BUILT_REPR

    def test_repr_of_a_large_family_shows_a_few_structures_from_its_rows(self):
        family = enumerate_partitions(10, 10)
        text = repr(family)
        assert len(text) < 2_000 and text.endswith(", ...))")
        assert "structures" not in vars(family)
        family = enumerate_partitions(4, 2)  # 10 structures, the first 6 shown
        shown = ", ".join(map(repr, family.structures[:6]))
        assert repr(family) == f"PartitionFamily(n_players=4, max_block=2, structures=({shown}, ...))"

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda f: setattr(f, "n_players", 1), "cannot assign to field 'n_players'"),
            (lambda f: setattr(f, "colour", "red"), "cannot assign to field 'colour'"),
            (lambda f: delattr(f, "structures"), "cannot delete field 'structures'"),
            (lambda f: delattr(f, "_leaders"), "cannot delete field '_leaders'"),
        ],
    )
    def test_is_frozen(self, change, message):
        for family in (enumerate_partitions(3, 2), self.hand_built()):
            with pytest.raises(FrozenInstanceError) as caught:
                change(family)
            assert str(caught.value) == message
        assert family.n_players == 2 and len(family.structures) == 2

    @pytest.mark.parametrize(
        "n, K, structures, message",
        [
            (3, 2, [((0, 1, 2),)], "family entry 0 {{0,1,2}} has a block larger than the cap 2"),
            (2, 2, [((0, 1),), ((0,), (1, 2))], "family entry 1 {{0},{1,2}} covers 3 players, expected 2"),
            (3, 3, [1, 2], "family entry 0 is not a CoalitionStructure: 1"),
            (2, 2, [((0,), (1,)), ((0,), (1,)), ((0, 1),)], "family entry 1 {{0},{1}} repeats entry 0"),
            (2, 3, [], "block cap must satisfy 1 <= K <= n, got K=3 for n=2"),
        ],
    )
    def test_hand_built_families_refuse_what_no_cap_enumerates(self, n, K, structures, message):
        structures = [
            CoalitionStructure.of(s, len(sum(s, ()))) if isinstance(s, tuple) else s
            for s in structures
        ]
        with pytest.raises(ValueError) as caught:
            PartitionFamily(n, K, structures)
        assert str(caught.value) == message

    def test_numpy_dimensions_read_back_as_int(self):
        for family in (
            enumerate_partitions(np.int64(2), np.int64(2)),
            PartitionFamily(np.int64(2), np.int64(2), enumerate_partitions(2, 2)),
        ):
            assert type(family.n_players) is int and type(family.max_block) is int
            assert repr(family) == repr(enumerate_partitions(2, 2))

    def test_reads_are_kept(self):
        family = enumerate_partitions(4, 2)
        assert family.structures is family.structures
        assert family._sorted is family._sorted
        structures = tuple(CoalitionStructure.of([b.members for b in s], 4) for s in family)
        hand_built = PartitionFamily(4, 2, structures)
        assert hand_built.structures is structures
        assert hand_built == family and hash(hand_built) == hash(family)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: s.block_of(2), "player 2 out of range 0..1"),
        (lambda s: s.block_of(-1), "player -1 out of range 0..1"),
        (lambda s: s.block_of(0.5), "player 0.5 out of range 0..1"),
        (lambda s: s.block_of(True), "player True out of range 0..1"),
        (lambda s: s.contains_block(Coalition.of(0, 5)), "coalition {0,5} out of range for n=2"),
    ],
    ids=["block of player 2", "block of player -1", "block of player 0.5", "block of player True",
         "block beyond n"],
)
def test_structure_reads_out_of_range_keep_their_message(call, message):
    with pytest.raises(ValueError) as caught:
        call(CoalitionStructure.singletons(2))
    assert type(caught.value) is ValueError
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "player, member",
    [(1, True), (np.int64(1), True), (0, False), (2, False), (True, False), (1.0, False),
     (np.float64(1), False), ("1", False), (None, False)],
    ids=["1", "np.int64 1", "0", "2", "True", "1.0", "np.float64 1", "'1'", "None"],
)
def test_membership_reads_integers_only(player, member):
    assert (player in Coalition.of(1)) is member
