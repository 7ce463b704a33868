"""Normal-form games whose strategies carry a desired coalition structure.

A strategy is a (desired partition, action) pair. A mechanism maps every
profile of desires to one realized coalition structure, which splits the
profile space into disjoint domains, one per reachable structure.

Payoffs come in as a mapping from profile to exact rationals. On first
use a game reads it, in one pass, into its one payoff tensor,
payoff_ints: shape (*strategy counts, n_players),
every payoff times payoff_scale (the lcm of every payoff's denominator)
as an exact integer, int64 when every value fits and Python ints
otherwise. The mechanism becomes a realized-structure index: the family
index of the structure each profile realizes. Every consumer reads
these two arrays. Scaling by a positive integer keeps every order and
tie, so comparisons (best-reply counts, payoff peaks, the group-redesire
screen, the Pareto filter of the stability scan) read the integers as
they are; exact values divide a contraction of them by payoff_scale
once per value, and float values read each payoff rounded once from
its exact value. A single payoff is its integer over payoff_scale. A
game file is read straight into the payoff tensor, and restrict slices
both arrays; either game adopts its tensor with no pass.

Profiles are plain tuples of per-player strategy indices, ordered by
player. They index both tensors, and their lexicographic order is the
iteration order used everywhere deterministic output is promised.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import gcd, lcm, prod
from numbers import Rational

import numpy as np

from .partitions import Coalition, CoalitionStructure, PartitionFamily, enumerate_partitions

Profile = tuple[int, ...]

UNANIMITY = "unanimity"
TABLE = "table"


class ValidationError(ValueError):
    """A game, file, or profile failed a structural consistency check."""


@dataclass(frozen=True)
class Strategy:
    """A desired partition (index into the game's family) plus an action label.

    Games without intra-coalition moves use an empty action string.
    """

    desired_partition: int
    action: str = ""


@dataclass(frozen=True)
class Mechanism:
    """Rule taking a full strategy profile to the realized structure.

    kind "unanimity": a multi-player coalition forms exactly when every one
    of its members desires a partition containing it as a block; everyone
    not covered by such a coalition stays a singleton. kind "table": an
    explicit total map from profile to structure.
    """

    kind: str = UNANIMITY
    table: Mapping[Profile, CoalitionStructure] | None = None

    def __post_init__(self):
        if self.kind not in (UNANIMITY, TABLE):
            raise ValueError(f"unknown mechanism kind {self.kind!r}")
        if self.kind == TABLE and self.table is None:
            raise ValueError("table mechanism needs an explicit profile map")
        if self.kind == UNANIMITY and self.table is not None:
            raise ValueError("unanimity mechanism takes no table")


@dataclass(frozen=True)
class DomainDecomposition:
    """Profiles grouped by their realized structure.

    Domains are disjoint and jointly cover the whole profile space; the
    mapping preserves family order and lexicographic profile order.
    """

    domains: Mapping[CoalitionStructure, tuple[Profile, ...]]

    def __iter__(self):
        return iter(self.domains.items())

    def __len__(self) -> int:
        return len(self.domains)

    def profile_count(self) -> int:
        return sum(len(v) for v in self.domains.values())


@dataclass(frozen=True, eq=False)
class CoalitionGame:
    """A finite game over partition-aware strategies.

    Attributes:
        n_players: number of players, indexed 0..n-1.
        max_coalition: block size cap K of the partition family.
        family: all structures the players may desire.
        strategy_sets: per player, an ordered tuple of strategies.
        mechanism: how desires turn into one realized structure.
        payoffs: total map from profile (tuple of strategy indices, one per
            player) to a tuple of exact rational payoffs, read once into
            payoff_ints; a restricted or loaded game holds a read-only view
            of its tensor.
    """

    n_players: int
    max_coalition: int
    family: PartitionFamily
    strategy_sets: tuple[tuple[Strategy, ...], ...]
    mechanism: Mechanism = field(default_factory=Mechanism)
    payoffs: Mapping[Profile, tuple[Fraction, ...]] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_players < 1:
            raise ValidationError("need at least one player")
        if not 1 <= self.max_coalition <= self.n_players:
            raise ValidationError(
                f"coalition cap must satisfy 1 <= K <= n, got {self.max_coalition}"
            )
        if self.family.n_players != self.n_players or self.family.max_block != self.max_coalition:
            raise ValidationError("partition family does not match the game dimensions")
        if len(self.strategy_sets) != self.n_players:
            raise ValidationError("one strategy set per player required")
        for i, strategies in enumerate(self.strategy_sets):
            if not strategies:
                raise ValidationError(f"player {i} has an empty strategy set")
            if len(set(strategies)) != len(strategies):
                raise ValidationError(f"player {i} has duplicate strategies")
            for s in strategies:
                if not 0 <= s.desired_partition < len(self.family):
                    raise ValidationError(
                        f"player {i} desires partition index {s.desired_partition}, "
                        f"family has {len(self.family)}"
                    )
        if isinstance(self.payoffs, _TensorPayoffs):
            if self.payoffs.ints.shape != (*self.shape, self.n_players):
                raise ValidationError(f"payoff tensor shape {self.payoffs.ints.shape} does not fit {self.shape}")
            self.__dict__["_tensor"] = self.payoffs

    # -- basic accessors -------------------------------------------------

    def profiles(self):
        """All profiles in lexicographic order of strategy indices."""
        return itertools.product(*(range(k) for k in self.shape))

    @property
    def shape(self) -> tuple[int, ...]:
        """Strategy count per player, the shape of the profile space."""
        return tuple(len(s) for s in self.strategy_sets)

    @property
    def n_profiles(self) -> int:
        return prod(self.shape)

    def desired_structure(self, player: int, strategy_index: int) -> CoalitionStructure:
        return self.family[self.strategy_sets[player][strategy_index].desired_partition]

    def strategy_key(self, player: int, strategy_index: int) -> tuple[CoalitionStructure, str]:
        """Identity of a strategy independent of family indexing.

        Used to match strategies across nested games, where the same
        desired structure sits at different family indices.
        """
        s = self.strategy_sets[player][strategy_index]
        return self.family[s.desired_partition], s.action

    def _check_profile(self, profile: Profile) -> None:
        if len(profile) != self.n_players:
            raise ValueError(f"profile {profile} has {len(profile)} entries, expected {self.n_players}")
        for i, idx in enumerate(profile):
            if not 0 <= idx < len(self.strategy_sets[i]):
                raise ValueError(f"profile {profile}: index {idx} out of range for player {i}")

    # -- exact tensors ---------------------------------------------------

    @cached_property
    def _tensor(self) -> _TensorPayoffs:
        """payoff_ints over payoff_scale, from one pass over the payoffs mapping.

        Built on first use, so a builder may fill the mapping after
        constructing the game; a tensor view given as payoffs is adopted
        at construction instead.
        """
        rows = list(map(self.payoffs.get, self.profiles()))
        return _read_payoffs(rows, (*self.shape, self.n_players))

    @property
    def payoff_scale(self) -> int:
        """The lcm of every payoff's denominator, so payoff_ints are whole."""
        return self._tensor.scale

    @property
    def payoff_ints(self) -> np.ndarray:
        """The payoffs times payoff_scale as exact integers, read-only.

        Shape (*shape, n_players): the game's one payoff tensor. int64
        when every value lies below 2**63 in absolute value, an object
        array of Python ints otherwise; both compare exactly, so
        consumers need not know which. The positive scale keeps every
        order and tie of the payoffs.
        """
        return self._tensor.ints

    @cached_property
    def realized_index(self) -> np.ndarray:
        """Family index of the structure each profile realizes, as a read-only array.

        Under unanimity a block forms exactly where every member's own
        desired block equals it, which each strategy's own-block bitmask
        gives for all profiles at once.
        """
        if self.mechanism.kind == TABLE:
            index = []
            for profile in self.profiles():
                structure = self.mechanism.table.get(profile)
                if structure is None:
                    raise ValidationError(f"mechanism table has no entry for profile {profile}")
                if structure not in self.family:
                    raise ValidationError(
                        f"profile {profile} realizes {structure}, outside the family cap {self.max_coalition}"
                    )
                index.append(self.family.index_of(structure))
            return _frozen(np.array(index, dtype=np.int64).reshape(self.shape))
        n = self.n_players
        own = [
            np.array(
                [sum(1 << m for m in self.desired_structure(i, k).block_of(i)) for k in range(size)],
                dtype=np.int64,
            ).reshape([size if j == i else 1 for j in range(n)])
            for i, size in enumerate(self.shape)
        ]
        realized = []
        for i in range(n):
            formed = reduce(
                np.logical_and,
                (((own[i] >> j) & 1 == 0) | (own[j] == own[i]) for j in range(n)),
            )
            realized.append(np.broadcast_to(np.where(formed, own[i], 1 << i), self.shape))
        rows, inverse = np.unique(
            np.stack(realized, axis=-1).reshape(-1, n), axis=0, return_inverse=True
        )
        codes = np.array([
            self.family.index_of(
                CoalitionStructure.of([[m for m in range(n) if mask >> m & 1] for mask in set(row)], n)
            )
            for row in rows.tolist()
        ])
        return _frozen(codes[inverse.reshape(-1)].reshape(self.shape))

    @cached_property
    def best_reply_counts(self) -> np.ndarray:
        """How many of each player's strategies tie for the best reply, per profile.

        Read-only int array of shape (*shape, n_players); 0 where the
        player gains by switching alone.
        """
        counts = np.empty(self.payoff_ints.shape, dtype=np.int64)
        for i in range(self.n_players):
            pay = self.payoff_ints[..., i]
            best = pay == pay.max(axis=i, keepdims=True)
            counts[..., i] = np.where(best, best.sum(axis=i, keepdims=True), 0)
        return _frozen(counts)

    @cached_property
    def payoff_peaks(self) -> tuple:
        """Each player's highest payoff anywhere in the game, in payoff_ints units."""
        return tuple(self.payoff_ints.reshape(-1, self.n_players).max(axis=0).tolist())

    # -- mechanism and payoffs -------------------------------------------

    def realized_partition(self, profile: Profile) -> CoalitionStructure:
        """The structure the mechanism produces for a pure profile."""
        self._check_profile(profile)
        return self.family[int(self.realized_index[tuple(profile)])]

    def payoff(self, profile: Profile) -> tuple[Fraction, ...]:
        self._check_profile(profile)
        return self._tensor.row(tuple(profile))

    def coalition_value(self, profile: Profile, coalition: Coalition) -> Fraction:
        """Sum of members' payoffs at a profile, if the coalition is realized there."""
        structure = self.realized_partition(profile)
        if not structure.contains_block(coalition):
            raise ValueError(
                f"coalition {coalition} is not a block of the realized structure {structure}"
            )
        pay = self.payoff(profile)
        return sum((pay[m] for m in coalition), Fraction(0))

    # -- validation and restriction --------------------------------------

    def validate_domains(self) -> DomainDecomposition:
        """Check mechanism totality and payoff totality, returning the domains.

        Building the two tensors checks that every profile maps to a
        structure inside the family and carries a payoff entry of the
        right arity. Grouping a total function cannot overlap, so the
        decomposition is disjoint and covering by construction.
        """
        # Payoffs first: under unanimity the structure index allocates
        # arrays the size of the whole profile space.
        self.payoff_ints
        index = self.realized_index.ravel().tolist()
        domains: dict[int, list[Profile]] = {}
        for profile, s in zip(self.profiles(), index):
            domains.setdefault(s, []).append(profile)
        return DomainDecomposition({self.family[s]: tuple(domains[s]) for s in sorted(domains)})

    def restrict(self, max_coalition: int) -> CoalitionGame:
        """The nested game with desires capped at a smaller block size.

        Keeps, per player and in the original order, exactly the strategies
        whose desired structure survives the cap: a slice of payoff_ints, at
        its own scale and int64 when it fits, and of a table's realized_index,
        of which only the blocks are checked again, against the new cap.
        """
        if not 1 <= max_coalition <= self.max_coalition:
            raise ValueError(
                f"restriction cap must satisfy 1 <= K <= {self.max_coalition}, got {max_coalition}"
            )
        if max_coalition == self.max_coalition:
            return self
        sub_family = enumerate_partitions(self.n_players, max_coalition)
        kept: list[list[int]] = []
        new_sets: list[tuple[Strategy, ...]] = []
        for i in range(self.n_players):
            rows = [
                idx
                for idx in range(len(self.strategy_sets[i]))
                if self.desired_structure(i, idx) in sub_family
            ]
            if not rows:
                raise ValidationError(
                    f"player {i} has no strategy left under cap {max_coalition}"
                )
            kept.append(rows)
            new_sets.append(
                tuple(
                    Strategy(
                        sub_family.index_of(self.desired_structure(i, idx)),
                        self.strategy_sets[i][idx].action,
                    )
                    for idx in rows
                )
            )
        ints = self.payoff_ints[np.ix_(*kept)]
        divisor = gcd(self.payoff_scale, int(np.gcd.reduce(ints, axis=None)))
        ints = ints // divisor
        if ints.dtype == object and np.abs(ints).max() < 2**63:
            ints = ints.astype(np.int64)
        mechanism = Mechanism()
        if self.mechanism.kind == TABLE:
            index = self.realized_index[np.ix_(*kept)]
            too_big = np.array([s.max_block_size > max_coalition for s in self.family])
            outside = np.argwhere(too_big[index])
            if outside.size:
                profile = tuple(outside[0].tolist())
                raise ValidationError(
                    f"profile {profile} realizes {self.family[index[profile]]}, "
                    f"outside the family cap {max_coalition}"
                )
            profiles = itertools.product(*map(range, index.shape))
            structures = map(self.family.__getitem__, index.ravel().tolist())
            mechanism = Mechanism(TABLE, dict(zip(profiles, structures)))
        return CoalitionGame(
            n_players=self.n_players,
            max_coalition=max_coalition,
            family=sub_family,
            strategy_sets=tuple(new_sets),
            mechanism=mechanism,
            payoffs=_TensorPayoffs(_frozen(ints), self.payoff_scale // divisor),
        )


def payoff_isomorphic(a: CoalitionGame, b: CoalitionGame) -> bool:
    """Whether two games agree up to strategy identity.

    Same players, same per-player sequences of (desired structure, action)
    pairs, and pointwise equal payoffs. Family indices may differ, which is
    exactly what happens between a game and a rebuilt restriction of it.
    Equal rationals have equal reduced denominators, so equal payoffs
    mean equal payoff scales and equal integer tensors.
    """
    if a.n_players != b.n_players or a.max_coalition != b.max_coalition:
        return False
    for i in range(a.n_players):
        keys_a = [a.strategy_key(i, j) for j in range(len(a.strategy_sets[i]))]
        keys_b = [b.strategy_key(i, j) for j in range(len(b.strategy_sets[i]))]
        if keys_a != keys_b:
            return False
    return a.payoff_scale == b.payoff_scale and np.array_equal(a.payoff_ints, b.payoff_ints)


def restrict_game(game: CoalitionGame, max_coalition: int) -> CoalitionGame:
    """Functional form of CoalitionGame.restrict."""
    return game.restrict(max_coalition)


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _read_payoffs(rows: list, shape: tuple[int, ...]) -> _TensorPayoffs:
    """The tensor view of payoff rows listed in profile order, None for a missing row.

    shape is (*strategy counts, n_players). Every row must hold n_players
    exact rationals (numbers.Rational, such as int or Fraction). Tables
    repeat a few payoff objects many times (builders and game files share
    them), so each distinct object is read once.
    """
    n = shape[-1]
    bad = next((k for k, row in enumerate(rows) if row is None or len(row) != n), None)
    if bad is not None:
        profile = tuple(map(int, np.unravel_index(bad, shape[:-1])))
        if rows[bad] is None:
            raise ValidationError(f"payoff table has no entry for profile {profile}")
        raise ValidationError(f"payoff entry for {profile} has the wrong arity")
    values = list(itertools.chain.from_iterable(rows))
    ids = np.fromiter(map(id, values), np.uint64, len(values))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    bad = next((k for k in sorted(first.tolist()) if not isinstance(values[k], Rational)), None)
    if bad is not None:
        profile = tuple(map(int, np.unravel_index(bad // n, shape[:-1])))
        raise ValidationError(f"payoff entry for {profile} holds {values[bad]!r}, not an exact rational")
    distinct = [values[k] for k in first.tolist()]
    scale = lcm(*{int(v.denominator) for v in distinct})
    ints = [int(v.numerator) * (scale // int(v.denominator)) for v in distinct]
    fits = max(map(abs, ints)) < 2**63
    array = np.array(ints, dtype=np.int64 if fits else object)[inverse]
    return _TensorPayoffs(_frozen(array.reshape(shape)), scale)


@dataclass(frozen=True, eq=False)
class _TensorPayoffs(Mapping):
    """Read-only map from profile to its row of ints over scale, as Fractions.

    A key outside the profile space is missing: numpy would wrap a negative index.
    """

    ints: np.ndarray
    scale: int

    def __getitem__(self, profile: Profile) -> tuple[Fraction, ...]:
        shape = self.ints.shape[:-1]
        if len(profile) != len(shape) or not all(0 <= k < m for k, m in zip(profile, shape)):
            raise KeyError(profile)
        return self.row(tuple(profile))

    def row(self, profile: Profile) -> tuple[Fraction, ...]:
        """The payoffs at a profile known to lie in the space, unchecked."""
        return tuple(Fraction(v, self.scale) for v in self.ints[profile].tolist())

    def __iter__(self):
        return itertools.product(*map(range, self.ints.shape[:-1]))

    def __len__(self) -> int:
        return prod(self.ints.shape[:-1])
