"""Normal-form games whose strategies carry a desired coalition structure.

A strategy is a (desired partition, action) pair. A mechanism maps every
profile of desires to one realized coalition structure, which splits the
profile space into disjoint domains, one per reachable structure.

A game is two arrays. Its one payoff tensor, payoff_ints, has shape
(*strategy counts, n_players) and holds every payoff times payoff_scale
(the lcm of every payoff's denominator) as an exact integer, int64 when
every value fits and Python ints otherwise. Its realized-structure
index holds the family index of the structure each profile realizes,
which under unanimity depends only on own desired blocks. Every
consumer reads these two arrays. Scaling by a positive integer keeps
every order and tie, so comparisons (best-reply counts, payoff peaks,
the group-redesire screen, the Pareto filter of the stability scan)
read the integers as they are; exact values divide a contraction of
them by payoff_scale once per value, and float values read each payoff
rounded once from its exact value. A single payoff is its integer over
payoff_scale.

The public inputs stay mappings: profile-keyed payoffs, and a table
mechanism's profile-keyed table, each read in one pass on first use
and then replaced by the read-only view of its array.
The catalog builders, restrict and the game file loader make each game
through _handed from its arrays instead: the payoff tensor as a
read-only mapping view (_TensorPayoffs) and, where the maker has it,
the index, which a unanimity game adopts as it is and a table game as
its mechanism's view (_TableView), neither read in a pass.

Profiles are plain tuples of per-player strategy indices, ordered by
player. They index both tensors, and their lexicographic order is the
iteration order used everywhere deterministic output is promised. A
caller's profile is read once, by _check_profile, into Python ints.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from numbers import Rational

import numpy as np

from .partitions import (
    _DENSE_LIMIT,
    Coalition,
    CoalitionStructure,
    PartitionFamily,
    _index,
    _is_integer,
    _row,
    enumerate_partitions,
)

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
        mechanism: how desires turn into one realized structure, read
            once into realized_index, which a game the package makes is
            handed instead where its maker has it; a table then gives
            way to the index's view.
        payoffs: total map from profile (tuple of strategy indices, one per
            player) to a tuple of exact rational payoffs, read once into
            payoff_ints and then replaced by a read-only view of the
            tensor, which a built, restricted or loaded game holds from
            the start.

    A payoffs or table mapping is read once, at the first read of the
    array it fills (payoff_ints, or realized_index). Writes to the
    caller's own mapping before that read are seen; later ones are not,
    and raise no error. Writes through the game's views raise TypeError.
    """

    n_players: int
    max_coalition: int
    family: PartitionFamily
    strategy_sets: tuple[tuple[Strategy, ...], ...]
    mechanism: Mechanism = field(default_factory=Mechanism)
    payoffs: Mapping[Profile, tuple[Fraction, ...]] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("n_players", "max_coalition"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValidationError(f"{name} must be an integer, got {value!r}")
            # A numpy integer is stored as int, which game files can write.
            object.__setattr__(self, name, int(value))
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
                if _index(s.desired_partition, len(self.family)) is None:
                    raise ValidationError(
                        f"player {i} desires partition index {s.desired_partition}, "
                        f"family has {len(self.family)}"
                    )
        if isinstance(self.payoffs, _TensorPayoffs):
            if self.payoffs.ints.shape != (*self.shape, self.n_players):
                raise ValidationError(f"payoff tensor shape {self.payoffs.ints.shape} does not fit {self.shape}")
            self.__dict__["_tensor"] = self.payoffs
        table = self.mechanism.table
        if isinstance(table, _TableView):
            if table.index.shape != self.shape or table.family != self.family:
                raise ValidationError(
                    f"mechanism table of shape {table.index.shape} does not fit {self.shape} "
                    f"under cap {self.max_coalition}"
                )
            self.__dict__["realized_index"] = table.index

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

    def _strategy(self, player: int, strategy_index: int) -> Strategy:
        """A caller's player and strategy index, each read by _index, as the strategy."""
        i = _index(player, self.n_players)
        if i is None:
            raise ValueError(f"player index {player} out of range")
        k = _index(strategy_index, len(self.strategy_sets[i]))
        if k is None:
            raise ValueError(f"strategy index {strategy_index} out of range for player {i}")
        return self.strategy_sets[i][k]

    def desired_structure(self, player: int, strategy_index: int) -> CoalitionStructure:
        return self.family[self._strategy(player, strategy_index).desired_partition]

    def strategy_key(self, player: int, strategy_index: int) -> tuple[CoalitionStructure, str]:
        """Identity of a strategy independent of family indexing: desired structure and action.

        The package matches strategies across games by family lookup instead (_strategy_map).
        """
        s = self._strategy(player, strategy_index)
        return self.family[s.desired_partition], s.action

    def _check_profile(self, profile: Profile) -> Profile:
        """The caller's profile as a tuple of ints, each read by _index.

        The one reader of a caller's profile: every entry point that takes
        one indexes with what this returns. An entry that is not an
        integer in range, a float or a bool included, gets the
        out-of-range message.
        """
        if len(profile) != self.n_players:
            raise ValueError(f"profile {profile} has {len(profile)} entries, expected {self.n_players}")
        checked = tuple(map(_index, profile, self.shape))
        if None in checked:
            i = checked.index(None)
            raise ValueError(f"profile {profile}: index {profile[i]} out of range for player {i}")
        return checked

    # -- exact tensors ---------------------------------------------------

    @cached_property
    def _tensor(self) -> _TensorPayoffs:
        """payoff_ints over payoff_scale, from one pass over the payoffs mapping.

        Built on first use, so a user may fill the mapping after
        constructing the game, which then holds the view as payoffs, so
        a later write raises TypeError. A tensor view given as payoffs,
        as the package's own builders, restrict and loader give, is
        adopted at construction instead.
        """
        _require_dense(self.shape, self.n_players)
        rows = list(map(self.payoffs.get, self.profiles()))
        self.__dict__["payoffs"] = _read_payoffs(rows, (*self.shape, self.n_players))
        return self.payoffs

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

        Under unanimity, _unanimity_index runs the rule on first use; a
        table mapping is read in one pass and then replaced by the
        index's view, so a later write raises TypeError. A game the
        package builds, restricts or loads adopts its index at
        construction instead, under either mechanism, where it has one.
        """
        _require_dense(self.shape, 1)
        if self.mechanism.kind == UNANIMITY:
            return _unanimity_index(self.family, self.strategy_sets)
        entries = list(map(self.mechanism.table.get, self.profiles()))
        index = _read_table(entries, self.family, self.shape)
        self.__dict__["mechanism"] = Mechanism(TABLE, _TableView(index, self.family))
        return index

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

    @cached_property
    def _payoff_magnitude(self) -> int:
        """The largest payoff_ints entry in absolute value, as a Python int."""
        return max(-int(self.payoff_ints.min()), int(self.payoff_ints.max()))

    # -- mechanism and payoffs -------------------------------------------

    def realized_partition(self, profile: Profile) -> CoalitionStructure:
        """The structure the mechanism produces for a pure profile."""
        return self.family[int(self.realized_index[self._check_profile(profile)])]

    def payoff(self, profile: Profile) -> tuple[Fraction, ...]:
        return self._tensor.row(self._check_profile(profile))

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
        # Payoffs first: the structure index is an array the size of the
        # whole profile space.
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
        its own scale and int64 when it fits, and, when the game holds its
        index or has a table, of realized_index, mapped onto the smaller
        family, of which only the blocks are checked again, against the new
        cap. The cap is an integer by _is_integer, numpy's read as int.
        """
        if not _is_integer(max_coalition):
            raise ValueError(f"restriction cap must be an integer, got {max_coalition!r}")
        max_coalition = int(max_coalition)
        if not 1 <= max_coalition <= self.max_coalition:
            raise ValueError(
                f"restriction cap must satisfy 1 <= K <= {self.max_coalition}, got {max_coalition}"
            )
        if max_coalition == self.max_coalition:
            return self
        sub_family = enumerate_partitions(self.n_players, max_coalition)
        # The new family position of each old structure, -1 for a block above the cap.
        found = sub_family._lookup(self.family)
        codes = found.tolist()
        kept: list[list[int]] = []
        new_sets: list[tuple[Strategy, ...]] = []
        for i, strategies in enumerate(self.strategy_sets):
            rows = [k for k, s in enumerate(strategies) if codes[s.desired_partition] >= 0]
            if not rows:
                raise ValidationError(
                    f"player {i} has no strategy left under cap {max_coalition}"
                )
            kept.append(rows)
            new_sets.append(
                tuple(Strategy(codes[strategies[k].desired_partition], strategies[k].action) for k in rows)
            )
        ints = self.payoff_ints[np.ix_(*kept)]
        divisor = gcd(self.payoff_scale, int(np.gcd.reduce(ints, axis=None)))
        ints = ints // divisor
        if ints.dtype == object and np.abs(ints).max() < 2**63:
            ints = ints.astype(np.int64)
        payoffs = _TensorPayoffs(_frozen(ints), self.payoff_scale // divisor)
        table = self.mechanism.kind == TABLE
        # A unanimity game without its index leaves the rule to the new game.
        if not table and "realized_index" not in vars(self):
            return _handed(sub_family, new_sets, payoffs)
        sliced = self.realized_index[np.ix_(*kept)]
        index = found[sliced]
        # Under unanimity a formed block is one every member desired, so
        # only a table can realize a block above the cap.
        outside = np.argwhere(index < 0)
        if outside.size:
            profile = tuple(outside[0].tolist())
            raise ValidationError(
                f"profile {profile} realizes {self.family[sliced[profile]]}, "
                f"outside the family cap {max_coalition}"
            )
        return _handed(sub_family, new_sets, payoffs, _frozen(index), table)


def payoff_isomorphic(a: CoalitionGame, b: CoalitionGame) -> bool:
    """Whether two games agree up to strategy identity.

    Same players, each strategy map of a onto b exactly 0..len-1 of b's
    strategies, and pointwise equal payoffs. Family indices may differ, as
    between a game and a rebuilt restriction of it. Equal rationals have
    equal reduced denominators, so equal payoffs mean equal payoff scales
    and equal integer tensors.
    """
    if a.n_players != b.n_players or a.max_coalition != b.max_coalition:
        return False
    if any(m != list(range(len(s))) for m, s in zip(_strategy_map(a, b), b.strategy_sets)):
        return False
    return a.payoff_scale == b.payoff_scale and np.array_equal(a.payoff_ints, b.payoff_ints)


def _strategy_map(source: CoalitionGame, target: CoalitionGame) -> list[list[int]]:
    """Per player, the target index of each source strategy with the same desired structure and action, or -1.

    The source's desired partitions are found in the target family in one lookup.
    """
    desired = [s.desired_partition for mine in source.strategy_sets for s in mine]
    found = iter(target.family._lookup(source.family, desired).tolist())
    maps = []
    for mine, theirs in zip(source.strategy_sets, target.strategy_sets):
        where = {(s.desired_partition, s.action): k for k, s in enumerate(theirs)}
        maps.append([where.get((d, s.action), -1) for s, d in zip(mine, found)])
    return maps


def restrict_game(game: CoalitionGame, max_coalition: int) -> CoalitionGame:
    """Functional form of CoalitionGame.restrict."""
    return game.restrict(max_coalition)


def _handed(
    family: PartitionFamily, strategy_sets, payoffs: _TensorPayoffs, index=None, table=False
) -> CoalitionGame:
    """The game at the family's cap with a payoff tensor view and, if given, its index.

    A table game holds the index as its mechanism's view, which
    construction checks; a unanimity game adopts it as it is, or runs
    the rule on first use without one.
    """
    mechanism = Mechanism(TABLE, _TableView(index, family)) if table else Mechanism()
    game = CoalitionGame(family.n_players, family.max_block, family, tuple(strategy_sets), mechanism, payoffs)
    if index is not None:
        game.__dict__["realized_index"] = index
    return game


def _unanimity_index(family: PartitionFamily, strategy_sets) -> np.ndarray:
    """The realized-structure index of the unanimity rule, read-only.

    A block forms exactly when every member desires it, so the structure
    depends only on own desired blocks: the rule runs once per
    combination of each player's distinct own blocks, in one array pass
    per player over all combinations. Each player's block leader, its
    smallest member where its block forms and the player alone
    otherwise, is found in the family in one lookup, and np.ix_ gathers
    that table onto the profile space. Own blocks are numbered in order
    of first appearance, so a structure missing from a hand-built family
    is named at the first combination, in that order, that realizes it.
    """
    n = len(strategy_sets)
    ids: dict[tuple, int] = {}  # each distinct own block, a row of n bools, numbered across players
    choices, picks = [], []
    for i, strategies in enumerate(strategy_sets):
        own = family._own_blocks(i, [s.desired_partition for s in strategies]).tolist()
        mine: dict[int, int] = {}
        picks.append([mine.setdefault(ids.setdefault(tuple(row), len(ids)), len(mine)) for row in own])
        choices.append(list(mine))
    members = np.array(list(ids), dtype=bool)
    sizes, firsts = members.sum(axis=1), members.argmax(axis=1)
    shape = [len(c) for c in choices]
    # Per player, their block in every combination, the last player's choice varying fastest.
    chosen = np.empty((n, *shape), dtype=np.intp)
    for i, choice in enumerate(choices):
        chosen[i] = np.reshape(choice, [-1 if axis == i else 1 for axis in range(n)])
    chosen = chosen.reshape(n, -1)
    leaders = np.empty_like(chosen)
    for i, mine in enumerate(chosen):
        # Only members desire a block, so it forms where as many players desire it as it has members.
        formed = sum(mine == theirs for theirs in chosen) == sizes[mine]
        leaders[i] = np.where(formed, firsts[mine], i)
    leaders = leaders.T
    table = family._find(leaders)
    if (table < 0).any():
        # index_of names the first structure the family lacks.
        row = leaders[np.argmax(table < 0)].tolist()
        family.index_of(CoalitionStructure.of([[m for m in range(n) if row[m] == b] for b in sorted(set(row))], n))
    return _frozen(table.reshape(shape)[np.ix_(*picks)])


def _require_dense(shape, width: int) -> None:
    """Refuse a table of width entries per profile of shape above _DENSE_LIMIT, before it is built.

    The partition layer holds a family's leader rows to the same limit.
    The largest table in the tests and the benchmark holds 3.24 million
    entries; 5 players over all 52 partitions would need 380 million
    profiles.
    """
    profiles = prod(shape)
    if profiles * width > _DENSE_LIMIT:
        raise ValidationError(
            f"{profiles} profiles of {width} entries each exceed "
            f"the dense table limit of {_DENSE_LIMIT} entries"
        )


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _read_payoffs(rows: list, shape: tuple[int, ...]) -> _TensorPayoffs:
    """The tensor view of payoff rows listed in profile order, None for a missing row.

    shape is (*strategy counts, n_players). Every row must hold n_players
    exact rationals (numbers.Rational, such as int or Fraction). Tables
    repeat a few payoff row objects many times (builders and game files
    share them), so the rows are told apart by identity first, and each
    distinct row, and within those each distinct value object, is read
    once; the first faulty profile is named.
    """
    n = shape[-1]
    distinct, inverse = _distinct(rows)
    bad = next((j for j, row in enumerate(distinct) if row is None or len(row) != n), None)
    if bad is not None:
        profile = tuple(map(int, np.unravel_index(inverse.index(bad), shape[:-1])))
        if distinct[bad] is None:
            raise ValidationError(f"payoff table has no entry for profile {profile}")
        raise ValidationError(f"payoff entry for {profile} has the wrong arity")
    numbers, inverse_values = _distinct(list(itertools.chain.from_iterable(distinct)))
    if not all(isinstance(v, Rational) for v in numbers):
        # Named at its first profile, in profile order.
        bad, value = next(
            (k, v) for k, v in enumerate(itertools.chain.from_iterable(rows)) if not isinstance(v, Rational)
        )
        profile = tuple(map(int, np.unravel_index(bad // n, shape[:-1])))
        raise ValidationError(f"payoff entry for {profile} holds {value!r}, not an exact rational")
    scale = lcm(*{int(v.denominator) for v in numbers})
    ints = [int(v.numerator) * (scale // int(v.denominator)) for v in numbers]
    fits = max(map(abs, ints)) < 2**63
    table = np.array(ints, dtype=np.int64 if fits else object)[inverse_values].reshape(len(distinct), n)
    return _TensorPayoffs(_frozen(table[inverse].reshape(shape)), scale)


def _read_table(entries: list, family: PartitionFamily, shape: tuple[int, ...]) -> np.ndarray:
    """The realized-structure index of table entries listed in profile order, None for a gap.

    Every entry must be a structure of the family; the first faulty
    profile is named. Tables repeat a few structure objects many times
    (the loader reads each distinct literal once), so each distinct
    object is looked up once.
    """
    distinct, inverse = _distinct(entries)
    rows = list(map(_row, distinct))
    fits = [j for j, row in enumerate(rows) if row is not None and len(row) == family.n_players]
    codes = np.full(len(rows), -1)
    codes[fits] = family._find(np.array([rows[j] for j in fits], dtype=np.intp).reshape(-1, family.n_players))
    bad = next((j for j, code in enumerate(codes.tolist()) if code < 0), None)
    if bad is not None:
        profile = tuple(map(int, np.unravel_index(inverse.index(bad), shape)))
        if distinct[bad] is None:
            raise ValidationError(f"mechanism table has no entry for profile {profile}")
        raise ValidationError(
            f"profile {profile} realizes {distinct[bad]}, outside the family cap {family.max_block}"
        )
    return _frozen(codes[inverse].reshape(shape))


def _distinct(values: list) -> tuple[list, list[int]]:
    """The distinct objects of values, by identity, in order of first appearance, and each value's number among them.

    Dict passes over the ids, with no sort, so a short list costs a few
    microseconds.
    """
    ids = list(map(id, values))
    objects = dict(zip(ids, values))
    number = dict(zip(objects, range(len(objects))))
    return list(objects.values()), list(map(number.__getitem__, ids))


class _ProfileView(Mapping):
    """Read-only map over the profiles of a space, in profile order.

    A subclass gives space, the shape of the profile space, and row, the
    value at a profile. A key is present when it is a tuple of one index
    per axis that _index reads; anything else is missing, so [] raises
    KeyError and get and in never raise. Numpy would wrap a negative
    index, read a bool as a mask and refuse a float.
    """

    def __getitem__(self, profile: Profile):
        if not isinstance(profile, tuple) or len(profile) != len(self.space):
            raise KeyError(profile)
        key = tuple(map(_index, profile, self.space))
        if None in key:
            raise KeyError(profile)
        return self.row(key)

    def __iter__(self):
        return itertools.product(*map(range, self.space))

    def __len__(self) -> int:
        return prod(self.space)


@dataclass(frozen=True, eq=False)
class _TensorPayoffs(_ProfileView):
    """The payoffs of ints over scale: each profile's row as Fractions."""

    ints: np.ndarray
    scale: int

    @property
    def space(self) -> tuple[int, ...]:
        return self.ints.shape[:-1]

    def row(self, profile: Profile) -> tuple[Fraction, ...]:
        """The payoffs at a profile known to lie in the space, unchecked."""
        return tuple(Fraction(v, self.scale) for v in self.ints[profile].tolist())


@dataclass(frozen=True, eq=False)
class _TableView(_ProfileView):
    """The table of a realized-structure index: each profile's structure of the family."""

    index: np.ndarray
    family: PartitionFamily

    @property
    def space(self) -> tuple[int, ...]:
        return self.index.shape

    def row(self, profile: Profile) -> CoalitionStructure:
        """The structure realized at a profile known to lie in the space, unchecked."""
        return self.family[int(self.index[profile])]
