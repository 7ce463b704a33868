"""Set partitions of a player set with a cap on block size.

Players are dense integer indices 0..n-1. A coalition is a sorted tuple of
players, a coalition structure partitions all players into disjoint
coalitions, and a family collects every structure whose blocks stay within
a size cap. Families for growing caps are nested by inclusion, which the
game layer builds on.

Enumeration walks restricted growth strings in lexicographic order, the
order of Knuth's Algorithm H (TAOCP Vol. 4A, 7.2.1.5), in a loop rather
than by recursion, so no number of players exhausts the stack. It never
places a player in a full block, so the family for a small cap is
produced directly instead of being filtered out of the full partition
lattice. The canonical form that falls out of this walk orders blocks by
their smallest member, with members ascending inside each block.

The walk keeps each open block as a member tuple, one object for all equal
tuples of a call, and each leaf records a row: the tuple of these member
tuples, in one C call. A family, a frozen dataclass over its rows,
answers its count, membership, positions, equality and nesting from them,
and a structure's key is tuple(b.members for b in s.blocks), so no lookup
hashes a structure. It builds its structures only when they are read, all
at once, with one Coalition per distinct block shared by all its
structures. Every
structure, enumerated or not, passes the same constructor check: its
members, flattened and sorted, must be exactly 0..n-1. Only a structure
that fails it is walked block by block to name the overlap or the gap.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import comb
from numbers import Integral
from operator import attrgetter


@dataclass(frozen=True, order=True)
class Coalition:
    """Non-empty group of players, stored as sorted, duplicate-free ints.

    Members follow the rule of every index: integers, numpy's too, but
    not bools. A coalition knows no player count, so only negative
    members are refused here.
    """

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a coalition needs at least one member")
        for m in self.members:
            if not _is_integer(m):
                raise ValueError(f"coalition member {m!r} of {self.members!r} is not an integer")
        ordered = tuple(sorted(map(int, self.members)))
        if ordered[0] < 0:
            raise ValueError(f"negative player index in {self.members!r}")
        if len(set(ordered)) != len(ordered):
            raise ValueError(f"duplicate members in {self.members!r}")
        object.__setattr__(self, "members", ordered)

    @classmethod
    def of(cls, *members: int) -> Coalition:
        return cls(tuple(members))

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, player) -> bool:
        return player in self.members

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.members)) + "}"


@dataclass(frozen=True)
class CoalitionStructure:
    """A partition of players 0..n_players-1 into disjoint coalitions.

    Blocks are kept in canonical order (sorted by smallest member), so two
    structures over the same players compare equal exactly when they induce
    the same grouping.
    """

    blocks: tuple[Coalition, ...]
    n_players: int

    def __post_init__(self):
        blocks = tuple(sorted(self.blocks, key=lambda b: b.members[0]))
        object.__setattr__(self, "blocks", blocks)
        if sorted([m for b in blocks for m in b.members]) == list(range(self.n_players)):
            return
        # Walk the blocks only to name the first player in two of them, or
        # else the players covered.
        seen: set[int] = set()
        for b in blocks:
            for m in b:
                if m in seen:
                    raise ValueError(f"player {m} appears in two blocks")
                seen.add(m)
        raise ValueError(
            f"blocks cover {sorted(seen)}, expected all of 0..{self.n_players - 1}"
        )

    @classmethod
    def of(cls, blocks, n_players: int) -> CoalitionStructure:
        """Build from any iterable of member iterables."""
        return cls(tuple(Coalition(tuple(b)) for b in blocks), n_players)

    @classmethod
    def singletons(cls, n_players: int) -> CoalitionStructure:
        return cls(tuple(Coalition.of(i) for i in range(n_players)), n_players)

    def block_of(self, player: int) -> Coalition:
        """The coalition containing the given player, an index read by _index."""
        i = _index(player, self.n_players)
        if i is None:
            raise ValueError(f"player {player} out of range 0..{self.n_players - 1}")
        return next(b for b in self.blocks if i in b.members)

    def contains_block(self, coalition: Coalition) -> bool:
        """Whether the given coalition appears as one of the blocks."""
        if coalition.members[-1] >= self.n_players:
            raise ValueError(f"coalition {coalition} out of range for n={self.n_players}")
        return coalition in self.blocks

    @property
    def max_block_size(self) -> int:
        return max(b.size for b in self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __len__(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "{" + ",".join(str(b) for b in self.blocks) + "}"


@dataclass(frozen=True)
class PartitionFamily:
    """All coalition structures of n players with blocks of size <= max_block.

    Structures come in the deterministic enumeration order, and index_of
    gives each structure a stable position used by the game layer to
    reference desired partitions.

    A family is a frozen dataclass over n_players, max_block and its rows,
    one per structure: the tuple of its blocks' member tuples. The
    decorator derives == and hash (equal n, K and rows, in order) and the
    frozen checks from these fields, and keeps the __init__ and __repr__
    written here: __init__ takes structures, and __repr__ shows the first
    reprlib.aRepr.maxlist of them, built from their rows, then "...".
    len, in, index_of and is_nested read the rows alone. An enumerated
    family builds its structures on the first read of structures, of an
    iterator or of family[i], all in one pass; a family built by hand
    from structures keeps those objects and takes its rows from them,
    and refuses anything but distinct structures over n_players with
    blocks of at most max_block.
    """

    n_players: int
    max_block: int
    _rows: tuple

    def __init__(self, n_players: int, max_block: int, structures) -> None:
        _check_args(n_players, max_block)
        n, K = int(n_players), int(max_block)
        structures = tuple(structures)
        position: dict[tuple, int] = {}
        for i, s in enumerate(structures):
            row = _row(s)
            if row is None:
                raise ValueError(f"family entry {i} is not a CoalitionStructure: {s!r}")
            if s.n_players != n:
                raise ValueError(f"family entry {i} {s} covers {s.n_players} players, expected {n}")
            if s.max_block_size > K:
                raise ValueError(f"family entry {i} {s} has a block larger than the cap {K}")
            if position.setdefault(row, i) != i:
                raise ValueError(f"family entry {i} {s} repeats entry {position[row]}")
        self.__dict__.update(
            n_players=n, max_block=K, structures=structures, _rows=tuple(position), _position=position
        )

    @classmethod
    def _of_rows(cls, n_players: int, max_block: int, rows: tuple) -> PartitionFamily:
        """A family over canonical rows, whose structures are built on first read."""
        family = cls.__new__(cls)
        family.__dict__.update(n_players=n_players, max_block=max_block, _rows=rows)
        return family

    @cached_property
    def structures(self) -> tuple[CoalitionStructure, ...]:
        # Each distinct block becomes one Coalition, shared by its structures.
        coalition = {m: Coalition(m) for m in set(chain.from_iterable(self._rows))}.__getitem__
        n = self.n_players
        return tuple([CoalitionStructure(tuple(map(coalition, row)), n) for row in self._rows])

    @cached_property
    def _position(self) -> dict[tuple, int]:
        return dict(zip(self._rows, range(len(self._rows))))

    def index_of(self, structure: CoalitionStructure) -> int:
        i = self._position.get(_row(structure))
        if i is None:
            raise ValueError(f"{structure} is not in the family (n={self.n_players}, cap={self.max_block})")
        return i

    def __contains__(self, structure) -> bool:
        return _row(structure) in self._position

    def __iter__(self):
        return iter(self.structures)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> CoalitionStructure:
        return self.structures[i]

    def __repr__(self) -> str:
        # At most reprlib's count of structures, each built from its row.
        cap, n = reprlib.aRepr.maxlist, self.n_players
        shown = tuple(CoalitionStructure(tuple(map(Coalition, row)), n) for row in self._rows[:cap])
        text = repr(shown) if len(self._rows) <= cap else f"({', '.join([*map(repr, shown), '...'])})"
        return f"PartitionFamily(n_players={n!r}, max_block={self.max_block!r}, structures={text})"


_members = attrgetter("members")


def _row(structure) -> tuple[tuple[int, ...], ...] | None:
    """A structure's key in a family, its blocks' member tuples; None for a non-structure."""
    if isinstance(structure, CoalitionStructure):
        return tuple(map(_members, structure.blocks))
    return None


def _is_integer(value) -> bool:
    """Whether value is an integer, numpy's too, but not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _index(value, size: int) -> int | None:
    """A caller's index into 0..size-1 as an int, or None for anything else.

    The one reader of caller indices (profiles, players, desired
    partitions): an integer by _is_integer, in range. Callers index with
    what it returns, so numpy never reads a float, a bool or a negative
    index of theirs.
    """
    return int(value) if _is_integer(value) and 0 <= value < size else None


def _check_args(n_players: int, max_block: int) -> None:
    for name, value in (("n_players", n_players), ("max_block", max_block)):
        if not _is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if n_players < 1:
        raise ValueError(f"need at least one player, got n={n_players}")
    if not 1 <= max_block <= n_players:
        raise ValueError(f"block cap must satisfy 1 <= K <= n, got K={max_block} for n={n_players}")


def enumerate_partitions(n_players: int, max_block: int) -> PartitionFamily:
    """Enumerate every partition of n players with all blocks <= max_block.

    The walk assigns players in index order. Player i may join any existing
    block that still has room or open a new block, which is exactly the
    restricted growth string order; capping happens during generation, so
    no oversized partition is ever materialised. After each structure the
    walk backs up to the last player with a later block to try, in a loop,
    so any number of players fits. A player that joins a block replaces
    its member tuple by a longer one, looked up in one dict for the call so
    that equal blocks are one object, and backing up restores the tuple
    from before. Each leaf records the tuple of the open blocks as its row
    (see PartitionFamily).
    """
    _check_args(n_players, max_block)
    shared = {}.setdefault  # the first of equal member tuples, for all of them
    rows: list[tuple[tuple[int, ...], ...]] = []
    blocks: list[tuple[int, ...]] = []  # the open blocks' member tuples
    joined = [0] * n_players  # the block each placed player is in
    before = [()] * n_players  # that block's members before the player joined
    player, first_choice = 0, 0
    while True:
        # Place the player in the first block from first_choice on that has
        # room, or else in a new block.
        b = first_choice
        while b < len(blocks) and len(blocks[b]) >= max_block:
            b += 1
        if b == len(blocks):
            blocks.append(())
        before[player] = blocks[b]
        members = blocks[b] + (player,)
        blocks[b] = shared(members, members)
        joined[player] = b
        player += 1
        if player < n_players:
            first_choice = 0
            continue
        rows.append(tuple(blocks))
        # Back up to the last player who can move to a later block. A player
        # left alone in their block opened it, the last choice they have.
        while True:
            player -= 1
            b = joined[player]
            blocks[b] = before[player]
            if blocks[b]:
                first_choice = b + 1
                break
            blocks.pop()
            if player == 0:
                return PartitionFamily._of_rows(int(n_players), int(max_block), tuple(rows))


@lru_cache(maxsize=None, typed=True)
def restricted_bell(n_players: int, max_block: int) -> int:
    """Count partitions of n players with all blocks of size <= max_block.

    Exact integer recurrence on the block containing the lowest-indexed
    player: that block picks j-1 companions out of the remaining n-1, and
    the rest are partitioned independently.
    """
    _check_args(n_players, max_block)
    counts = [0] * (n_players + 1)
    counts[0] = 1
    for m in range(1, n_players + 1):
        counts[m] = sum(
            comb(m - 1, j - 1) * counts[m - j] for j in range(1, min(max_block, m) + 1)
        )
    return counts[n_players]


def is_nested(smaller: PartitionFamily, larger: PartitionFamily) -> bool:
    """Whether every structure of the first family appears in the second."""
    if smaller.n_players != larger.n_players:
        raise ValueError(
            f"cannot compare families over {smaller.n_players} and {larger.n_players} players"
        )
    return set(larger._rows).issuperset(smaller._rows)


def coalition_of(structure: CoalitionStructure, player: int) -> Coalition:
    """Functional form of CoalitionStructure.block_of."""
    return structure.block_of(player)


def contains_coalition(structure: CoalitionStructure, coalition: Coalition) -> bool:
    """Functional form of CoalitionStructure.contains_block."""
    return structure.contains_block(coalition)
