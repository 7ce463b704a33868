"""Set partitions of a player set with a cap on block size.

Players are dense integer indices 0..n-1. A coalition is a sorted tuple of
players, a coalition structure partitions all players into disjoint
coalitions, and a family collects every structure whose blocks stay within
a size cap. Families for growing caps are nested by inclusion, which the
game layer builds on.

A family is one integer array of leader rows: per structure, each
player's block leader, the smallest member of the player's block. Two
players share a block exactly when they share a leader, and a block's
leader grows with its number in the canonical order of a structure's
blocks, so the rows ascend in the lexicographic order of the restricted
growth strings they stand for (Knuth, TAOCP Vol. 4A, 7.2.1.5), the order
of Knuth's Algorithm H. Enumeration builds them in that order, one numpy
step per player, so no number of players exhausts the stack. It never
places a player in a full block, so the family for a small cap is
produced directly instead of being filtered out of the full partition
lattice.

A family answers its count, membership, positions, equality and nesting
from its rows. Each row is keyed by its big-endian bytes (see _keys),
which ascend in enumeration order, so a lookup is a binary search and no
lookup hashes a structure. Every structure, looked up or built into a
family by hand, is read as its leader row (_row). A family builds its
structures only when they are read, all at once, with one Coalition per
distinct block shared by all of them. Every structure, enumerated or
not, passes the same constructor check: its members, flattened and
sorted, must be exactly 0..n-1. Only a structure that fails it is walked
block by block to name the overlap or the gap.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from numbers import Integral

import numpy as np

# The most entries a dense array of the package may hold: a family's
# leader rows here, and a game's payoff tensor or realized-structure
# index in the game layer; 1 GiB as int64.
_DENSE_LIMIT = 2**27


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
        """Whether player is a member; anything but an integer by _is_integer is not."""
        return _is_integer(player) and player in self.members

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
    the same grouping. n_players is an integer of at least 1, numpy's read
    as int.
    """

    blocks: tuple[Coalition, ...]
    n_players: int

    def __post_init__(self):
        if type(self.n_players) is not int or self.n_players < 1:
            object.__setattr__(self, "n_players", _player_count(self.n_players))
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
        n = _player_count(n_players)
        return cls(tuple(Coalition.of(i) for i in range(n)), n)

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


@dataclass(frozen=True, eq=False)
class PartitionFamily:
    """All coalition structures of n players with blocks of size <= max_block.

    Structures come in the deterministic enumeration order, and index_of
    gives each structure a stable position used by the game layer to
    reference desired partitions.

    A family is a frozen dataclass over n_players, max_block and
    _leaders, a read-only (count, n) integer array holding each
    structure's leader row (_row): the smallest member of every player's
    block. == and hash read n, K and the rows, in order, and == is False
    for anything but a family; in and index_of find a structure's row
    with _find, and is_nested searches the rows' keys (see _keys) in key
    order. The decorator keeps the __init__ and __repr__ written here:
    __init__ takes structures, and __repr__ shows the first
    reprlib.aRepr.maxlist of them, built from their rows, then "...". An
    enumerated family builds its structures on the first read of
    structures, of an iterator or of family[i], all in one pass; a
    family built by hand from structures keeps those objects and stores
    their rows, and refuses all but distinct structures over n_players
    with blocks of at most max_block.

    The game layer reads a family through three private methods, so the
    row format stays here: _own_blocks, each structure's block of one
    player; _find, the positions of structures given by their leader
    rows, which in and index_of use too; and _lookup, the positions of
    another family's structures. Both give -1 for a structure outside
    the family.
    """

    n_players: int
    max_block: int
    _leaders: np.ndarray

    def __init__(self, n_players: int, max_block: int, structures) -> None:
        _check_args(n_players, max_block)
        n, K = int(n_players), int(max_block)
        structures = tuple(structures)
        position: dict[tuple, int] = {}  # by leader row, as _find reads a structure
        for i, s in enumerate(structures):
            if not isinstance(s, CoalitionStructure):
                raise ValueError(f"family entry {i} is not a CoalitionStructure: {s!r}")
            if s.n_players != n:
                raise ValueError(f"family entry {i} {s} covers {s.n_players} players, expected {n}")
            if s.max_block_size > K:
                raise ValueError(f"family entry {i} {s} has a block larger than the cap {K}")
            row = _row(s)
            if position.setdefault(row, i) != i:
                raise ValueError(f"family entry {i} {s} repeats entry {position[row]}")
        leaders = np.array(list(position), dtype=_leader_dtype(n)).reshape(len(structures), n)
        leaders.flags.writeable = False
        self.__dict__.update(n_players=n, max_block=K, _leaders=leaders, structures=structures)

    @classmethod
    def _of_leaders(cls, n_players: int, max_block: int, leaders: np.ndarray) -> PartitionFamily:
        """A family over leader rows in enumeration order, whose structures are built on first read."""
        leaders.flags.writeable = False
        family = cls.__new__(cls)
        family.__dict__.update(n_players=n_players, max_block=max_block, _leaders=leaders)
        return family

    @cached_property
    def structures(self) -> tuple[CoalitionStructure, ...]:
        return _structures(self._leaders)

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The keys ascending and, unless they already are, each one's position."""
        keys = _keys(self._leaders)
        if (keys[1:] > keys[:-1]).all():
            return keys, None
        order = np.argsort(keys)
        return keys[order], order

    def _search(self, leaders: np.ndarray) -> np.ndarray:
        """The position of each (count, n) leader row's structure, -1 for a row outside the family."""
        ascending, order = self._sorted
        if not len(ascending):
            return np.full(len(leaders), -1)
        keys = _keys(leaders.astype(self._leaders.dtype, copy=False))
        at = np.minimum(ascending.searchsorted(keys), len(ascending) - 1)
        hit = ascending[at] == keys
        return np.where(hit, at if order is None else order[at], -1)

    def _lookup(self, other: PartitionFamily, at=None) -> np.ndarray:
        """The position of each of other's structures (those at the indices at, if given), or -1."""
        if other.n_players != self.n_players:
            raise ValueError(
                f"cannot compare families over {other.n_players} and {self.n_players} players"
            )
        return self._search(other._leaders if at is None else other._leaders[at])

    def _find(self, leaders) -> np.ndarray:
        """The position of each structure given by its leader row, or -1.

        leaders has shape (..., n): per structure, the smallest member of
        each player's block. The result has shape (...).
        """
        leaders = np.asarray(leaders)
        return self._search(leaders.reshape(-1, self.n_players)).reshape(leaders.shape[:-1])

    def _own_blocks(self, player: int, at) -> np.ndarray:
        """Per structure at the indices at, the player's block as a row of n bools."""
        leaders = self._leaders[at]
        return leaders == leaders[:, [player]]

    def _locate(self, structure) -> int:
        """The position of a structure, by _find on its row; -1 for anything else."""
        row = _row(structure)
        if row is None or len(row) != self.n_players:
            return -1
        return int(self._find(row))

    def index_of(self, structure: CoalitionStructure) -> int:
        i = self._locate(structure)
        if i < 0:
            raise ValueError(f"{structure} is not in the family (n={self.n_players}, cap={self.max_block})")
        return i

    def __contains__(self, structure) -> bool:
        return self._locate(structure) >= 0

    def __eq__(self, other) -> bool:
        return self is other or (
            type(other) is type(self)
            and (self.n_players, self.max_block) == (other.n_players, other.max_block)
            and np.array_equal(self._leaders, other._leaders)
        )

    def __hash__(self) -> int:
        return hash((self.n_players, self.max_block, self._leaders.tobytes()))

    def __iter__(self):
        return iter(self.structures)

    def __len__(self) -> int:
        return len(self._leaders)

    def __getitem__(self, i: int) -> CoalitionStructure:
        return self.structures[i]

    def __repr__(self) -> str:
        # At most reprlib's count of structures, built from their rows.
        cap, n = reprlib.aRepr.maxlist, self.n_players
        shown = _structures(self._leaders[:cap])
        text = repr(shown) if len(self) <= cap else f"({', '.join([*map(repr, shown), '...'])})"
        return f"PartitionFamily(n_players={n!r}, max_block={self.max_block!r}, structures={text})"


def _leader_dtype(n_players: int) -> type:
    """The narrowest signed integer type that holds n_players, for leader rows and block sizes."""
    return np.int8 if n_players < 2**7 else np.int16 if n_players < 2**15 else np.int32


def _keys(leaders: np.ndarray) -> np.ndarray:
    """One key per leader row, its big-endian bytes, ascending in the rows' lexicographic order.

    Leaders are never negative, so their big-endian bytes order as they
    do. The keys of int8 rows are a view of them.
    """
    wide = np.ascontiguousarray(leaders, dtype=leaders.dtype.newbyteorder(">"))
    return wide.view(f"S{wide.itemsize * wide.shape[1]}").ravel()


def _structures(leaders: np.ndarray) -> tuple[CoalitionStructure, ...]:
    """The structures of leader rows, in order, with one Coalition per distinct block.

    Each block is read as the bit set of its members at its leader's
    column, one numpy step per player, so the distinct blocks are the
    distinct bit sets (0 where a column leads no block). The Coalitions
    of all structures are gathered at once, one column list per column,
    after each row's bit sets are sorted in descending order, so its
    blocks come first and the empty columns last; each structure takes
    its row's blocks, which its constructor puts in canonical order.
    Column lists, rather than one list per row, keep the live containers
    few while the structures are built.
    """
    count, n = leaders.shape
    rows = np.arange(count)
    bits = np.zeros((count, n), dtype=np.int64 if n < 64 else object)
    for player, column in enumerate(leaders.T):
        bits[rows, column] |= 1 << player
    bits = np.sort(bits, axis=1)[:, ::-1]
    distinct = sorted(set(bits.ravel().tolist()))
    coalitions = np.empty(len(distinct), dtype=object)  # None for 0, no block
    for i, v in enumerate(distinct):
        if v:
            coalitions[i] = Coalition(tuple(m for m in range(n) if v >> m & 1))
    blocks = coalitions[np.array(distinct, dtype=bits.dtype).searchsorted(bits)]
    sizes = np.count_nonzero(bits, axis=1).tolist()
    padded = zip(*[column.tolist() for column in blocks.T])
    return tuple([CoalitionStructure(row[:size], n) for row, size in zip(padded, sizes)])


def _row(structure) -> tuple[int, ...] | None:
    """A structure as PartitionFamily._find reads it, each player's block leader; None for a non-structure."""
    if not isinstance(structure, CoalitionStructure):
        return None
    row = [0] * structure.n_players
    for block in structure.blocks:
        for m in block.members:
            row[m] = block.members[0]
    return tuple(row)


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


def _player_count(value) -> int:
    """A structure's player count as an int: an integer by _is_integer, at least 1."""
    if not _is_integer(value) or value < 1:
        raise ValueError(f"n_players must be an integer of at least 1, got {value!r}")
    return int(value)


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

    Builds the family's leader rows in lexicographic order, one player
    at a time: every prefix, a partition of the players so far, is
    extended by each leader the next player may take, those of the
    blocks with room and then the player itself, who leads a new block,
    in one numpy step per player. Prefix-major, leader-minor order keeps
    the rows in lexicographic order, and each block's size, kept at its
    leader's column, enforces the cap during generation, so no oversized
    partition is ever materialised. Players 0 and 1 seed the loop, so a
    two-player family takes no step. A family whose rows would hold more
    than _DENSE_LIMIT entries is refused from its exact count, before
    anything is built.
    """
    _check_args(n_players, max_block)
    n, K = int(n_players), int(max_block)
    count = _bell(n, K)
    if count * n > _DENSE_LIMIT:
        raise ValueError(
            f"the {count} partitions of {n} players with blocks of at most {K} "
            f"exceed the dense limit of {_DENSE_LIMIT} code entries"
        )
    dtype = _leader_dtype(n)
    if n == 1:
        return PartitionFamily._of_leaders(n, K, np.zeros((1, 1), dtype=dtype))
    leaders = np.array([[0, 0], [0, 1]] if K > 1 else [[0, 1]], dtype=dtype)
    if n > 2:
        # Each block's size, at its leader's column.
        sizes = np.zeros((len(leaders), n), dtype=dtype)
        sizes[:, :2] = [[2, 0], [1, 1]] if K > 1 else [[1, 1]]
        for player in range(2, n):
            placed = sizes[:, : player + 1]
            room = (placed > 0) & (placed < K)
            room[:, player] = True
            rows, leader = np.nonzero(room)
            grown = np.empty((len(rows), player + 1), dtype=dtype)
            grown[:, :player] = leaders[rows]
            grown[:, player] = leader
            leaders = grown
            if player + 1 < n:
                sizes = sizes[rows]
                sizes[np.arange(len(rows)), leader] += 1
    return PartitionFamily._of_leaders(n, K, leaders)


def restricted_bell(n_players: int, max_block: int) -> int:
    """Count partitions of n players with all blocks of size <= max_block.

    Exact integer recurrence on the block containing the lowest-indexed
    player: that block picks j-1 companions out of the remaining n-1, and
    the rest are partitioned independently.
    """
    _check_args(n_players, max_block)
    return _bell(int(n_players), int(max_block))


@lru_cache(maxsize=None)
def _bell(n: int, K: int) -> int:
    """restricted_bell of checked arguments."""
    counts = [0] * (n + 1)
    counts[0] = 1
    for m in range(1, n + 1):
        counts[m] = sum(comb(m - 1, j - 1) * counts[m - j] for j in range(1, min(K, m) + 1))
    return counts[n]


def is_nested(smaller: PartitionFamily, larger: PartitionFamily) -> bool:
    """Whether every structure of the first family appears in the second."""
    return bool((larger._lookup(smaller) >= 0).all())
