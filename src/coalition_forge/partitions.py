"""Set partitions of a player set with a cap on block size.

Players are dense integer indices 0..n-1. A coalition is a sorted tuple of
players, a coalition structure partitions all players into disjoint
coalitions, and a family collects every structure whose blocks stay within
a size cap. Families for growing caps are nested by inclusion, which the
game layer builds on.

A family is one integer array of restricted growth strings (Knuth, TAOCP
Vol. 4A, 7.2.1.5), its codes: per structure, the block number of every
player, blocks numbered in the order of their smallest members, which is
the canonical order of a structure's blocks. Enumeration builds them in
lexicographic order, the order of Knuth's Algorithm H, one numpy step per
player, so no number of players exhausts the stack. It never places a
player in a full block, so the family for a small cap is produced
directly instead of being filtered out of the full partition lattice.

A family answers its count, membership, positions, equality and nesting
from its codes, through one integer key per code (see _keys), which
ascends in enumeration order, so a lookup is a binary search and no
lookup hashes a structure. Every structure, looked up or built into a
family by hand, is read as each player's block leader (the block's
smallest member), which _codes_of turns into its code. A family builds
its structures only when they are read, all at once, with one Coalition
per distinct block shared by all of them. Every structure, enumerated or
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
# codes here, and a game's payoff tensor or realized-structure index in
# the game layer; 1 GiB as int64.
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


@dataclass(frozen=True, eq=False)
class PartitionFamily:
    """All coalition structures of n players with blocks of size <= max_block.

    Structures come in the deterministic enumeration order, and index_of
    gives each structure a stable position used by the game layer to
    reference desired partitions.

    A family is a frozen dataclass over n_players, max_block and _codes,
    a read-only (count, n) integer array holding each structure's
    restricted growth string: the block number of every player, blocks
    numbered by their smallest member. == and hash read n, K and the
    codes, in order, and == is False for anything but a family; in and
    index_of find a structure's block leaders (_row) with _find, and
    is_nested searches the codes' keys (see _keys) in key order. The
    decorator keeps the __init__ and __repr__ written here: __init__
    takes structures, and __repr__ shows the first reprlib.aRepr.maxlist
    of them, built from their codes, then "...". An enumerated family
    builds its structures on the first read of structures, of an
    iterator or of family[i], all in one pass; a family built by hand
    from structures keeps those objects and takes its codes from their
    block leaders, as _find does, and refuses all but distinct
    structures over n_players with blocks of at most max_block.

    The game layer reads a family through three private methods, so the
    code format stays here: _own_blocks, each structure's block of one
    player; _find, the positions of structures given by each player's
    block leader (its smallest member), which in and index_of use too;
    and _lookup, the positions of another family's structures. Both
    give -1 for a structure outside the family.
    """

    n_players: int
    max_block: int
    _codes: np.ndarray

    def __init__(self, n_players: int, max_block: int, structures) -> None:
        _check_args(n_players, max_block)
        n, K = int(n_players), int(max_block)
        structures = tuple(structures)
        position: dict[tuple, int] = {}  # by block leaders, as _find reads a structure
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
        leaders = np.array(list(position), dtype=np.intp).reshape(len(structures), n)
        codes = _codes_of(leaders, _code_dtype(n))
        codes.flags.writeable = False
        self.__dict__.update(n_players=n, max_block=K, _codes=codes, structures=structures)

    @classmethod
    def _of_codes(cls, n_players: int, max_block: int, codes: np.ndarray) -> PartitionFamily:
        """A family over codes in enumeration order, whose structures are built on first read."""
        codes.flags.writeable = False
        family = cls.__new__(cls)
        family.__dict__.update(n_players=n_players, max_block=max_block, _codes=codes)
        return family

    @cached_property
    def structures(self) -> tuple[CoalitionStructure, ...]:
        return _structures(self._codes)

    @cached_property
    def _keys(self) -> np.ndarray:
        return _keys(self._codes)

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The keys ascending and, unless they already are, each one's position."""
        keys = self._keys
        if (keys[1:] > keys[:-1]).all():
            return keys, None
        order = np.argsort(keys)
        return keys[order], order

    def _search(self, keys: np.ndarray) -> np.ndarray:
        """The position of each key's structure, -1 for a key outside the family."""
        ascending, order = self._sorted
        if not len(ascending):
            return np.full(len(keys), -1)
        at = np.minimum(ascending.searchsorted(keys), len(ascending) - 1)
        hit = ascending[at] == keys
        return np.where(hit, at if order is None else order[at], -1)

    def _lookup(self, other: PartitionFamily, at=None) -> np.ndarray:
        """The position of each of other's structures (those at the indices at, if given), or -1."""
        if other.n_players != self.n_players:
            raise ValueError(
                f"cannot compare families over {other.n_players} and {self.n_players} players"
            )
        return self._search(other._keys if at is None else other._keys[at])

    def _find(self, leaders) -> np.ndarray:
        """The position of each structure given by its players' block leaders, or -1.

        leaders has shape (..., n): per structure, the smallest member of
        each player's block. The result has shape (...).
        """
        leaders = np.asarray(leaders)
        codes = _codes_of(leaders.reshape(-1, self.n_players), self._codes.dtype)
        return self._search(_keys(codes)).reshape(leaders.shape[:-1])

    def _own_blocks(self, player: int, at) -> np.ndarray:
        """Per structure at the indices at, the player's block as a row of n bools."""
        codes = self._codes[at]
        return codes == codes[:, [player]]

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
            and np.array_equal(self._codes, other._codes)
        )

    def __hash__(self) -> int:
        return hash((self.n_players, self.max_block, self._codes.tobytes()))

    def __iter__(self):
        return iter(self.structures)

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, i: int) -> CoalitionStructure:
        return self.structures[i]

    def __repr__(self) -> str:
        # At most reprlib's count of structures, built from their codes.
        cap, n = reprlib.aRepr.maxlist, self.n_players
        shown = _structures(self._codes[:cap])
        text = repr(shown) if len(self) <= cap else f"({', '.join([*map(repr, shown), '...'])})"
        return f"PartitionFamily(n_players={n!r}, max_block={self.max_block!r}, structures={text})"


# Keys are int64 up to this many players: players 1..15 take 4 bits each,
# and player 0 is always in block 0.
_KEY_PLAYERS = 16


def _code_dtype(n_players: int) -> type:
    """The narrowest signed integer type that holds n_players, for codes and block sizes."""
    return np.int8 if n_players < 2**7 else np.int16 if n_players < 2**15 else np.int32


def _codes_of(leaders: np.ndarray, dtype) -> np.ndarray:
    """The codes, of dtype, of (count, n) rows of each player's block leader."""
    count, n = leaders.shape
    # A block's number is the count of leaders before its own.
    rank = (leaders == np.arange(n)).cumsum(axis=1, dtype=dtype) - 1
    return rank[np.arange(count)[:, None], leaders]


def _keys(codes: np.ndarray) -> np.ndarray:
    """One key per code row, ascending in the rows' lexicographic order.

    Up to _KEY_PLAYERS players, each block number after player 0's is a
    4-bit digit of an int64, built one player at a time so that no
    wider copy of the codes is made. Wider rows are keyed by their
    big-endian bytes.
    """
    count, n = codes.shape
    if n > _KEY_PLAYERS:
        wide = np.ascontiguousarray(codes, dtype=codes.dtype.newbyteorder(">"))
        return wide.view(f"S{wide.itemsize * n}").ravel()
    keys = np.zeros(count, dtype=np.int64)
    for column in codes.T[1:]:
        keys <<= 4
        keys |= column
    return keys


def _structures(codes: np.ndarray) -> tuple[CoalitionStructure, ...]:
    """The structures of code rows, in order, with one Coalition per distinct block.

    Each block is read as the bit set of its members, one column per
    block number and one numpy step per player, so the distinct blocks
    are the distinct bit sets (0 for no block). The Coalitions of all
    structures are gathered at once, one column list per block number,
    and each structure takes its row's first blocks. Column lists,
    rather than one list per row, keep the live containers few while
    the structures are built.
    """
    count, n = codes.shape
    rows = np.arange(count)
    bits = np.zeros((count, n), dtype=np.int64 if n < 64 else object)
    for player, column in enumerate(codes.T):
        bits[rows, column] |= 1 << player
    distinct = sorted(set(bits.ravel().tolist()))
    coalitions = np.empty(len(distinct), dtype=object)  # None for 0, no block
    for i, v in enumerate(distinct):
        if v:
            coalitions[i] = Coalition(tuple(m for m in range(n) if v >> m & 1))
    blocks = coalitions[np.array(distinct, dtype=bits.dtype).searchsorted(bits)]
    sizes = (codes.max(axis=1, initial=0) + 1).tolist()
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

    Builds the family's codes in lexicographic order, one player at a
    time: every prefix, a partition of the players so far, is extended
    by each block number the next player may take, the open blocks with
    room and then a new one, in one numpy step per player. Prefix-major,
    block-minor order keeps the strings in lexicographic order, and a
    count per open block enforces the cap during generation, so no
    oversized partition is ever materialised. Players 0 and 1 seed the
    loop, so a two-player family takes no step. A family whose codes
    would hold more than _DENSE_LIMIT entries is refused from its exact
    count, before anything is built.
    """
    _check_args(n_players, max_block)
    n, K = int(n_players), int(max_block)
    count = _bell(n, K)
    if count * n > _DENSE_LIMIT:
        raise ValueError(
            f"the {count} partitions of {n} players with blocks of at most {K} "
            f"exceed the dense limit of {_DENSE_LIMIT} code entries"
        )
    dtype = _code_dtype(n)
    if n == 1:
        return PartitionFamily._of_codes(n, K, np.zeros((1, 1), dtype=dtype))
    codes = np.array([[0, 0], [0, 1]] if K > 1 else [[0, 1]], dtype=dtype)
    if n > 2:
        sizes = np.zeros((len(codes), n), dtype=dtype)
        sizes[:, :2] = [[2, 0], [1, 1]] if K > 1 else [[1, 1]]
        opened = codes[:, 1] + 1  # the blocks in use
        for player in range(2, n):
            room = sizes[:, : player + 1] < K
            room &= np.arange(player + 1) <= opened[:, None]
            rows, block = np.nonzero(room)
            grown = np.empty((len(rows), player + 1), dtype=dtype)
            grown[:, :player] = codes[rows]
            grown[:, player] = block
            codes = grown
            if player + 1 < n:
                sizes = sizes[rows]
                sizes[np.arange(len(rows)), block] += 1
                opened = np.maximum(opened[rows], block + 1)
    return PartitionFamily._of_codes(n, K, codes)


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
