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

One enumeration builds each distinct coalition once and lets all its
structures share that object, and every structure, enumerated or not,
passes the same constructor check: its members, flattened and sorted, must
be exactly 0..n-1. Only a structure that fails it is walked block by block
to name the overlap or the gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb


@dataclass(frozen=True, order=True)
class Coalition:
    """Non-empty group of players, stored sorted and duplicate-free."""

    members: tuple[int, ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("a coalition needs at least one member")
        ordered = tuple(sorted(self.members))
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
        """The coalition containing the given player."""
        if not 0 <= player < self.n_players:
            raise ValueError(f"player {player} out of range 0..{self.n_players - 1}")
        for b in self.blocks:
            if player in b:
                return b
        raise AssertionError("unreachable: blocks cover all players")

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

    Structures are stored in the deterministic enumeration order, and
    index_of gives each structure a stable position used by the game layer
    to reference desired partitions.
    """

    n_players: int
    max_block: int
    structures: tuple[CoalitionStructure, ...]

    @cached_property
    def _index(self) -> dict[CoalitionStructure, int]:
        return {s: i for i, s in enumerate(self.structures)}

    def index_of(self, structure: CoalitionStructure) -> int:
        try:
            return self._index[structure]
        except KeyError:
            raise ValueError(f"{structure} is not in the family (n={self.n_players}, cap={self.max_block})") from None

    def __contains__(self, structure) -> bool:
        return structure in self._index

    def __iter__(self):
        return iter(self.structures)

    def __len__(self) -> int:
        return len(self.structures)

    def __getitem__(self, i: int) -> CoalitionStructure:
        return self.structures[i]


def _check_args(n_players: int, max_block: int) -> None:
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
    so any number of players fits. Equal blocks of different structures
    are one shared Coalition, built once per call.
    """
    _check_args(n_players, max_block)
    coalition = lru_cache(maxsize=None)(Coalition)
    out: list[CoalitionStructure] = []
    blocks: list[list[int]] = []
    joined = [0] * n_players  # the block each placed player is in
    player, first_choice = 0, 0
    while True:
        # Place the player in the first block from first_choice on that has
        # room, or else in a new block.
        b = first_choice
        while b < len(blocks) and len(blocks[b]) >= max_block:
            b += 1
        if b == len(blocks):
            blocks.append([])
        blocks[b].append(player)
        joined[player] = b
        player += 1
        if player < n_players:
            first_choice = 0
            continue
        out.append(CoalitionStructure(tuple(coalition(tuple(m)) for m in blocks), n_players))
        # Back up to the last player who can move to a later block. A player
        # left alone in their block opened it, the last choice they have.
        while True:
            player -= 1
            b = joined[player]
            blocks[b].pop()
            if blocks[b]:
                first_choice = b + 1
                break
            blocks.pop()
            if player == 0:
                return PartitionFamily(n_players, max_block, tuple(out))


@lru_cache(maxsize=None)
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
    big = set(larger.structures)
    return all(s in big for s in smaller.structures)


def coalition_of(structure: CoalitionStructure, player: int) -> Coalition:
    """Functional form of CoalitionStructure.block_of."""
    return structure.block_of(player)


def contains_coalition(structure: CoalitionStructure, coalition: Coalition) -> bool:
    """Functional form of CoalitionStructure.contains_block."""
    return structure.contains_block(coalition)
