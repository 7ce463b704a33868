"""Built-in example games.

Each builder hands its game, through games._handed, the payoff tensor
read by the one payoff reader games._read_payoffs from exact rational
rows: a two-player game's cells in profile order, and lunch's one row
per realized structure, gathered by the realized-structure index that
lunch hands over too. No profile-keyed payoff mapping is built.

The two-player variants share one base payoff pattern on their two actions
and differ only in which cells get a partition-dependent markup. Strategy
order follows the source tables: alone strategies first, together
strategies second, first action before second inside each pairing.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .games import CoalitionGame, Strategy, _frozen, _handed, _read_payoffs, _TensorPayoffs, _unanimity_index
from .partitions import CoalitionStructure, _row, enumerate_partitions

_PD_BASE = {
    ("L", "L"): (Fraction(0), Fraction(0)),
    ("L", "H"): (Fraction(-5), Fraction(3)),
    ("H", "L"): (Fraction(3), Fraction(-5)),
    ("H", "H"): (Fraction(-2), Fraction(-2)),
}

_BOS_BASE = {
    ("B", "B"): (Fraction(2), Fraction(1)),
    ("B", "O"): (Fraction(0), Fraction(0)),
    ("O", "B"): (Fraction(0), Fraction(0)),
    ("O", "O"): (Fraction(1), Fraction(2)),
}

ALONE = "alone"
TOGETHER = "together"


def _two_player_game(actions, base, adjust) -> CoalitionGame:
    """Assemble a 2-player game with alone/together pairing strategies.

    actions: ordered action labels. base: map from action pair to the base
    cell. adjust((p1, p2), (action1, where1), (action2, where2)) returns
    the final cell, where each "where" is ALONE or TOGETHER.
    """
    family = enumerate_partitions(2, 2)
    pair, alone = CoalitionStructure.of([(0, 1)], 2), CoalitionStructure.singletons(2)
    where_index = dict(zip((TOGETHER, ALONE), family._find([_row(pair), _row(alone)]).tolist()))
    choices = [(a, w) for w in (ALONE, TOGETHER) for a in actions]
    strategies = tuple(Strategy(where_index[w], a) for a, w in choices)
    cells = [adjust(base[(c1[0], c2[0])], c1, c2) for c1 in choices for c2 in choices]
    return _handed(family, (strategies, strategies), _read_payoffs(cells, (len(choices), len(choices), 2)))


def _joint_bonus(where: str, bonus: Fraction):
    """The adjust that adds bonus to both payoffs where both players choose where."""
    return lambda pay, c1, c2: (pay[0] + bonus, pay[1] + bonus) if c1[1] == c2[1] == where else pay


def build_pd_standard() -> CoalitionGame:
    """Two-player dilemma where staying alone is the only option (cap K=1)."""
    return build_pd_extended().restrict(1)


def build_pd_extended() -> CoalitionGame:
    """Dilemma with pairing allowed; payoffs depend on actions only."""
    return _two_player_game(("L", "H"), _PD_BASE, lambda pay, c1, c2: pay)


def build_pd_extroverts(eps: Fraction) -> CoalitionGame:
    """Dilemma where both players gain eps in every cell realizing the pair."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    return _two_player_game(("L", "H"), _PD_BASE, _joint_bonus(TOGETHER, eps))


def build_pd_introverts(delta: Fraction) -> CoalitionGame:
    """Dilemma where both players gain delta exactly when both choose alone.

    The markup is tied to the joint choice, not the realized structure: a
    lone chooser facing a together chooser stays at the base payoff even
    though the singleton structure is realized.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return _two_player_game(("L", "H"), _PD_BASE, _joint_bonus(ALONE, delta))


def build_pd_mixed_types(eps: Fraction, delta: Fraction) -> CoalitionGame:
    """Dilemma with an extrovert row player and an introvert column player.

    Player 1 gains eps in the four cells realizing the pair; player 2
    gains delta in every other cell. Two cells follow the source grid
    rather than that pattern: (L_together, L_alone) is encoded with the
    literal value delta - 5 for player 2, and (L_together, H_together),
    whose second payoff is missing in the source, is filled as
    (-5 + eps, -5) by symmetry with the (H_together, L_together) cell.
    """
    eps = Fraction(eps)
    delta = Fraction(delta)
    if eps <= 0 or delta <= 0:
        raise ValueError(f"eps and delta must be positive, got {eps}, {delta}")

    def adjust(pay, c1, c2):
        if c1[1] == c2[1] == TOGETHER:
            p2 = Fraction(-5) if (c1[0], c2[0]) == ("L", "H") else pay[1]
            return (pay[0] + eps, p2)
        p2 = pay[1] + delta
        if c1 == ("L", TOGETHER) and c2 == ("L", ALONE):
            p2 = pay[1] - 5 + delta
        return (pay[0], p2)

    return _two_player_game(("L", "H"), _PD_BASE, adjust)


def build_bos(eps: Fraction) -> CoalitionGame:
    """Partner coordination game; eps rewards both players when paired.

    eps=0 keeps the together block identical to the alone block, which
    makes the game degenerate on purpose.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError(f"eps must be non-negative, got {eps}")
    return _two_player_game(("B", "O"), _BOS_BASE, _joint_bonus(TOGETHER, eps))


def build_stag_hare() -> CoalitionGame:
    """Hunting game: hare pays 8 solo style, a paired stag hunt pays 100.

    A paired hare hunt splits the commons to 4 each. Hunting stag without
    a realized pair pays nothing.
    """

    def adjust(pay, c1, c2):
        if c1[1] == c2[1] == TOGETHER:
            if c1[0] == c2[0] == "stag":
                return (Fraction(100), Fraction(100))
            if c1[0] == c2[0] == "hare":
                return (Fraction(4), Fraction(4))
        return pay

    base = {
        (a1, a2): (Fraction(8 if a1 == "hare" else 0), Fraction(8 if a2 == "hare" else 0))
        for a1 in ("hare", "stag")
        for a2 in ("hare", "stag")
    }
    return _two_player_game(("hare", "stag"), base, adjust)


def build_lunch() -> CoalitionGame:
    """Four colleagues choosing lunch company; desires are whole partitions.

    A player eats well (10) when part of the only realized pair, eats fine
    (3) when alone or when two pairs form, and gets nothing whenever a
    realized block has three or more members. Strategies carry no action
    component. Payoffs depend only on the realized structure, so the
    rows of the family's structures are gathered by the unanimity index,
    which the game is handed with its payoffs.
    """
    n = 4
    family = enumerate_partitions(n, n)
    strategy_sets = (tuple(Strategy(k) for k in range(len(family))),) * n
    index = _unanimity_index(family, strategy_sets)
    rows = _read_payoffs([_lunch_payoffs(s) for s in family], (len(family), n))
    return _handed(family, strategy_sets, _TensorPayoffs(_frozen(rows.ints[index]), rows.scale), index)


def _lunch_payoffs(structure: CoalitionStructure) -> tuple[Fraction, ...]:
    if structure.max_block_size >= 3:
        return (Fraction(0),) * structure.n_players
    pairs = sum(1 for b in structure.blocks if b.size == 2)
    return tuple(
        Fraction(10) if pairs == 1 and structure.block_of(p).size == 2 else Fraction(3)
        for p in range(structure.n_players)
    )


@dataclass(frozen=True)
class CatalogEntry:
    """A named builtin game with its parameters and display names."""

    id: str
    description: str
    n_players: int
    max_coalition: int
    player_names: tuple[str, ...]
    parameters: tuple[tuple[str, Fraction], ...]
    builder: Callable[..., CoalitionGame]

    def build(self, **params: Fraction) -> CoalitionGame:
        known = {name for name, _ in self.parameters}
        unknown = set(params) - known
        if unknown:
            raise ValueError(
                f"unknown parameter(s) {sorted(unknown)} for {self.id}; accepts {sorted(known) or 'none'}"
            )
        filled = {name: Fraction(params.get(name, default)) for name, default in self.parameters}
        return self.builder(**filled)


CATALOG: dict[str, CatalogEntry] = {
    entry.id: entry
    for entry in (
        CatalogEntry(
            "pd-standard",
            "two-player dilemma, singletons only",
            2, 1, ("1", "2"), (), build_pd_standard,
        ),
        CatalogEntry(
            "pd-extended",
            "dilemma with pairing choices, payoffs unchanged",
            2, 2, ("1", "2"), (), build_pd_extended,
        ),
        CatalogEntry(
            "pd-extroverts",
            "dilemma where a realized pair pays both players eps extra",
            2, 2, ("1", "2"), (("eps", Fraction(1)),), build_pd_extroverts,
        ),
        CatalogEntry(
            "pd-introverts",
            "dilemma where jointly choosing alone pays both players delta extra",
            2, 2, ("1", "2"), (("delta", Fraction(1)),), build_pd_introverts,
        ),
        CatalogEntry(
            "pd-mixed",
            "dilemma with an extrovert row player and an introvert column player",
            2, 2, ("1", "2"),
            (("eps", Fraction(1)), ("delta", Fraction(1))),
            build_pd_mixed_types,
        ),
        CatalogEntry(
            "bos",
            "partner coordination with a togetherness bonus eps",
            2, 2, ("Ann", "Bob"), (("eps", Fraction(1, 10)),), build_bos,
        ),
        CatalogEntry(
            "lunch",
            "four colleagues forming lunch pairs, desires are whole partitions",
            4, 4, ("A", "B", "C", "D"), (), build_lunch,
        ),
        CatalogEntry(
            "stag-hare",
            "hunting pact where only a realized pair can take the stag",
            2, 2, ("1", "2"), (), build_stag_hare,
        ),
    )
}

ALIASES = {"pd": "pd-extended"}


def get_entry(game_id: str) -> CatalogEntry:
    canonical = ALIASES.get(game_id, game_id)
    try:
        return CATALOG[canonical]
    except KeyError:
        raise ValueError(
            f"unknown game id {game_id!r}; known ids: {', '.join(sorted(CATALOG))}"
        ) from None


def build_game(game_id: str, **params: Fraction) -> CoalitionGame:
    return get_entry(game_id).build(**params)
