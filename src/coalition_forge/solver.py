"""Equilibrium computation for coalition formation games.

Three solvers cover the usual cases: an exhaustive pure profile search
with a group redesire screen, exact support enumeration for two player
games, and damped fictitious play for everything else. The exact lanes
compare payoffs, and the support lane also solves, in the game's integer
units (payoff_ints), with Fractions only in their results. The iterative
lane runs on floats and reports the residual regret it achieved,
snapping to an exactly verified pure profile when best responses lock
in.

Verification, expected utilities and fictitious play read the game's
one payoff tensor, payoff_ints, through one contraction: a player's
deviation values are the tensor, sliced to the other players' supports
and contracted with their weights. Exact profiles contract the integers
with Fraction weights and divide each value by payoff_scale once; float
profiles contract each payoff rounded once from its exact value, the
float(Fraction) of it. The pure lane reads best-reply counts; lotteries
group the support grid by the game's realized-structure index.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

from .games import CoalitionGame, Profile

PURE = "pure-enum"
SUPPORT = "support-enum"
ITERATIVE = "iterative"

_LOCK_WINDOW = 64
_FLOAT_SUM_SLACK = 1e-12
_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by the solvers.

    tolerance applies to float verification and iterative convergence.
    max_support caps the support sizes tried by enumeration (None picks
    min(6, the smaller strategy count)). damping scales the fictitious
    play step damping / (t + 2); rng_seed 0 means a uniform start,
    anything else seeds a Dirichlet draw.
    """

    tolerance: float = 1e-9
    max_support: int | None = None
    max_iterations: int = 100_000
    damping: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_support is not None and self.max_support < 1:
            raise ValueError(f"max_support must be at least 1, got {self.max_support}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if not 0 < self.damping <= 1:
            raise ValueError(f"damping must lie in (0, 1], got {self.damping}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass(frozen=True)
class MixedProfile:
    """One weight vector per player, each summing to one.

    Exact profiles carry Fraction weights and must sum to exactly one;
    float profiles get a small normalization slack.
    """

    weights: tuple[tuple[Fraction | float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(tuple(row) for row in self.weights))
        if not self.weights:
            raise ValueError("mixed profile needs at least one player")
        for i, row in enumerate(self.weights):
            if not row:
                raise ValueError(f"player {i} has an empty weight vector")
            # Exact zeros change neither the sign check nor the exact sum;
            # float rows keep theirs, so an all-zero row still sums to 0.0.
            weights = [w for w in row if w] if self.is_exact else row
            if any(w < 0 for w in weights):
                raise ValueError(f"player {i} has a negative weight")
            total = sum(weights)
            if self.is_exact:
                if total != 1:
                    raise ValueError(f"player {i} weights sum to {total}, expected 1")
            elif abs(total - 1) > _FLOAT_SUM_SLACK:
                raise ValueError(f"player {i} weights sum to {total!r}, expected 1")

    @cached_property
    def is_exact(self) -> bool:
        return all(isinstance(w, (Fraction, int)) for row in self.weights for w in row)

    @property
    def mode(self) -> str:
        return "exact" if self.is_exact else "float"

    @property
    def n_players(self) -> int:
        return len(self.weights)

    def support(self, player: int) -> tuple[int, ...]:
        return tuple(k for k, _ in self._support_items[player])

    def support_items(self) -> tuple[tuple[tuple[int, Fraction | float], ...], ...]:
        """Per player, the (index, weight) pairs with nonzero weight."""
        return self._support_items

    @cached_property
    def _support_items(self):
        return tuple(
            tuple((k, w) for k, w in enumerate(row) if w != 0) for row in self.weights
        )

    @property
    def is_pure(self) -> bool:
        return all(len(s) == 1 for s in self.support_items())


def point_mass(game: CoalitionGame, profile: Profile) -> MixedProfile:
    """The exact mixed profile putting all weight on one pure profile."""
    game._check_profile(profile)
    return MixedProfile(
        tuple(
            tuple(_ONE if k == profile[i] else _ZERO for k in range(len(s)))
            for i, s in enumerate(game.strategy_sets)
        )
    )


@dataclass(frozen=True)
class EquilibriumResult:
    """A solver's answer: a profile, its expected payoffs and its regret.

    degenerate is True when some player has more pure best replies
    than strategies in their support, so an unused strategy ties the
    equilibrium value. Float results from fictitious play leave it
    False.
    """

    profile: MixedProfile
    expected_payoffs: tuple[Fraction | float, ...]
    max_regret: Fraction | float
    method: str
    is_equilibrium: bool
    degenerate: bool = False
    iterations: int = 0


@dataclass(frozen=True)
class VerificationReport:
    """Per player expected values, best deviations and the regret gap."""

    expected: tuple[Fraction | float, ...]
    best_response: tuple[Fraction | float, ...]
    regrets: tuple[Fraction | float, ...]
    max_regret: Fraction | float
    tolerance: Fraction | float
    passed: bool


@dataclass(frozen=True)
class SupportEnumeration:
    """The exact equilibria support enumeration found, sorted by support.

    truncated is True when the support size cap was below some player's
    strategy count, so larger supports went untried.
    """

    equilibria: tuple[EquilibriumResult, ...]
    truncated: bool = False


def _check_mixed(game: CoalitionGame, mixed: MixedProfile) -> None:
    if mixed.n_players != game.n_players:
        raise ValueError(
            f"profile covers {mixed.n_players} players, game has {game.n_players}"
        )
    for i, row in enumerate(mixed.weights):
        if len(row) != len(game.strategy_sets[i]):
            raise ValueError(
                f"player {i} weight vector has length {len(row)}, "
                f"strategy set has {len(game.strategy_sets[i])}"
            )


def _contract(tensor: np.ndarray, weights: list[np.ndarray], player: int) -> np.ndarray:
    """Sum the tensor over every axis but the player's, weighted by the others' weights."""
    letters = string.ascii_letters
    n = len(weights)
    subscripts = ",".join([letters[:n], *(letters[j] for j in range(n) if j != player)])
    operands = [weights[j] for j in range(n) if j != player]
    return np.einsum(subscripts + "->" + letters[player], tensor, *operands)


def _float_payoffs(game: CoalitionGame, ints: np.ndarray) -> np.ndarray:
    """payoff_ints entries as float payoffs, each int / payoff_scale rounded once.

    That is float(Fraction) of the payoff; int64 division would round
    the dividend first once it passes 2**53.
    """
    return (ints.astype(object) / game.payoff_scale).astype(float)


def _payoff_values(game: CoalitionGame, values: np.ndarray, exact: bool) -> list:
    """Values computed on payoff_ints or _float_payoffs, in payoff units.

    Exact ones are divided by payoff_scale, once each.
    """
    return [Fraction(v, game.payoff_scale) for v in values.tolist()] if exact else values.tolist()


def _deviation_values(game: CoalitionGame, player: int, mixed: MixedProfile) -> list:
    """Expected payoff of each pure strategy of one player vs the rest."""
    exact = mixed.is_exact
    tensor = game.payoff_ints[..., player]
    weights = []
    for j, row in enumerate(mixed.support_items()):
        if j != player:
            tensor = tensor.take([k for k, _ in row], axis=j)
        weights.append(np.array([w for _, w in row], dtype=object if exact else float))
    values = _contract(tensor if exact else _float_payoffs(game, tensor), weights, player)
    return _payoff_values(game, values, exact)


def _expected(mixed: MixedProfile, player: int, values: list):
    """Expected payoff of a player from their deviation values."""
    zero = Fraction(0) if mixed.is_exact else 0.0
    return sum((w * values[k] for k, w in mixed.support_items()[player]), zero)


def expected_utilities(game: CoalitionGame, mixed: MixedProfile) -> tuple:
    """Expected payoff vector under independent mixing."""
    _check_mixed(game, mixed)
    return tuple(
        _expected(mixed, i, _deviation_values(game, i, mixed))
        for i in range(game.n_players)
    )


def expected_utility(game: CoalitionGame, mixed: MixedProfile, player: int):
    """Expected payoff of one player under independent mixing."""
    if not 0 <= player < game.n_players:
        raise ValueError(f"player index {player} out of range")
    return expected_utilities(game, mixed)[player]


def _structure_groups(game: CoalitionGame, mixed: MixedProfile):
    """The support grid grouped by realized structure.

    Yields, in family order, each realized structure with the
    probabilities of its profiles and their payoff_ints rows.
    """
    items = mixed.support_items()
    grid = np.ix_(*([k for k, _ in row] for row in items))
    dtype = object if mixed.is_exact else float
    weights = [np.array([w for _, w in row], dtype=dtype) for row in items]
    prob = reduce(np.multiply.outer, weights).ravel()
    index = game.realized_index[grid].ravel()
    pay = game.payoff_ints[grid].reshape(-1, game.n_players)
    for s in np.unique(index).tolist():
        mask = index == s
        yield game.family[s], prob[mask], pay[mask]


def expected_utility_by_structure(game: CoalitionGame, mixed: MixedProfile) -> dict:
    """Expected payoff contributions grouped by the realized partition.

    Values over all keys sum to the flat expected utility. Only
    partitions realized with positive probability appear, in family
    order.
    """
    _check_mixed(game, mixed)
    exact = mixed.is_exact
    by_structure = {}
    for structure, prob, pay in _structure_groups(game, mixed):
        pay = pay if exact else _float_payoffs(game, pay)
        # Summed row by row, so float sums keep one order whatever the shape.
        by_structure[structure] = tuple(_payoff_values(game, reduce(np.add, prob[:, None] * pay), exact))
    return by_structure


def best_response_value(game: CoalitionGame, mixed: MixedProfile, player: int):
    """Highest expected payoff the player can reach by a pure deviation.

    Mixed deviations are convex combinations of pure ones, so this also
    bounds every mixed deviation.
    """
    if not 0 <= player < game.n_players:
        raise ValueError(f"player index {player} out of range")
    _check_mixed(game, mixed)
    return max(_deviation_values(game, player, mixed))


def verify_epsilon_nash(
    game: CoalitionGame, mixed: MixedProfile, tolerance=None
) -> VerificationReport:
    """Check that no player can gain more than tolerance by deviating.

    Default tolerance is exact zero for rational profiles and 1e-9 for
    float ones.
    """
    _check_mixed(game, mixed)
    if tolerance is None:
        tolerance = Fraction(0) if mixed.is_exact else 1e-9
    values = [_deviation_values(game, i, mixed) for i in range(game.n_players)]
    expected = tuple(_expected(mixed, i, v) for i, v in enumerate(values))
    best = tuple(max(v) for v in values)
    regrets = tuple(b - e for b, e in zip(best, expected))
    max_regret = max(regrets)
    return VerificationReport(
        expected=expected,
        best_response=best,
        regrets=regrets,
        max_regret=max_regret,
        tolerance=tolerance,
        passed=max_regret <= tolerance,
    )


# -- pure equilibria -----------------------------------------------------


def _group_blocked(game: CoalitionGame, profile: Profile) -> bool:
    """True if some group can strictly gain by jointly redesiring.

    A redesire keeps every member's action fixed and changes only the
    desired partition. Groups run from pairs up to the coalition cap;
    each group's redesires are one slice of the payoff tensor, with the
    members' axes cut to their alternatives and every other axis to the
    profile's strategy. Players already at their best payoff anywhere
    in the game can never strictly gain and are skipped. Payoffs are
    compared in the game's integer units, payoff_ints.
    """
    tensor = game.payoff_ints
    pay = tensor[profile]
    alternatives = {}
    for i, (k, here, peak) in enumerate(zip(profile, pay.tolist(), game.payoff_peaks)):
        if here < peak:
            action = game.strategy_sets[i][k].action
            same = [j for j, s in enumerate(game.strategy_sets[i]) if j != k and s.action == action]
            if same:
                alternatives[i] = same
    for size in range(2, min(game.max_coalition, len(alternatives)) + 1):
        for group in map(list, itertools.combinations(alternatives, size)):
            axes = [alternatives[i] if i in group else [k] for i, k in enumerate(profile)]
            moved = tensor[np.ix_(*axes)][..., group]
            if (moved > pay[group]).all(-1).any():
                return True
    return False


def _pure_result(game: CoalitionGame, profile: Profile, method=PURE, iterations=0):
    return EquilibriumResult(
        profile=point_mass(game, profile),
        expected_payoffs=tuple(game.payoffs[profile]),
        max_regret=Fraction(0),
        method=method,
        is_equilibrium=True,
        degenerate=bool((game.best_reply_counts[profile] > 1).any()),
        iterations=iterations,
    )


def _pure_equilibria(game: CoalitionGame, profiles=None):
    """The profiles that pass the pure lane's test, in the order given.

    A profile passes when every player is at a best reply and no group
    is blocked by a redesire. Without profiles, every profile of the
    game is screened, in lexicographic order.
    """
    counts = game.best_reply_counts
    if profiles is None:
        profiles = map(tuple, np.argwhere((counts > 0).all(axis=-1)).tolist())
    for profile in profiles:
        if (counts[profile] > 0).all() and not _group_blocked(game, profile):
            yield profile


def pure_nash_enumerate(game: CoalitionGame) -> tuple[EquilibriumResult, ...]:
    """All pure equilibria of the group-redesire refinement, in lexicographic profile order.

    A profile qualifies when no player gains by a unilateral switch and
    no group of players up to the coalition cap gains strictly by
    switching desired partitions in concert while keeping actions fixed.
    This refines pure Nash: in lunch, the profile where all four
    colleagues desire {0,1}{2,3} is Nash, since the other pair forms
    whatever one player desires, but players 0 and 2 both gain (3 to
    10) by desiring {0,2}{1}{3} together, so it is screened out.
    """
    return tuple(_pure_result(game, p) for p in _pure_equilibria(game))


def is_pure_equilibrium(game: CoalitionGame, profile: Profile) -> bool:
    """Single profile check, same semantics as pure_nash_enumerate."""
    game._check_profile(profile)
    return next(_pure_equilibria(game, [tuple(profile)]), None) is not None


def first_pure_equilibrium(game: CoalitionGame) -> EquilibriumResult | None:
    """First pure equilibrium in lexicographic order, screening no further."""
    profile = next(_pure_equilibria(game), None)
    return None if profile is None else _pure_result(game, profile)


# -- support enumeration (two players) -----------------------------------


def _solve_fraction_free(rows):
    """Solve an n x (n+1) augmented integer system; None when singular.

    Fraction-free Gauss-Jordan elimination (Bareiss): each step sets
    every other row to (pivot * row - factor * pivot row) // previous
    pivot, exact since every entry is a minor of the system. Pivots are
    the first nonzero entry at or below the diagonal, and the last one
    ends on the whole diagonal. Returns (numerators, denominator > 0),
    overwriting rows.
    """
    n = len(rows)
    previous = 1
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        p = top[col]
        for r, row in enumerate(rows):
            if r != col:
                f = row[col]
                rows[r] = [(p * v - f * t) // previous for v, t in zip(row, top)]
        previous = p
    sign = 1 if previous > 0 else -1
    return [sign * row[n] for row in rows], sign * previous


def _indifference_weights(pay, own_support, other_support):
    """Opponent weights making the player indifferent across own_support.

    pay[own][other] is the player's integer payoff matrix oriented so
    the first index is their own strategy; a positive scale of pay
    leaves the weights alone. Returns (numerators, denominator > 0), or
    None when the linear system is singular or leaves the support.
    """
    k = len(own_support)
    rows = [[pay[i][j] for j in other_support] + [-1, 0] for i in own_support]
    rows.append([1] * k + [0, 1])
    solution = _solve_fraction_free(rows)
    if solution is None or min(solution[0][:k]) <= 0:
        return None
    return solution[0][:k], solution[1]


def mixed_nash_2p_support_enum(
    game: CoalitionGame, config: SolverConfig | None = None
) -> SupportEnumeration:
    """Exact support enumeration for two player games.

    Each pair of supports yields one candidate: the indifference
    system's weights when the supports are equal sized and both systems
    solve, uniform weights otherwise. It passes when every support
    strategy of both players reaches their best deviation value, the
    zero-regret rule of verify_epsilon_nash. Weights, values and the
    check are integers in payoff_ints units; only accepted candidates
    become Fractions. Every result is an exact equilibrium, and results
    come sorted by support. The lane is not complete on degenerate
    games: it misses every equilibrium that is neither a square system's
    solution nor uniform on its supports, and can miss whole components.
    Two games from random_two_player_game(random.Random(7), 4), payoffs
    shifted by +6: trial 278, A = [[6,10],[11,6],[4,11],[7,2]],
    B = [[8,8],[8,10],[7,11],[1,7]], where pure row 0 against column
    mixes from (1/3, 2/3) to (4/9, 5/9) is missed; trial 298,
    A = [[7,2,11],[11,4,11]], B = [[11,1,3],[2,7,6]], where the row mix
    (1/3, 2/3) against pure column 2 is missed.
    """
    if game.n_players != 2:
        raise ValueError(
            f"support enumeration handles exactly 2 players, game has {game.n_players}"
        )
    config = config or SolverConfig()
    sizes = [len(s) for s in game.strategy_sets]
    cap = config.max_support if config.max_support is not None else min(6, *sizes)
    pay = [game.payoff_ints[..., 0].tolist(), game.payoff_ints[..., 1].T.tolist()]
    scale = game.payoff_scale
    # Lexicographic support lists make the pairs come in result order.
    supports = [
        sorted(
            s for size in range(1, min(cap, n) + 1) for s in itertools.combinations(range(n), size)
        )
        for n in sizes
    ]
    found = []
    for pair in itertools.product(*supports):
        weights = [([1] * len(s), len(s)) for s in pair]
        if len(pair[0]) == len(pair[1]):
            solved = [
                _indifference_weights(pay[1], pair[1], pair[0]),
                _indifference_weights(pay[0], pair[0], pair[1]),
            ]
            if None not in solved:
                weights = solved
        # Each player's value of every own strategy, times the opponent's denominator.
        best, ties = [], []
        for i, (other, (q, _)) in enumerate(zip(pair[::-1], weights[::-1])):
            v = [sum(row[j] * w for j, w in zip(other, q)) for row in pay[i]]
            best.append(max(v))
            if any(v[k] != best[i] for k in pair[i]):
                break
            ties.append(v.count(best[i]) > len(pair[i]))
        else:
            rows = [[_ZERO] * size for size in sizes]
            for row, support, (numerators, denominator) in zip(rows, pair, weights):
                for k, w in zip(support, numerators):
                    row[k] = Fraction(w, denominator)
            expected = tuple(Fraction(b, d * scale) for b, (_, d) in zip(best, weights[::-1]))
            found.append(
                EquilibriumResult(MixedProfile(rows), expected, _ZERO, SUPPORT, True, any(ties))
            )
    return SupportEnumeration(equilibria=tuple(found), truncated=cap < max(sizes))


# -- iterative solver ----------------------------------------------------


def _start_distributions(game: CoalitionGame, config: SolverConfig, start):
    if start is not None:
        _check_mixed(game, start)
        return [np.array([float(w) for w in row]) for row in start.weights]
    sizes = [len(s) for s in game.strategy_sets]
    if config.rng_seed == 0:
        return [np.full(k, 1.0 / k) for k in sizes]
    rng = np.random.default_rng(config.rng_seed)
    return [rng.dirichlet(np.ones(k)) for k in sizes]


def _float_profile(dists: list[np.ndarray]) -> MixedProfile:
    rows = []
    for d in dists:
        row = np.clip(d, 0.0, None)
        rows.append(tuple(float(v) for v in row / row.sum()))
    return MixedProfile(tuple(rows))


def mixed_nash_iterative(
    game: CoalitionGame,
    config: SolverConfig | None = None,
    start: MixedProfile | None = None,
) -> EquilibriumResult:
    """Damped fictitious play on the average strategy profile.

    Stops when the regret of the running average drops under tolerance,
    or earlier when best responses stay put long enough to suggest a
    pure profile, which is then verified exactly and snapped to. Runs
    that exhaust max_iterations come back flagged is_equilibrium False
    with the residual regret, which refutes convergence rather than
    reporting nothing.
    """
    config = config or SolverConfig()
    tensors = np.ascontiguousarray(np.moveaxis(_float_payoffs(game, game.payoff_ints), -1, 0))
    dists = _start_distributions(game, config, start)
    n = game.n_players
    last_br: Profile | None = None
    stable = 0
    iterations = 0
    for t in range(config.max_iterations):
        iterations = t + 1
        values = [_contract(tensors[i], dists, i) for i in range(n)]
        br = tuple(int(np.argmax(v)) for v in values)
        regret = max(
            float(values[i][br[i]] - values[i] @ dists[i]) for i in range(n)
        )
        if regret <= config.tolerance:
            break
        if br == last_br:
            stable += 1
        else:
            last_br = br
            stable = 0
        if stable >= _LOCK_WINDOW:
            stable = 0
            if (game.best_reply_counts[br] > 0).all():
                return _pure_result(game, br, method=ITERATIVE, iterations=iterations)
        alpha = config.damping / (t + 2)
        for i in range(n):
            dists[i] *= 1.0 - alpha
            dists[i][br[i]] += alpha
    profile = _float_profile(dists)
    report = verify_epsilon_nash(game, profile, config.tolerance)
    return EquilibriumResult(
        profile=profile,
        expected_payoffs=report.expected,
        max_regret=report.max_regret,
        method=ITERATIVE,
        is_equilibrium=report.passed,
        iterations=iterations,
    )
