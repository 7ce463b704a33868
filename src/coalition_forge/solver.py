"""Equilibrium computation for coalition formation games.

Three solvers cover the usual cases: an exhaustive pure profile search
with a group redesire screen, exact support enumeration for two player
games, and damped fictitious play for everything else. The exact lanes
work in rational arithmetic end to end. The iterative lane runs on
floats and reports the residual regret it achieved, snapping to an
exactly verified pure profile when best responses lock in.

All lanes read the game's payoff tensor through one contraction: a
player's deviation values are the tensor, sliced to the other players'
supports and contracted with their weights, in Fractions for exact
profiles and floats otherwise. The pure lane reads the game's
best-reply counts; lotteries group the support grid by the game's
realized-structure index.
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


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by the solvers.

    tolerance applies to float verification and iterative convergence.
    max_support caps the support sizes tried by enumeration (None picks
    min(6, set size)). damping scales the fictitious play step
    damping / (t + 2); rng_seed 0 means a uniform start, anything else
    seeds a Dirichlet draw.
    """

    tolerance: float = 1e-9
    max_support: int | None = None
    max_iterations: int = 100_000
    damping: float = 1.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.tolerance <= 0:
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
            if any(w < 0 for w in row):
                raise ValueError(f"player {i} has a negative weight")
            total = sum(row)
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
        return tuple(k for k, w in enumerate(self.weights[player]) if w != 0)

    def support_items(self) -> tuple[tuple[tuple[int, Fraction | float], ...], ...]:
        """Per player, the (index, weight) pairs with nonzero weight."""
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
            tuple(Fraction(1 if k == profile[i] else 0) for k in range(len(s)))
            for i, s in enumerate(game.strategy_sets)
        )
    )


@dataclass(frozen=True)
class EquilibriumResult:
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


def _deviation_values(game: CoalitionGame, player: int, mixed: MixedProfile) -> list:
    """Expected payoff of each pure strategy of one player vs the rest."""
    dtype = object if mixed.is_exact else float
    tensor = game.payoff_tensor[..., player]
    weights = []
    for j, row in enumerate(mixed.support_items()):
        if j != player:
            tensor = tensor.take([k for k, _ in row], axis=j)
        weights.append(np.array([w for _, w in row], dtype=dtype))
    return _contract(tensor.astype(dtype, copy=False), weights, player).tolist()


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
    probabilities of its profiles and their payoff rows.
    """
    items = mixed.support_items()
    grid = np.ix_(*([k for k, _ in row] for row in items))
    dtype = object if mixed.is_exact else float
    weights = [np.array([w for _, w in row], dtype=dtype) for row in items]
    prob = reduce(np.multiply.outer, weights).ravel()
    index = game.realized_index[grid].ravel()
    pay = game.payoff_tensor[grid].reshape(-1, game.n_players)
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
    return {
        structure: tuple((prob[:, None] * pay).sum(axis=0).tolist())
        for structure, prob, pay in _structure_groups(game, mixed)
    }


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


def _redesire_alternatives(game: CoalitionGame, player: int, strategy_index: int):
    """Other strategies of the player with the same action label."""
    action = game.strategy_sets[player][strategy_index].action
    return [
        k
        for k, s in enumerate(game.strategy_sets[player])
        if k != strategy_index and s.action == action
    ]


def _group_blocked(game: CoalitionGame, profile: Profile) -> bool:
    """True if some group can strictly gain by jointly redesiring.

    A redesire keeps every member's action fixed and changes only the
    desired partition. Groups run from pairs up to the coalition cap.
    Players already at their best payoff anywhere in the game can never
    strictly gain and are skipped.
    """
    tensor = game.payoff_tensor
    pay = tensor[profile]
    movers = [i for i in range(game.n_players) if pay[i] < game.payoff_peaks[i]]
    top = min(game.max_coalition, len(movers))
    for size in range(2, top + 1):
        for group in itertools.combinations(movers, size):
            alt_lists = [_redesire_alternatives(game, i, profile[i]) for i in group]
            if any(not alts for alts in alt_lists):
                continue
            switched = list(profile)
            for combo in itertools.product(*alt_lists):
                for i, k in zip(group, combo):
                    switched[i] = k
                moved = tensor[tuple(switched)]
                if all(moved[i] > pay[i] for i in group):
                    return True
            for i in group:
                switched[i] = profile[i]
    return False


def _pure_result(game: CoalitionGame, profile: Profile, method=PURE, iterations=0):
    return EquilibriumResult(
        profile=point_mass(game, profile),
        expected_payoffs=tuple(game.payoff_tensor[profile].tolist()),
        max_regret=Fraction(0),
        method=method,
        is_equilibrium=True,
        degenerate=bool((game.best_reply_counts[profile] > 1).any()),
        iterations=iterations,
    )


def _pure_equilibria(game: CoalitionGame):
    """Pure equilibria in lexicographic order: unilateral survivors the group screen keeps."""
    survivors = np.argwhere((game.best_reply_counts > 0).all(axis=-1))
    for profile in map(tuple, survivors.tolist()):
        if not _group_blocked(game, profile):
            yield profile


def pure_nash_enumerate(game: CoalitionGame) -> tuple[EquilibriumResult, ...]:
    """All pure equilibria, in lexicographic profile order.

    A profile qualifies when no player gains by a unilateral switch and
    no group of players up to the coalition cap gains strictly by
    switching desired partitions in concert while keeping actions fixed.
    """
    return tuple(_pure_result(game, p) for p in _pure_equilibria(game))


def is_pure_equilibrium(game: CoalitionGame, profile: Profile) -> bool:
    """Single profile check, same semantics as pure_nash_enumerate."""
    game._check_profile(profile)
    profile = tuple(profile)
    if not (game.best_reply_counts[profile] > 0).all():
        return False
    return not _group_blocked(game, profile)


def first_pure_equilibrium(game: CoalitionGame) -> EquilibriumResult | None:
    """First pure equilibrium in lexicographic order, screening no further."""
    profile = next(_pure_equilibria(game), None)
    return None if profile is None else _pure_result(game, profile)


# -- support enumeration (two players) -----------------------------------


def solve_linear_exact(matrix, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [v / inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def _indifference_weights(pay, own_support, other_support):
    """Opponent weights making the player indifferent across own_support.

    pay[own][other] is the player's payoff matrix oriented so the first
    index is their own strategy. Returns (weights, value) or None when
    the linear system is singular or leaves the support.
    """
    k = len(own_support)
    matrix = [
        [pay[i][j] for j in other_support] + [Fraction(-1)] for i in own_support
    ]
    matrix.append([Fraction(1)] * k + [Fraction(0)])
    rhs = [Fraction(0)] * k + [Fraction(1)]
    solution = solve_linear_exact(matrix, rhs)
    if solution is None:
        return None
    weights, value = solution[:k], solution[k]
    if any(w <= 0 for w in weights):
        return None
    return weights, value


def _full_weights(size: int, support, weights) -> tuple[Fraction, ...]:
    row = [Fraction(0)] * size
    for idx, w in zip(support, weights):
        row[idx] = Fraction(w)
    return tuple(row)


def _candidate_result(game, sup1, sup2, w1, w2):
    """Validate candidate weights as an exact equilibrium, or None.

    Checks indifference inside each support and no profitable strategy
    outside it; flags the result degenerate when an off-support strategy
    ties the equilibrium value.
    """
    mixed = MixedProfile((w1, w2))
    values = [_deviation_values(game, i, mixed) for i in range(2)]
    expected = tuple(_expected(mixed, i, v) for i, v in enumerate(values))
    degenerate = False
    for player, sup in ((0, sup1), (1, sup2)):
        for k, v in enumerate(values[player]):
            if k in sup:
                if v != expected[player]:
                    return None
            elif v > expected[player]:
                return None
            elif v == expected[player]:
                degenerate = True
    return EquilibriumResult(
        profile=mixed,
        expected_payoffs=expected,
        max_regret=Fraction(0),
        method=SUPPORT,
        is_equilibrium=True,
        degenerate=degenerate,
    )


def mixed_nash_2p_support_enum(
    game: CoalitionGame, config: SolverConfig | None = None
) -> SupportEnumeration:
    """Exact support enumeration for two player games.

    Equal sized supports are solved through the indifference system;
    unequal or singular cases fall back to a uniform candidate, which
    catches continua that a square system cannot pin down. Results come
    back deduplicated and sorted by support.
    """
    if game.n_players != 2:
        raise ValueError(
            f"support enumeration handles exactly 2 players, game has {game.n_players}"
        )
    config = config or SolverConfig()
    n1 = len(game.strategy_sets[0])
    n2 = len(game.strategy_sets[1])
    cap = config.max_support if config.max_support is not None else min(6, n1, n2)
    pay1 = game.payoff_tensor[..., 0].tolist()
    pay2_t = game.payoff_tensor[..., 1].T.tolist()
    found: dict = {}
    for size1 in range(1, min(cap, n1) + 1):
        for sup1 in itertools.combinations(range(n1), size1):
            for size2 in range(1, min(cap, n2) + 1):
                for sup2 in itertools.combinations(range(n2), size2):
                    if size1 == size2:
                        solved2 = _indifference_weights(pay1, sup1, sup2)
                        solved1 = _indifference_weights(pay2_t, sup2, sup1)
                        if solved1 is not None and solved2 is not None:
                            w1 = _full_weights(n1, sup1, solved1[0])
                            w2 = _full_weights(n2, sup2, solved2[0])
                            result = _candidate_result(game, sup1, sup2, w1, w2)
                            if result is not None:
                                found.setdefault(result.profile.weights, result)
                            continue
                    w1 = _full_weights(n1, sup1, [Fraction(1, size1)] * size1)
                    w2 = _full_weights(n2, sup2, [Fraction(1, size2)] * size2)
                    result = _candidate_result(game, sup1, sup2, w1, w2)
                    if result is not None:
                        found.setdefault(result.profile.weights, result)
    ordered = sorted(
        found.values(),
        key=lambda r: (
            tuple(r.profile.support(i) for i in range(2)),
            r.profile.weights,
        ),
    )
    return SupportEnumeration(
        equilibria=tuple(ordered), truncated=cap < max(n1, n2)
    )


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
    tensors = np.moveaxis(game.payoff_tensor, -1, 0).astype(float, order="C")
    dists = _start_distributions(game, config, start)
    n = game.n_players
    last_br: Profile | None = None
    stable = 0
    regret = float("inf")
    iterations = 0
    for t in range(config.max_iterations):
        iterations = t + 1
        values = [_contract(tensors[i], dists, i) for i in range(n)]
        br = tuple(int(np.argmax(v)) for v in values)
        regret = max(
            float(values[i][br[i]] - values[i] @ dists[i]) for i in range(n)
        )
        if regret <= config.tolerance:
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
        if br == last_br:
            stable += 1
        else:
            last_br = br
            stable = 0
        if stable >= _LOCK_WINDOW:
            stable = 0
            report = verify_epsilon_nash(game, point_mass(game, br))
            if report.passed:
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
