"""Equilibrium computation for coalition formation games.

Three solvers cover the usual cases: an exhaustive pure profile search
with a group redesire screen, exact support enumeration for two player
games, and fictitious play for everything else. The exact lanes
compare payoffs, and the support lane also solves, in the game's integer
units (payoff_ints), with Fractions only in their results. The support
lane skips support pairs that conditional strict dominance rules out
and reads uniform candidates from one value vector per opponent
support, so it solves only the equal-size pairs that survive. The
iterative lane runs on floats and reports the residual regret it
achieved, snapping to an exactly verified pure profile when best
responses lock in.

Verification, expected utilities and fictitious play read the game's
one payoff tensor, payoff_ints, through one contraction: a player's
deviation values are the tensor, sliced to the other players' supports
and contracted with their weights. Every profile row holds its support
weights as numerators over one denominator D: integers over their least
common denominator in an exact row, Python floats over 1 in a float
row. So each reader takes one path, and the modes differ only in the
payoff operand, the integers or each payoff rounded once to a float
(the float(Fraction) of it), and in how a value is made: one Fraction
of an integer sum over payoff_scale times the denominators it was
weighted by, or the float sum as it stands. The pure lane reads
best-reply counts for the unilateral test and screens the survivors
for group redesires in one array pass per group: the members' payoffs
are gathered over their own axes, a member already at their payoff peak
rules the group out, and survivors go in chunks whose gathered payoffs
fit a byte budget. Its equilibria are one (E, n) profile array, which
a pure Solution holds as its profiles; is_pure_equilibrium and the
stability diagnostics screen their own rows through the same function,
and point masses, point_mass's too, are built per array, each row once
per (player, strategy). Lotteries walk the support grid, adding up the
products of the numerators by the game's realized-structure index.

solve is the one place that picks a lane, by name or by the "first"
chain, and returns a Solution.
"""

from __future__ import annotations

import itertools
import string
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, inf, lcm, prod
from numbers import Real

import numpy as np

from .games import CoalitionGame, Profile
from .partitions import _index, _is_integer

PURE = "pure-enum"
SUPPORT = "support-enum"
ITERATIVE = "iterative"

_LOCK_WINDOW = 64
# The labels numpy gives sublist axes 0 to 51, so a subscript string
# names the same contraction the sublist form does.
_EINSUM_LETTERS = string.ascii_uppercase + string.ascii_lowercase
_EINSUM_AXES = len(_EINSUM_LETTERS)
_FLOAT_SUM_SLACK = 1e-12
# Float verification's default tolerance, and the iterative lane's.
_FLOAT_TOLERANCE = 1e-9
# Every integer of at most this size is exact as a float64; 2**53 + 1 is not.
_FLOAT_EXACT = 2**53
_ZERO = Fraction(0)
_ONE = Fraction(1)
# The most bytes of gathered payoffs one chunk of the group screen holds.
_SCREEN_BYTES = 1 << 20


def _check_tolerance(tolerance, zero_ok: bool) -> None:
    """Refuse a tolerance that is not a finite real number above 0, or at least 0 if zero_ok.

    numpy's reals and Fraction pass, bool does not. A NaN fails the sign test.
    """
    if not isinstance(tolerance, Real) or isinstance(tolerance, bool):
        raise ValueError(f"tolerance must be a real number, got {tolerance!r}")
    if not (tolerance >= 0 if zero_ok else tolerance > 0):
        raise ValueError(f"tolerance must be {'non-negative' if zero_ok else 'positive'}, got {tolerance}")
    if not tolerance < inf:
        raise ValueError(f"tolerance must be finite, got {tolerance}")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs shared by the solvers.

    tolerance applies to float verification and iterative convergence.
    max_support caps the support sizes tried by enumeration (None picks
    min(6, the smaller strategy count)). rng_seed 0 means a uniform
    fictitious play start, anything else seeds a Dirichlet draw. The
    three counts must be integers, and tolerance a finite real number
    (numpy's too, never bool). The counts are stored as int, so results
    and game files hold no numpy scalars.
    """

    tolerance: float = _FLOAT_TOLERANCE
    max_support: int | None = None
    max_iterations: int = 100_000
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("max_support", "max_iterations", "rng_seed"):
            value = getattr(self, name)
            if value is None and name == "max_support":
                continue
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        _check_tolerance(self.tolerance, zero_ok=False)
        if self.max_support is not None and self.max_support < 1:
            raise ValueError(f"max_support must be at least 1, got {self.max_support}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be at least 1, got {self.max_iterations}")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass(frozen=True)
class MixedProfile:
    """One weight vector per player, each summing to one.

    Exact profiles carry Fraction (or int) weights and must sum to
    exactly one; float profiles get a small normalization slack.
    Validation finds whether the profile is exact, each row's support,
    the (index, weight) pairs with nonzero weight, and its units, (D,
    numerators) with one numerator per support weight. An exact row's D
    is the least common denominator of its support weights, and its
    numerators are those weights times D: non-negative integers summing
    to D. A float row's D is 1 and its numerators are its support
    weights as Python floats. Every reader contracts in these units.
    """

    weights: tuple[tuple[Fraction | float, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(tuple(row) for row in self.weights))
        if not self.weights:
            raise ValueError("mixed profile needs at least one player")
        exact = all(isinstance(w, (Fraction, int)) for row in self.weights for w in row)
        supports, units = [], []
        for i, row in enumerate(self.weights):
            if not row:
                raise ValueError(f"player {i} has an empty weight vector")
            support = tuple((k, w) for k, w in enumerate(row) if w)
            supports.append(support)
            if exact:
                # Exact zeros change neither the sign check nor the exact sum.
                denominator = lcm(*[w.denominator for _, w in support])
                numerators = tuple(w.numerator * (denominator // w.denominator) for _, w in support)
                if any(v < 0 for v in numerators):
                    raise ValueError(f"player {i} has a negative weight")
                if sum(numerators) != denominator:
                    total = Fraction(sum(numerators), denominator)
                    raise ValueError(f"player {i} weights sum to {total}, expected 1")
            else:
                # Float rows keep their zeros, so an all-zero row still sums to 0.0.
                if any(w < 0 for w in row):
                    raise ValueError(f"player {i} has a negative weight")
                total = sum(row)
                if not abs(total - 1) <= _FLOAT_SUM_SLACK:  # a NaN sum fails too
                    raise ValueError(f"player {i} weights sum to {total!r}, expected 1")
                denominator, numerators = 1, tuple([float(w) for _, w in support])
            units.append((denominator, numerators))
        # Not fields, so equality, hashing and repr read only the weights.
        self.__dict__.update(is_exact=exact, _support_items=tuple(supports), _units=tuple(units))

    @classmethod
    def _built(cls, weights: tuple, support_items: tuple, units: tuple, is_exact: bool = True) -> MixedProfile:
        """A profile, exact unless is_exact is False, from rows the package built and knows to be valid.

        weights is a tuple of row tuples, and support_items and units are
        what validation would find for them; nothing is checked.
        """
        mixed = object.__new__(cls)
        mixed.__dict__.update(
            weights=weights, is_exact=is_exact, _support_items=support_items, _units=units
        )
        return mixed

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

    @property
    def is_pure(self) -> bool:
        return all(len(s) == 1 for s in self.support_items())


def point_mass(game: CoalitionGame, profile: Profile) -> MixedProfile:
    """The exact mixed profile putting all weight on one pure profile.

    The profile is read by CoalitionGame._check_profile, so an entry that
    is not an integer in range, a bool or a float included, is refused.
    """
    return next(_point_masses(game, np.array([game._check_profile(profile)])))


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


def _player(game: CoalitionGame, player) -> int:
    """A caller's player index as an int, read by _index."""
    i = _index(player, game.n_players)
    if i is None:
        raise ValueError(f"player index {player} out of range")
    return i


def _einsum_operands(tensor: np.ndarray, weights: list[np.ndarray], player: int) -> list:
    """einsum's arguments for summing the tensor down to the player's axis.

    Every other axis is summed weighted by its player's weights. The list
    is a subscript string, such as "ABC,B,C->A" for player 0 of three,
    then the tensor and the other players' weight arrays in player order.
    It holds the weight arrays themselves, so it stays valid while they
    change in place. The letters are A to Z then a to z, the labels numpy
    gives sublist axes 0 to 51, so the contraction is the one the sublist
    form names, while einsum's dispatch reads only the string and the
    arrays. More than 52 players are refused.
    """
    n = len(weights)
    if n > _EINSUM_AXES:
        raise ValueError(f"contractions handle at most {_EINSUM_AXES} players, game has {n}")
    labels = _EINSUM_LETTERS[:n]
    others = [j for j in range(n) if j != player]
    subscripts = ",".join([labels, *[labels[j] for j in others]]) + "->" + labels[player]
    return [subscripts, tensor, *[weights[j] for j in others]]


def _contract(tensor: np.ndarray, weights: list[np.ndarray], player: int) -> np.ndarray:
    """Sum the tensor over every axis but the player's, weighted by the others' weights."""
    return np.einsum(*_einsum_operands(tensor, weights, player))


def _float_payoffs(game: CoalitionGame, ints: np.ndarray) -> np.ndarray:
    """payoff_ints entries as float payoffs, each int / payoff_scale rounded once.

    That is float(Fraction) of the payoff. An int64 tensor whose entries
    and scale all lie within 2**53 in size converts both to floats exactly,
    so one float division rounds each quotient once, as int / int does.
    Any other tensor divides as Python ints: int64 division would round
    the dividend first once it passes 2**53. A payoff beyond the float
    range raises ValueError.
    """
    scale = game.payoff_scale
    if (
        ints.dtype == np.int64
        and scale <= _FLOAT_EXACT
        and -_FLOAT_EXACT <= ints.min()
        and ints.max() <= _FLOAT_EXACT
    ):
        return ints.astype(float) / float(scale)
    try:
        return (ints.astype(object) / scale).astype(float)
    except OverflowError:
        raise ValueError(
            "a payoff lies beyond the float range, so float profiles cannot read this game; "
            "exact profiles can"
        ) from None


def _payoff_operand(mixed: MixedProfile, game: CoalitionGame, ints: np.ndarray):
    """The payoffs a profile's readers contract, with their scale: ints or floats over 1."""
    return (ints, game.payoff_scale) if mixed.is_exact else (_float_payoffs(game, ints), 1)


def _value(mixed: MixedProfile, n, d):
    """A reported value: one Fraction n / d if exact, else n as it stands, since d is 1."""
    return Fraction(n, d) if mixed.is_exact else n


def _deviation_values(game: CoalitionGame, player: int, mixed: MixedProfile) -> tuple[list, int]:
    """Expected payoff of each pure strategy of one player vs the rest, over one denominator.

    The payoff operand is sliced to the other players' supports and
    contracted with their numerators, so the values lie over its scale
    times the product of the others' D. Float profiles contract float
    payoffs with float numerators, over 1. Exact ones contract the
    integers, in int64 when the game's largest payoff magnitude times
    that product lies below 2**63: each row's numerators are
    non-negative and sum to its D, so this bounds every partial sum.
    Otherwise they run in Python ints.
    """
    tensor = game.payoff_ints[..., player]
    for j, row in enumerate(mixed.support_items()):
        if j != player:
            tensor = tensor.take([k for k, _ in row], axis=j)
    tensor, scale = _payoff_operand(mixed, game, tensor)
    others = prod(d for j, (d, _) in enumerate(mixed._units) if j != player)
    dtype = tensor.dtype
    if dtype == np.int64 and others * max(1, game._payoff_magnitude) >= 2**63:
        dtype, tensor = object, tensor.astype(object)
    # The player's own numerators are never read, and need not fit the dtype.
    weights = [
        None if j == player else np.array(numerators, dtype=dtype)
        for j, (_, numerators) in enumerate(mixed._units)
    ]
    return _contract(tensor, weights, player).tolist(), others * scale


def _expected(mixed: MixedProfile, player: int, values: list):
    """A player's support numerators times their deviation values, summed in support order.

    The sum lies over D_i times the values' denominator.
    """
    items = mixed.support_items()[player]
    return sum(v * values[k] for (k, _), v in zip(items, mixed._units[player][1]))


def _expected_value(game: CoalitionGame, mixed: MixedProfile, player: int):
    """A player's expected payoff, made from one sum and its denominator."""
    values, denominator = _deviation_values(game, player, mixed)
    total = _expected(mixed, player, values)
    return _value(mixed, total, mixed._units[player][0] * denominator)


def expected_utilities(game: CoalitionGame, mixed: MixedProfile) -> tuple:
    """Expected payoff vector under independent mixing."""
    _check_mixed(game, mixed)
    return tuple(_expected_value(game, mixed, i) for i in range(game.n_players))


def expected_utility(game: CoalitionGame, mixed: MixedProfile, player: int):
    """Expected payoff of one player under independent mixing."""
    player = _player(game, player)
    _check_mixed(game, mixed)
    return _expected_value(game, mixed, player)


def _support_grid(game: CoalitionGame, mixed: MixedProfile):
    """The profiles of supported strategies, in lexicographic order.

    Returns their flat indices into the game's profile axes, their
    realized_index codes, their probabilities and the probabilities'
    denominator. Index and probability are built prefix by prefix, the
    probability as the product of the rows' numerators in player order,
    over the product of the rows' D: integers for exact profiles,
    Python floats over 1 for float ones.
    """
    flat, probs, denominator = [0], [1], 1
    for row, size, (d, numerators) in zip(mixed.support_items(), game.shape, mixed._units):
        flat = [at * size + k for at in flat for k, _ in row]
        probs = [p * v for p in probs for v in numerators]
        denominator *= d
    return flat, game.realized_index.take(flat).tolist(), probs, denominator


def expected_utility_by_structure(game: CoalitionGame, mixed: MixedProfile) -> dict:
    """Expected payoff contributions grouped by the realized partition.

    Values over all keys sum to the flat expected utility. Only
    partitions realized with positive probability appear, in family
    order. Summed row by row in grid order, so float sums keep one order
    whatever the shape. Exact sums run in integers, one Fraction per
    reported value.
    """
    _check_mixed(game, mixed)
    flat, codes, probs, denominator = _support_grid(game, mixed)
    rows = game.payoff_ints.reshape(-1, game.n_players).take(flat, axis=0)
    rows, scale = _payoff_operand(mixed, game, rows)
    sums = {}
    for code, p, row in zip(codes, probs, rows.tolist()):
        terms = [p * v for v in row]
        total = sums.get(code)
        sums[code] = terms if total is None else [t + v for t, v in zip(total, terms)]
    denominator *= scale
    return {
        game.family[code]: tuple(_value(mixed, v, denominator) for v in sums[code])
        for code in sorted(sums)
    }


def best_response_value(game: CoalitionGame, mixed: MixedProfile, player: int):
    """Highest expected payoff the player can reach by a pure deviation.

    Mixed deviations are convex combinations of pure ones, so this also
    bounds every mixed deviation.
    """
    player = _player(game, player)
    _check_mixed(game, mixed)
    values, denominator = _deviation_values(game, player, mixed)
    return _value(mixed, max(values), denominator)


def verify_epsilon_nash(
    game: CoalitionGame, mixed: MixedProfile, tolerance=None
) -> VerificationReport:
    """Check that no player can gain more than tolerance by deviating.

    Default tolerance is exact zero for rational profiles and 1e-9 for
    float ones. A tolerance given is read as SolverConfig reads one,
    except that 0 is allowed: a finite real number at least 0 (numpy's
    and Fraction too, never bool), else ValueError. Exact expected
    values, best deviations and regrets are each one Fraction from two
    integers.
    """
    _check_mixed(game, mixed)
    if tolerance is None:
        tolerance = _ZERO if mixed.is_exact else _FLOAT_TOLERANCE
    else:
        _check_tolerance(tolerance, zero_ok=True)
    expected, best, regrets = [], [], []
    for i in range(game.n_players):
        values, denominator = _deviation_values(game, i, mixed)
        total, top, d = _expected(mixed, i, values), max(values), mixed._units[i][0]
        expected.append(_value(mixed, total, d * denominator))
        best.append(_value(mixed, top, denominator))
        regrets.append(_value(mixed, top * d - total, d * denominator))
    max_regret = max(regrets)
    return VerificationReport(
        expected=tuple(expected),
        best_response=tuple(best),
        regrets=tuple(regrets),
        max_regret=max_regret,
        tolerance=tolerance,
        passed=bool(max_regret <= tolerance),
    )


# -- pure equilibria -----------------------------------------------------


def _unblocked(game: CoalitionGame, rows: np.ndarray) -> np.ndarray:
    """Which profiles no group blocks by a joint redesire, as a bool mask.

    rows is an (R, n) int array of profiles. A redesire keeps every
    member's action fixed and changes only the desired partition.
    Groups run from pairs up to the coalition cap, and each group takes
    one array pass over the rows not yet blocked whose members can all
    move: a member can move when another of their strategies keeps the
    action, and gain only while below their best payoff anywhere in the
    game. The pass gathers each member's payoffs over the members' free
    axes, one slice per row, and a row is blocked when some alternative
    keeping every action pays every member strictly more. Rows go in
    chunks whose slices fill at most _SCREEN_BYTES, and a chunk takes at
    least one row. Payoffs are compared in payoff_ints units.
    """
    open_ = np.ones(len(rows), dtype=bool)
    if game.max_coalition < 2 or not len(rows):
        return open_
    tensor = game.payoff_ints
    shape = game.shape
    here = tensor[tuple(rows.T)]
    movable = here < np.array(game.payoff_peaks, dtype=tensor.dtype)
    # No group forms without two members below their peak.
    if not (movable.sum(axis=1) > 1).any():
        return open_
    # keeps[i][k, j]: player i's strategy j differs from k and keeps its action.
    keeps = []
    for i, strategies in enumerate(game.strategy_sets):
        actions = np.array([s.action for s in strategies])
        same = actions[:, None] == actions
        np.fill_diagonal(same, False)
        keeps.append(same)
        movable[:, i] &= same.any(axis=1)[rows[:, i]]
    for size in range(2, game.max_coalition + 1):
        for group in itertools.combinations(range(len(shape)), size):
            todo = np.flatnonzero(open_ & movable[:, group].all(axis=1))
            if not todo.size:
                continue
            free = [shape[i] for i in group]
            step = max(1, _SCREEN_BYTES // (prod(free) * tensor.itemsize))
            for start in range(0, todo.size, step):
                chunk = todo[start : start + step]
                at, pay = rows[chunk], here[chunk]
                # Indices broadcast to (chunk, *free): the chunk's rows on the
                # other players' axes, each member's whole axis on their own.
                lead = (len(chunk),) + (1,) * size
                index = [at[:, i].reshape(lead) for i in range(len(shape))]
                gains = True
                for t, i in enumerate(group):
                    axis = [1] * (size + 1)
                    axis[t + 1] = free[t]
                    index[i] = np.arange(free[t]).reshape(axis)
                    axis[0] = len(chunk)
                    gains = gains & keeps[i][at[:, i]].reshape(axis)
                for i in group:
                    gains = gains & (tensor[(*index, i)] > pay[:, i].reshape(lead))
                open_[chunk[gains.reshape(len(chunk), -1).any(axis=1)]] = False
    return open_


def _pure_profiles(game: CoalitionGame, rows: np.ndarray | None = None) -> np.ndarray:
    """The profiles that pass the pure lane's test, as an (E, n) int array.

    A profile passes when every player is at a best reply and no group
    is blocked by a redesire. Given rows, an (R, n) int array, the rows
    that pass keep their order; without, the whole profile space is
    screened in lexicographic order, as np.argwhere lists it.
    """
    if rows is None:
        rows = np.argwhere((game.best_reply_counts > 0).all(axis=-1))
    elif not len(rows):  # best_reply_counts may not be built yet
        return rows
    else:
        rows = rows[(game.best_reply_counts[tuple(rows.T)] > 0).all(axis=1)]
    return rows[_unblocked(game, rows)]


def _degenerate(game: CoalitionGame, rows: np.ndarray) -> list[bool]:
    """Whether some player has another best reply, per profile of an (E, n) int array."""
    return (game.best_reply_counts[tuple(rows.T)] > 1).any(axis=-1).tolist()


def _point_masses(game: CoalitionGame, rows: np.ndarray):
    """The point-mass profile of each profile of an (E, n) int array, in order.

    Each point-mass row a profile uses is built once per (player,
    strategy) with its support and units (1, (1,)).
    """
    weights, supports = [], []
    for size, column in zip(game.shape, rows.T.tolist()):
        used = set(column)
        row = {k: tuple([_ONE if j == k else _ZERO for j in range(size)]) for k in used}
        support = {k: ((k, _ONE),) for k in used}
        weights.append(map(row.__getitem__, column))
        supports.append(map(support.__getitem__, column))
    units = itertools.repeat(((1, (1,)),) * game.n_players)
    return map(MixedProfile._built, zip(*weights), zip(*supports), units)


def _pure_results(game: CoalitionGame, rows: np.ndarray, method=PURE, iterations=0):
    """The point-mass result of each profile of an (E, n) int array, in order.

    Each payoff integer becomes its Fraction once per call.
    """
    payoffs = game.payoff_ints[tuple(rows.T)].tolist()
    scale = game.payoff_scale
    value = {v: Fraction(v, scale) for v in set(itertools.chain.from_iterable(payoffs))}
    return tuple(
        EquilibriumResult(
            profile=profile,
            expected_payoffs=tuple(map(value.__getitem__, pay)),
            max_regret=_ZERO,
            method=method,
            is_equilibrium=True,
            degenerate=degenerate,
            iterations=iterations,
        )
        for profile, pay, degenerate in zip(
            _point_masses(game, rows), payoffs, _degenerate(game, rows)
        )
    )


def pure_nash_enumerate(game: CoalitionGame) -> tuple[EquilibriumResult, ...]:
    """All pure equilibria of the group-redesire refinement, in lexicographic profile order.

    A profile qualifies when no player gains by a unilateral switch and
    no group of players up to the coalition cap gains strictly by
    switching desired partitions in concert while keeping actions fixed.
    This refines pure Nash: in lunch, the profile where all four
    colleagues desire {0,1}{2,3} is Nash, since the other pair forms
    whatever one player desires, but players 0 and 2 both gain (3 to
    10) by desiring {0,2}{1}{3} together, so it is screened out.

    The unilateral test reads best_reply_counts over the whole profile
    space. The group screen then takes one array pass per group over the
    survivors not yet blocked: it gathers the members' payoffs over their
    own axes, masks the alternatives that change an action, and skips a
    survivor where a member is already at their payoff peak. Survivors
    go in chunks whose gathered payoffs fit a byte budget, at least one
    per chunk. The results are built from the (E, n) array of the
    profiles that pass.
    """
    return _pure_results(game, _pure_profiles(game))


def is_pure_equilibrium(game: CoalitionGame, profile: Profile) -> bool:
    """Single profile check, same semantics as pure_nash_enumerate."""
    return len(_pure_profiles(game, np.array([game._check_profile(profile)]))) == 1


def first_pure_equilibrium(game: CoalitionGame) -> EquilibriumResult | None:
    """First pure equilibrium in lexicographic order: the lane's first profile."""
    first = _pure_results(game, _pure_profiles(game)[:1])
    return first[0] if first else None


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


def _against_supports(pay, supports):
    """What a player's integer rows say about each opponent support T.

    pay[own][other] is oriented as in _indifference_weights. For each T
    in supports, in order: the own strategies some other own strategy
    beats strictly on every column of T, the best value of the uniform
    mix on T (times len(T)), and the own strategies that reach it.
    """
    # beats[k][r]: the columns where own strategy r pays strictly more than k.
    beats = [
        [{j for j, (a, b) in enumerate(zip(row, rival)) if b > a} for rival in pay] for row in pay
    ]
    out = []
    for t in supports:
        dominated = {k for k, wins in enumerate(beats) if any(w.issuperset(t) for w in wins)}
        values = [sum(row[j] for j in t) for row in pay]
        best = max(values)
        out.append((dominated, best, {k for k, v in enumerate(values) if v == best}))
    return out


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
    come sorted by support.

    Before the pair loop, each player's rows are read once per opponent
    support T: which own strategies another own strategy beats strictly
    on every column of T, and the values of the uniform mix on T with
    their best-reply set. A pair is skipped when either support holds a
    strategy dominated given the other support (conditional dominance,
    Porter, Nudelman & Shoham 2008). That drops no result: solved and
    uniform weights are both strictly positive on T, so the dominating
    strategy's value is strictly higher, and the candidate would fail
    the check whatever its weights. Ties prune nothing, since degenerate
    games put tied strategies into equilibria. A uniform candidate
    passes when each player's support lies inside their best-reply set
    against the other support; a solved candidate is checked on values
    computed for its pair. As the prune only skips candidates that fail,
    the completeness caveat is unchanged.

    The lane is not complete on degenerate games: it misses every
    equilibrium that is neither a square system's solution nor uniform
    on its supports, and can miss whole components.
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
    # facing[i][t]: player i against the opponent's t-th support.
    facing = [_against_supports(pay[i], supports[1 - i]) for i in range(2)]

    def result(pair, weights, best, degenerate):
        rows = [[_ZERO] * size for size in sizes]
        supports, units = [], []
        for row, support, (numerators, denominator) in zip(rows, pair, weights):
            # In lowest terms, denominator is the least common one, as validation finds it.
            common = gcd(denominator, *numerators)
            numerators = tuple(w // common for w in numerators)
            denominator //= common
            items = tuple((k, Fraction(w, denominator)) for k, w in zip(support, numerators))
            for k, w in items:
                row[k] = w
            supports.append(items)
            units.append((denominator, numerators))
        profile = MixedProfile._built(tuple(map(tuple, rows)), tuple(supports), tuple(units))
        expected = tuple(Fraction(b, d * scale) for b, (_, d) in zip(best, weights[::-1]))
        return EquilibriumResult(profile, expected, _ZERO, SUPPORT, True, degenerate)

    found = []
    for s0, (dominated1, best1, replies1) in zip(supports[0], facing[1]):
        for s1, (dominated0, best0, replies0) in zip(supports[1], facing[0]):
            if not (dominated0.isdisjoint(s0) and dominated1.isdisjoint(s1)):
                continue
            pair = (s0, s1)
            if len(s0) == len(s1):
                q0 = _indifference_weights(pay[1], s1, s0)
                q1 = None if q0 is None else _indifference_weights(pay[0], s0, s1)
                if q1 is not None:
                    # Each player's value of every own strategy, times the
                    # opponent's denominator.
                    best, ties = [], []
                    for own, other, (q, _), rows in zip(pair, (s1, s0), (q1, q0), pay):
                        v = [sum(row[j] * w for j, w in zip(other, q)) for row in rows]
                        best.append(max(v))
                        if any(v[k] != best[-1] for k in own):
                            break
                        ties.append(v.count(best[-1]) > len(own))
                    else:
                        found.append(result(pair, (q0, q1), best, any(ties)))
                    continue
            if replies0.issuperset(s0) and replies1.issuperset(s1):
                degenerate = len(replies0) > len(s0) or len(replies1) > len(s1)
                uniform = [([1] * len(s), len(s)) for s in pair]
                found.append(result(pair, uniform, (best0, best1), degenerate))
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
    """Fictitious play on the average strategy profile.

    Step t moves 1 / (t + 2) of each player's weight onto their best
    reply, so the distributions stay the running average of the replies.
    Stops when the regret of the running average drops under tolerance,
    or earlier when best responses stay put long enough to suggest a
    pure profile, which is then verified exactly and snapped to. Runs
    that exhaust max_iterations come back flagged is_equilibrium False
    with the residual regret, which refutes convergence rather than
    reporting nothing.

    The payoffs become floats once per run, by one float division when
    payoff_ints is int64 with every entry and payoff_scale within 2**53
    in size, and by Python int division otherwise; either way each is
    the float nearest its exact value. Each player's contraction
    operands are built once, as a subscript string and arrays, so
    einsum's dispatch reads no list. Every player's weights are a view
    into one flat array. An iteration is then n einsum calls, each
    player's best reply and regret taken in one pass with the same float
    operations the reference loop makes, one multiply of the flat array
    and one add per player, in a fixed order that keeps the float
    trajectory the same bit for bit.
    """
    config = config or SolverConfig()
    tensors = np.ascontiguousarray(np.moveaxis(_float_payoffs(game, game.payoff_ints), -1, 0))
    starts = _start_distributions(game, config, start)
    flat = np.concatenate(starts)
    dists = np.split(flat, np.cumsum([len(d) for d in starts])[:-1])
    # Built once: the distributions below change in place.
    operands = [_einsum_operands(tensors[i], dists, i) for i in range(game.n_players)]
    last_br: Profile | None = None
    stable = 0
    iterations = 0
    for t in range(config.max_iterations):
        iterations = t + 1
        replies, regrets = [], []
        for args, d in zip(operands, dists):
            v = np.einsum(*args)
            b = int(v.argmax())
            replies.append(b)
            regrets.append(v.item(b) - float(v.dot(d)))
        br = tuple(replies)
        if max(regrets) <= config.tolerance:
            break
        if br == last_br:
            stable += 1
        else:
            last_br = br
            stable = 0
        if stable >= _LOCK_WINDOW:
            stable = 0
            if (game.best_reply_counts[br] > 0).all():
                return _pure_results(game, np.array([br]), ITERATIVE, iterations)[0]
        alpha = 1.0 / (t + 2)
        flat *= 1.0 - alpha
        for d, b in zip(dists, br):
            d[b] += alpha
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


# -- one entry point -----------------------------------------------------


@dataclass(frozen=True, eq=False)
class Solution:
    """What solve found: the answering lane's result name, its equilibria and flags.

    method is PURE, SUPPORT or ITERATIVE. profiles is the pure lane's
    read-only (E, n) int array of equilibrium profiles, in lexicographic
    order, and None for the other lanes. results holds one
    EquilibriumResult per equilibrium; a pure solution builds them from
    profiles on the first read of results, so a caller that reads only
    the array builds none.
    truncated is the support lane's flag, and converged is False only
    for a fictitious-play run that ended unverified.
    """

    method: str
    profiles: np.ndarray | None
    truncated: bool

    def __init__(self, method: str, results, truncated: bool = False) -> None:
        self.__dict__.update(
            method=method, profiles=None, results=tuple(results), truncated=truncated
        )

    @classmethod
    def _pure(cls, game: CoalitionGame, profiles: np.ndarray) -> Solution:
        """The pure lane's solution over an (E, n) profile array, made read-only; results built on first read."""
        profiles.flags.writeable = False
        solution = cls.__new__(cls)
        solution.__dict__.update(method=PURE, profiles=profiles, truncated=False, _game=game)
        return solution

    @cached_property
    def results(self) -> tuple[EquilibriumResult, ...]:
        return _pure_results(self._game, self.profiles)

    @property
    def converged(self) -> bool:
        return self.method != ITERATIVE or self.results[0].is_equilibrium


def solve(game: CoalitionGame, method: str = "pure", config: SolverConfig | None = None) -> Solution:
    """Equilibria of the game by one lane, or the first one the lanes find.

    method "pure" runs pure_nash_enumerate's screen, "support"
    mixed_nash_2p_support_enum and "iterative" mixed_nash_iterative.
    "first" answers with one equilibrium: the first pure one, else for
    two players the first the support lane finds, else the fictitious
    play run, verified or not.
    """
    if method == "pure":
        return Solution._pure(game, _pure_profiles(game))
    if method == "support":
        found = mixed_nash_2p_support_enum(game, config)
        return Solution(SUPPORT, found.equilibria, found.truncated)
    if method == "iterative":
        return Solution(ITERATIVE, (mixed_nash_iterative(game, config),))
    if method != "first":
        raise ValueError(f"unknown method {method!r}; methods are pure, support, iterative and first")
    first = _pure_profiles(game)[:1]
    if len(first):
        return Solution._pure(game, first)
    if game.n_players == 2:
        found = mixed_nash_2p_support_enum(game, config)
        if found.equilibria:
            return Solution(SUPPORT, found.equilibria[:1], found.truncated)
    return Solution(ITERATIVE, (mixed_nash_iterative(game, config),))
