"""Post-equilibrium analysis.

Given a verified equilibrium this module answers the downstream
questions: which partitions the equilibrium realizes, whether a given
coalition cooperates completely, whether the induced partition is
random, and up to which coalition cap the equilibrium survives when the
cap grows. Stability reports carry Pareto-dominating pure equilibria of
the enlarged games as diagnostics, since a formally surviving
equilibrium can still be displaced by a new focal one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .games import CoalitionGame, Profile, ValidationError, _strategy_map, payoff_isomorphic
from .partitions import Coalition, CoalitionStructure, _is_integer
from .solver import (
    EquilibriumResult,
    MixedProfile,
    SolverConfig,
    _check_mixed,
    _pure_profiles,
    _support_grid,
    _value,
    verify_epsilon_nash,
)

_FLOAT_SUM_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class EquilibriumPartitionSet:
    """Distribution over the partitions an equilibrium realizes.

    partitions lists exactly the structures with positive probability,
    once each, in family enumeration order; probabilities maps each to
    its mass.
    """

    partitions: tuple[CoalitionStructure, ...]
    probabilities: dict

    def __post_init__(self):
        listed = set(self.partitions)
        if len(listed) != len(self.partitions):
            raise ValueError("a partition is listed twice")
        if not listed <= self.probabilities.keys():
            raise ValueError("every listed partition needs a probability")
        if any(self.probabilities[p] <= 0 for p in self.partitions):
            raise ValueError("every listed partition needs positive probability")
        if any(v > 0 and p not in listed for p, v in self.probabilities.items()):
            raise ValueError("every partition with positive probability must be listed")
        total = sum(self.probabilities.values())
        exact = all(isinstance(v, (Fraction, int)) for v in self.probabilities.values())
        if exact:
            if total != 1:
                raise ValueError(f"probabilities sum to {total}, expected 1")
        elif not abs(total - 1) <= _FLOAT_SUM_SLACK:  # a NaN sum fails too
            raise ValueError(f"probabilities sum to {total!r}, expected 1")

    @classmethod
    def _built(cls, partitions: tuple, probabilities: dict) -> EquilibriumPartitionSet:
        """A lottery from masses the package computed and knows to be valid; nothing is checked."""
        lottery = object.__new__(cls)
        lottery.__dict__.update(partitions=partitions, probabilities=probabilities)
        return lottery

    def probability(self, structure: CoalitionStructure):
        return self.probabilities.get(structure, 0)

    def __len__(self) -> int:
        return len(self.partitions)

    def __iter__(self):
        return iter(self.partitions)


def _require_equilibrium(result: EquilibriumResult) -> None:
    if not result.is_equilibrium:
        raise ValueError("result is not a verified equilibrium")


def equilibrium_partitions(
    game: CoalitionGame, result: EquilibriumResult
) -> EquilibriumPartitionSet:
    """Push the equilibrium profile through the mechanism.

    Adds the probability of every pure profile with positive weight
    onto its realized partition, in support grid order: exact masses in
    integers, one Fraction per partition.
    """
    _require_equilibrium(result)
    mixed = result.profile
    _check_mixed(game, mixed)
    _, codes, probs, denominator = _support_grid(game, mixed)
    sums = {}
    for code, p in zip(codes, probs):
        sums[code] = sums.get(code, 0) + p
    masses = {game.family[code]: _value(mixed, sums[code], denominator) for code in sorted(sums)}
    positive = tuple(s for s, p in masses.items() if p > 0)
    return EquilibriumPartitionSet._built(positive, masses)


@dataclass(frozen=True)
class CooperationReport:
    coalition: Coalition
    ex_ante: bool
    ex_post: bool
    complete: bool

    def __post_init__(self):
        if self.complete != (self.ex_ante and self.ex_post):
            raise ValueError("complete must equal ex_ante and ex_post")


def is_complete_cooperation(
    game: CoalitionGame, result: EquilibriumResult, coalition: Coalition
) -> CooperationReport:
    """Do the members commit to the coalition before and after the draw.

    Ex ante: every strategy in each member's support desires a partition
    carrying the coalition as a block. Ex post: every partition the
    equilibrium realizes carries it.
    """
    _require_equilibrium(result)
    _check_mixed(game, result.profile)
    if coalition.members[-1] >= game.n_players:
        raise ValueError(f"coalition {coalition} out of range for n={game.n_players}")
    ex_ante = all(
        game.desired_structure(member, k).contains_block(coalition)
        for member in coalition
        for k in result.profile.support(member)
    )
    partition_set = equilibrium_partitions(game, result)
    ex_post = all(p.contains_block(coalition) for p in partition_set)
    return CooperationReport(
        coalition=coalition,
        ex_ante=ex_ante,
        ex_post=ex_post,
        complete=ex_ante and ex_post,
    )


def classify_stochastic(game: CoalitionGame, result: EquilibriumResult) -> bool:
    """True when the equilibrium leaves the realized partition random."""
    return len(equilibrium_partitions(game, result)) >= 2


def lift_profile(
    source: CoalitionGame, mixed: MixedProfile, target: CoalitionGame
) -> MixedProfile:
    """Embed a profile into a game with more strategies.

    Strategies are matched by what they mean, the desired partition plus
    the action label: each support weight goes to its index in the
    strategy map, and everything new in the target gets zero weight.
    The lift keeps the source's weights and units, so its rows are
    handed over unchecked, with each row's support items and numerators
    put in target index order.
    """
    _check_mixed(source, mixed)
    if source.n_players != target.n_players:
        raise ValueError("games cover different player counts")
    zero = Fraction(0) if mixed.is_exact else 0.0
    rows, supports, units = [], [], []
    for i, (places, items, (denominator, numerators)) in enumerate(
        zip(_strategy_map(source, target), mixed.support_items(), mixed._units)
    ):
        if any(places[k] < 0 for k, _ in items):
            raise ValueError(f"player {i} has support strategies with no counterpart in the target game")
        row = [zero] * len(target.strategy_sets[i])
        for k, w in items:
            row[places[k]] = w
        rows.append(tuple(row))
        order = sorted(range(len(items)), key=lambda j: places[items[j][0]])
        supports.append(tuple((places[items[j][0]], items[j][1]) for j in order))
        units.append((denominator, tuple(numerators[j] for j in order)))
    return MixedProfile._built(tuple(rows), tuple(supports), tuple(units), mixed.is_exact)


def compare_domains(
    a: MixedProfile,
    b: MixedProfile,
    game_a: CoalitionGame | None = None,
    game_b: CoalitionGame | None = None,
) -> bool:
    """Whether two profiles put weight on the same strategies.

    Without games the comparison is positional and a shorter weight
    vector counts as zero padded. With both games given, supports are
    matched by strategy meaning, which also handles embeddings that
    reorder indices; the smaller strategy universe must embed in the
    larger one or the profiles are incomparable.
    """
    if a.n_players != b.n_players:
        raise ValueError("profiles cover different player counts")
    if (game_a is None) != (game_b is None):
        raise ValueError("pass both games or neither")
    if game_a is None:
        return all(
            a.support(i) == b.support(i) for i in range(a.n_players)
        )
    _check_mixed(game_a, a)
    _check_mixed(game_b, b)
    for i, places in enumerate(_strategy_map(game_a, game_b)):
        # The map is one to one: neither universe embeds when it pairs fewer than both.
        if sum(k >= 0 for k in places) < min(len(places), len(game_b.strategy_sets[i])):
            raise ValueError(f"player {i} strategy universes do not embed in either direction")
        # A support strategy of a without a counterpart maps to -1, in no support of b.
        if {places[k] for k in a.support(i)} != set(b.support(i)):
            return False
    return True


@dataclass(frozen=True)
class StabilityCheck:
    K: int
    payoff_ok: bool
    domain_ok: bool

    @property
    def passed(self) -> bool:
        return self.payoff_ok and self.domain_ok


@dataclass(frozen=True)
class StabilityDiagnostic:
    """A pure equilibrium Pareto-dominating the profile under test."""

    K: int
    profile: Profile
    payoffs: tuple


@dataclass(frozen=True)
class StabilityReport:
    K0: int
    K_star: int
    per_K_checks: tuple[StabilityCheck, ...]
    diagnostics: tuple[StabilityDiagnostic, ...]


def _pareto_dominating_pures(
    game: CoalitionGame, baseline
) -> Iterable[StabilityDiagnostic]:
    """Pure equilibria paying every player at least the baseline and someone more.

    The comparison runs on the game's integer payoffs against the
    baseline scaled exactly (a float baseline exactly as its binary
    value): an integer is >= q when it is >= ceil(q), and > q when it
    is > floor(q). Both come from each value's integer ratio n / d as
    integer divisions of n times payoff_scale by d.
    """
    pay = game.payoff_ints
    scaled = [(n * game.payoff_scale, d) for n, d in (b.as_integer_ratio() for b in baseline)]
    at_least = [-(-n // d) for n, d in scaled]
    above = [n // d for n, d in scaled]
    # An int64 tensor compares in int64 when every threshold fits. Else
    # object arrays keep the thresholds Python ints: numpy would infer
    # uint64 for [2**63] and float64 for [2**63, -1], and the comparison
    # would stop being exact.
    fits = pay.dtype == np.int64 and all(-(2**63) <= t < 2**63 for t in at_least + above)
    dtype = np.int64 if fits else object
    at_least, above = np.array(at_least, dtype=dtype), np.array(above, dtype=dtype)
    dominating = (pay >= at_least).all(axis=-1) & (pay > above).any(axis=-1)
    for profile in map(tuple, _pure_profiles(game, np.argwhere(dominating)).tolist()):
        yield StabilityDiagnostic(game.max_coalition, profile, game.payoff(profile))


def stability_K_star(
    family,
    K0: int,
    result: EquilibriumResult,
    config: SolverConfig | None = None,
) -> StabilityReport:
    """Largest coalition cap the equilibrium survives unchanged.

    The family is a nested sequence of games differing only in the cap.
    For each cap from K0 upward the profile is embedded with zero weight
    on new strategies, which keeps its support, and must stay a verified
    equilibrium; the scan stops at the first failure. The K0 level's
    check is the base verification, which raises when it fails, so only
    larger caps are lifted. Every level visited is also scanned for
    Pareto-dominating pure equilibria, which are reported as diagnostics
    without affecting the verdict.
    """
    config = config or SolverConfig()
    games = sorted(family, key=lambda g: g.max_coalition)
    if not games:
        raise ValueError("family is empty")
    caps = [g.max_coalition for g in games]
    if len(set(caps)) != len(caps):
        raise ValueError("family repeats a coalition cap")
    if any(g.n_players != games[0].n_players for g in games):
        raise ValueError("family mixes player counts")
    for small, big in zip(games, games[1:]):
        try:
            nested = payoff_isomorphic(big.restrict(small.max_coalition), small)
        except ValidationError:
            # The larger game has no valid restriction to the smaller cap,
            # such as when a player keeps no strategy under it.
            nested = False
        if not nested:
            raise ValueError(
                f"family is not nested between caps {small.max_coalition} "
                f"and {big.max_coalition}"
            )
    if not _is_integer(K0):
        raise ValueError(f"K0 must be an integer, got {K0!r}")
    K0 = int(K0)
    if K0 not in caps:
        raise ValueError(f"no family member has coalition cap {K0}")
    _require_equilibrium(result)
    tolerance = None if result.profile.is_exact else config.tolerance
    base = games[caps.index(K0)]
    checks, diagnostics = [], []
    for game in games[games.index(base):]:
        lifted = result.profile if game is base else lift_profile(base, result.profile, game)
        report = verify_epsilon_nash(game, lifted, tolerance)
        if game is base:
            if not report.passed:
                raise ValueError(
                    f"profile fails verification in the cap {K0} game "
                    f"(max regret {report.max_regret})"
                )
            baseline = report.expected
        # The lift places exactly the base support or raises, and the family
        # is nested, so the support is unchanged by construction.
        checks.append(StabilityCheck(game.max_coalition, report.passed, True))
        diagnostics.extend(_pareto_dominating_pures(game, baseline))
        if not report.passed:
            break
        K_star = game.max_coalition
    return StabilityReport(
        K0=K0,
        K_star=K_star,
        per_K_checks=tuple(checks),
        diagnostics=tuple(diagnostics),
    )
