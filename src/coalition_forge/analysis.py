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

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .games import CoalitionGame, Profile, ValidationError, payoff_isomorphic
from .partitions import Coalition, CoalitionStructure
from .solver import (
    EquilibriumResult,
    MixedProfile,
    SolverConfig,
    _check_mixed,
    _structure_groups,
    is_pure_equilibrium,
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

    Aggregates the probability of every pure profile with positive
    weight onto its realized partition. A point mass reads its one
    partition from game.realized_partition instead of the support grid.
    """
    _require_equilibrium(result)
    mixed = result.profile
    _check_mixed(game, mixed)
    if mixed.is_pure:
        # One profile carries the whole mass, the product of the players'
        # weights taken in the support grid's arithmetic: exact weights as
        # they are, float weights as Python floats.
        items = mixed.support_items()
        weights = [row[0][1] for row in items]
        mass = math.prod(weights) if mixed.is_exact else math.prod(map(float, weights))
        masses = {game.realized_partition(tuple(row[0][0] for row in items)): mass}
    else:
        masses = {s: sum(prob.tolist()) for s, prob, _ in _structure_groups(game, mixed)}
    positive = tuple(s for s, p in masses.items() if p > 0)
    return EquilibriumPartitionSet(partitions=positive, probabilities=masses)


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
    the action label, and everything new in the target gets zero weight.
    """
    _check_mixed(source, mixed)
    if source.n_players != target.n_players:
        raise ValueError("games cover different player counts")
    zero = Fraction(0) if mixed.is_exact else 0.0
    rows = []
    for i in range(source.n_players):
        by_key = {
            source.strategy_key(i, k): w
            for k, w in enumerate(mixed.weights[i])
            if w != 0
        }
        row = tuple(
            by_key.get(target.strategy_key(i, k), zero)
            for k in range(len(target.strategy_sets[i]))
        )
        placed = sum(1 for w in row if w != 0)
        if placed != len(by_key):
            raise ValueError(
                f"player {i} has support strategies with no counterpart in the target game"
            )
        rows.append(row)
    return MixedProfile(tuple(rows))


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
    for i in range(a.n_players):
        keys_a = [game_a.strategy_key(i, k) for k in range(len(game_a.strategy_sets[i]))]
        keys_b = [game_b.strategy_key(i, k) for k in range(len(game_b.strategy_sets[i]))]
        if not (set(keys_a) <= set(keys_b) or set(keys_b) <= set(keys_a)):
            raise ValueError(
                f"player {i} strategy universes do not embed in either direction"
            )
        sup_a = {keys_a[k] for k in a.support(i)}
        sup_b = {keys_b[k] for k in b.support(i)}
        if sup_a != sup_b:
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
    is > floor(q).
    """
    pay = game.payoff_ints
    scaled = [Fraction(b) * game.payoff_scale for b in baseline]
    at_least = np.array([math.ceil(q) for q in scaled], dtype=object)
    above = np.array([math.floor(q) for q in scaled], dtype=object)
    dominating = (pay >= at_least).all(axis=-1) & (pay > above).any(axis=-1)
    for profile in map(tuple, np.argwhere(dominating).tolist()):
        if is_pure_equilibrium(game, profile):
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
    on new strategies and must stay a verified equilibrium with an
    unchanged support; the scan stops at the first failure. The K0 level
    passes by the base verification, so only larger caps are lifted and
    verified. Every level visited is also scanned for Pareto-dominating
    pure equilibria, which are reported as diagnostics without affecting
    the verdict.
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
    base = next((g for g in games if g.max_coalition == K0), None)
    if base is None:
        raise ValueError(f"no family member has coalition cap {K0}")
    _require_equilibrium(result)
    tolerance = None if result.profile.is_exact else config.tolerance
    base_report = verify_epsilon_nash(base, result.profile, tolerance)
    if not base_report.passed:
        raise ValueError(
            f"profile fails verification in the cap {K0} game "
            f"(max regret {base_report.max_regret})"
        )
    checks = [StabilityCheck(K0, True, True)]
    diagnostics = list(_pareto_dominating_pures(base, base_report.expected))
    K_star = K0
    for game in games:
        if game.max_coalition <= K0:
            continue
        lifted = lift_profile(base, result.profile, game)
        payoff_ok = verify_epsilon_nash(game, lifted, tolerance).passed
        domain_ok = compare_domains(result.profile, lifted, base, game)
        check = StabilityCheck(game.max_coalition, payoff_ok, domain_ok)
        checks.append(check)
        diagnostics.extend(_pareto_dominating_pures(game, base_report.expected))
        if not check.passed:
            break
        K_star = game.max_coalition
    return StabilityReport(
        K0=K0,
        K_star=K_star,
        per_K_checks=tuple(checks),
        diagnostics=tuple(diagnostics),
    )
