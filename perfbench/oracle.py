"""Brute-force checks that do not go through the library's solvers.

Each check walks a payoff table directly (a dict from profile to payoff
tuple) and returns a list of failure messages, empty when the check
passes. Exact weights stay exact; float weights are compared with a
relative tolerance.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def regrets(table, shape, weights) -> list:
    """Per-player regret of a mixed profile: best pure deviation minus value."""
    n = len(shape)
    supports = [[(k, w) for k, w in enumerate(row) if w != 0] for row in weights]
    out = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        values = []
        for s in range(shape[i]):
            total = 0
            for combo in itertools.product(*(supports[j] for j in others)):
                prob = 1
                profile = [s] * n
                for j, (k, w) in zip(others, combo):
                    profile[j] = k
                    prob *= w
                total += prob * table[tuple(profile)][i]
            values.append(total)
        value = sum(weights[i][s] * values[s] for s in range(shape[i]))
        out.append(max(values) - value)
    return out


def zero_regret(table, shape, weights, what: str) -> list[str]:
    """An exact profile must leave every player exactly zero regret."""
    worst = max(regrets(table, shape, weights))
    return [] if worst == 0 else [f"{what}: brute-force regret {worst}, expected 0"]


def unilateral_ok(table, shape, profile, what: str) -> list[str]:
    """No player gains by switching alone away from a pure profile."""
    pay = table[profile]
    for i, size in enumerate(shape):
        for k in range(size):
            moved = table[profile[:i] + (k,) + profile[i + 1 :]][i]
            if moved > pay[i]:
                return [f"{what}: player {i} gains by switching to {k} at {profile}"]
    return []


def pure_profile(weights) -> tuple[int, ...] | None:
    """The pure profile a weight matrix puts all mass on, if any."""
    picks = []
    for row in weights:
        support = [k for k, w in enumerate(row) if w != 0]
        if len(support) != 1 or row[support[0]] != 1:
            return None
        picks.append(support[0])
    return tuple(picks)


def float_regret_agrees(table, shape, weights, reported, what: str) -> list[str]:
    """A float profile's reported max regret matches a brute-force recount."""
    own = max(float(r) for r in regrets(table, shape, [[float(w) for w in row] for row in weights]))
    scale = max(abs(float(v)) for pay in table.values() for v in pay) or 1.0
    if abs(own - float(reported)) > 1e-9 * scale:
        return [f"{what}: reported max regret {reported!r}, brute force gives {own!r}"]
    return []


def exact(weights) -> list[list[Fraction]]:
    return [[Fraction(w) for w in row] for row in weights]
