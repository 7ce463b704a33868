"""Spans around the library's public calls, recorded from outside.

`Tracer.install` replaces chosen public functions and methods of the
`coalition_forge` modules with wrappers that record one span per call:
name, layer, parent span, op id, start and end. Module-level functions
are replaced wherever a `coalition_forge` module holds a reference, so
calls made through `from .x import f` bindings (the CLI's, for one) are
seen too. Hot per-profile accessors such as `CoalitionGame.payoff` are
deliberately left alone: wrapping them would cost more than the work.

Spans stay in memory; `layer_metrics` turns them into the per-layer
numbers and `Tracer.dump` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = ("partitions", "catalog", "games", "gamefile", "solver", "analysis", "cli")


def _pairs(args, kwargs, result) -> dict:
    """Support pairs the two-player lane tries, from the sizes and the cap."""
    game = args[0]
    config = args[1] if len(args) > 1 else kwargs.get("config")
    n1, n2 = (len(s) for s in game.strategy_sets)
    cap = getattr(config, "max_support", None) or min(6, n1, n2)
    side = [sum(math.comb(n, s) for s in range(1, min(cap, n) + 1)) for n in (n1, n2)]
    return {
        "solver.support.pairs": side[0] * side[1],
        "solver.support.equilibria": len(result.equilibria),
        "solver.support.degenerate": sum(r.degenerate for r in result.equilibria),
    }


def _load_bytes(args, kwargs, result) -> dict:
    return {"gamefile.load_bytes": os.path.getsize(args[0])}


@dataclass(frozen=True)
class Target:
    """One public attribute to wrap: `owner` is a module or class path."""

    layer: str
    owner: str
    attr: str
    hook: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.owner.rsplit('.', 1)[-1]}.{self.attr}"


def _t(layer, owner, *attrs, hook=None):
    return [Target(layer, owner, a, hook) for a in attrs]


P, C, G, F, S, A = (
    "coalition_forge.partitions",
    "coalition_forge.catalog",
    "coalition_forge.games",
    "coalition_forge.gamefile",
    "coalition_forge.solver",
    "coalition_forge.analysis",
)

TARGETS = [
    *_t("partitions", P, "enumerate_partitions",
        hook=lambda a, k, r: {"partitions.structures": len(r)}),
    *_t("partitions", P, "restricted_bell", "is_nested"),
    *_t("catalog", C, "build_game"),
    *_t("catalog", C + ".CatalogEntry", "build"),
    *_t("games", G + ".CoalitionGame", "validate_domains",
        hook=lambda a, k, r: {"games.profiles": a[0].n_profiles}),
    *_t("games", G + ".CoalitionGame", "restrict"),
    *_t("games", G, "restrict_game", "payoff_isomorphic"),
    *_t("gamefile", F, "load_game", hook=_load_bytes),
    *_t("gamefile", F, "game_from_dict", "save_game", "game_to_dict", "dumps",
        "load_profile", "profile_from_dict", "profile_to_dict"),
    *_t("solver", S, "pure_nash_enumerate",
        hook=lambda a, k, r: {"solver.pure.profiles": a[0].n_profiles,
                              "solver.pure.equilibria": len(r)}),
    *_t("solver", S, "first_pure_equilibrium", "is_pure_equilibrium"),
    *_t("solver", S, "mixed_nash_2p_support_enum", hook=_pairs),
    *_t("solver", S, "verify_epsilon_nash",
        hook=lambda a, k, r: {"solver.verify.calls": 1}),
    *_t("solver", S, "mixed_nash_iterative",
        hook=lambda a, k, r: {"solver.fp.iterations": r.iterations,
                              "solver.fp.converged": int(r.is_equilibrium)}),
    *_t("analysis", A, "stability_K_star",
        hook=lambda a, k, r: {"analysis.stability.diagnostics": len(r.diagnostics)}),
    *_t("analysis", A, "equilibrium_partitions", "is_complete_cooperation",
        "classify_stochastic", "lift_profile", "compare_domains"),
    *_t("cli", "coalition_forge.cli", "main"),
]


def _resolve(owner: str):
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        name = ".".join(parts[:cut])
        if name in sys.modules:
            obj = sys.modules[name]
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
            return obj
    raise LookupError(f"{owner} is not imported")


class Tracer:
    """Records spans for the wrapped calls while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = ""
        self.counts: dict[str, float] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, amount) -> None:
        self.counts[key] += amount

    def install(self) -> None:
        import coalition_forge.cli  # noqa: F401  (loads every module)

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "coalition_forge"]
        for target in TARGETS:
            owner = _resolve(target.owner)
            original = owner.__dict__[target.attr]
            wrapped = self._wrap(original, target)
            if isinstance(owner, type):
                self._swap(owner, target.attr, wrapped)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _swap(self, owner, attr, wrapped) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, target: Target):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        name, layer, hook = target.name, target.layer, target.hook
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, stack[-1] if stack else -1, self.op, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            if hook is not None:
                for key, amount in hook(args, kwargs, result).items():
                    counts[key] += amount
            return result

        return traced

    def absorb(self, spans: list[list], counts: dict) -> None:
        """Append spans recorded by another process, re-basing parent ids."""
        base = len(self.spans)
        for name, layer, parent, op, t0, t1 in spans:
            self.spans.append([name, layer, parent + base if parent >= 0 else -1, op, t0, t1])
        for key, amount in counts.items():
            self.counts[key] += amount

    def dump(self, path) -> None:
        fields = ["name", "layer", "parent", "op", "start", "end"]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": self.spans, "counts": self.counts}, fh)


# Inclusive time metrics: a span counts when no ancestor is in the same set,
# so nested calls of one kind (load_game -> game_from_dict) count once.
TIMED = {
    "partitions.enumerate_s": {"partitions.enumerate_partitions"},
    "partitions.nested_s": {"partitions.is_nested"},
    "catalog.build_s": {"catalog.build_game", "CatalogEntry.build"},
    "games.validate_s": {"CoalitionGame.validate_domains"},
    "games.restrict_s": {"CoalitionGame.restrict", "games.restrict_game"},
    "gamefile.load_s": {"gamefile.load_game", "gamefile.game_from_dict",
                        "gamefile.load_profile", "gamefile.profile_from_dict"},
    "gamefile.dump_s": {"gamefile.save_game", "gamefile.game_to_dict",
                        "gamefile.dumps", "gamefile.profile_to_dict"},
    "solver.pure_s": {"solver.pure_nash_enumerate"},
    "solver.first_pure_s": {"solver.first_pure_equilibrium"},
    "solver.support_s": {"solver.mixed_nash_2p_support_enum"},
    "solver.verify_s": {"solver.verify_epsilon_nash"},
    "solver.fp_s": {"solver.mixed_nash_iterative"},
    "analysis.stability_s": {"analysis.stability_K_star"},
    "analysis.lottery_s": {"analysis.equilibrium_partitions"},
}

COUNTED = (
    "partitions.structures",
    "games.profiles",
    "gamefile.load_bytes",
    "solver.pure.profiles",
    "solver.pure.equilibria",
    "solver.support.pairs",
    "solver.support.equilibria",
    "solver.support.degenerate",
    "solver.verify.calls",
    "solver.fp.iterations",
    "solver.fp.converged",
    "analysis.stability.diagnostics",
    "cli.output_bytes",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer times, self times, counters and the ratios built on them."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, layer, parent, op, t0, t1 in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for k, (name, layer, parent, op, t0, t1) in enumerate(spans):
        out[f"{layer}.self_s"] += (t1 - t0) - child_time[k]
    for metric, names in TIMED.items():
        total = 0.0
        for name, layer, parent, op, t0, t1 in spans:
            if name not in names:
                continue
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][2]
            if parent < 0:
                total += t1 - t0
        out[metric] = total
    for key in COUNTED:
        out[key] = tracer.counts.get(key, 0)
    out["solver.pure.profiles_per_s"] = _ratio(out["solver.pure.profiles"], out["solver.pure_s"])
    out["solver.fp.iters_per_s"] = _ratio(out["solver.fp.iterations"], out["solver.fp_s"])
    out["solver.support.yield"] = _ratio(
        out["solver.support.equilibria"], out["solver.support.pairs"]
    )
    out["trace.spans"] = len(spans)
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
