"""Benchmark for coalition-forge: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload {lunch,duel-sweep,wide-games,all} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the library is imported from ./src. An
untraced run sets the workload up several times in fresh processes
(`setup_s` is their median, at a reference speed; see `time_setup`),
takes the inputs from the last of them, then repeats fixed passes over
them, closed loop with one caller, for about S seconds, always at least
one pass. Each op is timed, and its cost taken in iterations of a
reference loop (pace.py). Every op's output is checked by the
benchmark's own brute-force oracle; failures are counted, never fatal.

With --trace 0 the last stdout line carries the end-to-end metrics.
With --trace 1 the run sets the workload up once, untimed, makes
untraced passes for half the time, then one pass with spans around the
library's public calls, and reports per-layer times, self times,
counters and the tracing overhead. The lines before the last are a
readable report; failures go to stderr.

Work files live under .perfbench_work/ in the repository root: a
scratch directory per run (removed at exit), the last trace of each
workload and seed, and the counters of earlier runs, which a later run
with the same seed and the same code must reproduce exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

from pace import Pacer, loop_seconds  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, run_child  # noqa: E402

CALIB_LOOP = 400_000
STEP_LOOP = 20_000
# The sampled loop's rate (pace.Pacer) on the machine described in
# README.md, in iterations per second; it turns set-up cost into seconds.
REF_LOOP_PER_S = 10_000_000

END_TO_END = {
    "setup_s": "s",
    "work_mloop": "Mloop",
    "peak_rss_mb": "MB",
}

UNIT_SUFFIXES = (("_per_s", "1/s"), ("_s", "s"), ("bytes", "bytes"), ("yield", "ratio"),
                 ("overhead", "ratio"))


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name; plain counters are counts."""
    for suffix, unit in UNIT_SUFFIXES:
        if metric.endswith(suffix):
            return unit
    return "count"


def calibrate() -> float:
    return statistics.median(loop_seconds(CALIB_LOOP) for _ in range(3))


def time_setup(workload, seed: int, workdir: Path) -> float:
    """Cost of one fresh process that only sets the workload up.

    The process's wall time at the reference loop's rate inside it, in
    seconds at REF_LOOP_PER_S: the host's speed changes, between runs and
    within one, do not read as set-up cost.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload.name,
           "--seed", str(seed), "--setup-only", str(workdir)]
    workdir.mkdir(parents=True)
    seconds, code, _ = run_child(cmd, workdir / "setup.out", workdir / "setup.err")
    if code != 0:
        sys.stderr.write((workdir / "setup.err").read_text(errors="replace"))
        raise SystemExit(f"set-up process failed with exit code {code}")
    rate = json.loads((workdir / "setup.out").read_text())["rate"]
    return seconds * rate / REF_LOOP_PER_S


def run_pass(workload, inputs, workdir: Path, tracer=None) -> list:
    """One pass, each op's cost taken against the host speed at the time.

    An op in a child process brings the loop's rate inside it (`Op.rate`);
    for an op in this process, the loop is timed right before and after
    it. Either way the cost is in loop iterations, which follows the
    program, not the neighbours on the machine (see pace.py).
    """
    ops = []
    before = loop_seconds(STEP_LOOP)
    for op in workload.run_pass(inputs, workdir, tracer):
        after = loop_seconds(STEP_LOOP)
        op.cost = op.seconds * (op.rate or 2 * STEP_LOOP / (before + after))
        ops.append(op)
        before = after
    return ops


def measure(workload, inputs, workdir: Path, seconds: float) -> list[list]:
    """Closed-loop passes for about `seconds`, at least one.

    A further pass starts only if it should end within half a pass of
    the deadline, so runs neither stop far short of it nor overrun it
    by more than half a pass.
    """
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        passes.append(run_pass(workload, inputs, workdir))
        now = time.perf_counter()
        walls.append(now - begun)
        if now - start + statistics.median(walls) / 2 > seconds:
            return passes


def traced_run(workload, inputs, workdir: Path, args) -> tuple[list[list], dict]:
    """Untraced passes for half the time, then one traced pass.

    Returns every pass and the per-layer metrics; the traced pass's
    excess cost over the untraced median is the tracing overhead.
    """
    passes = measure(workload, inputs, workdir, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, inputs, workdir, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead"] = sum(op.cost for op in traced) / sum(typical(passes, "cost")) - 1
    trace_file = WORK / "traces" / f"{workload.name}-seed{args.seed}.json"
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_file)
    return passes + [traced], metrics


def typical(passes, field: str) -> list[float]:
    """Each op's median across the passes, for one field of Op."""
    return [statistics.median(getattr(op, field) for op in column) for column in zip(*passes)]


def end_to_end(passes, setup_s: float) -> dict[str, float]:
    children = max(op.peak_rss_kb for p in passes for op in p)
    peak_kb = children or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": setup_s,
        "work_mloop": sum(typical(passes, "cost")) / 1e6,
        "peak_rss_mb": peak_kb / 1024,
    }


def workload_figures(passes) -> list[tuple[str, float, str, str]]:
    """Figures in seconds for the readable report, each op at its median."""
    seconds = typical(passes, "seconds")
    ops = passes[0]
    by_kind: dict[str, list[float]] = {}
    for op, value in zip(ops, seconds):
        by_kind.setdefault(op.kind, []).append(value)
    out = [
        ("wall_s", sum(seconds), "s", "library time of one pass"),
        ("ops_per_s", len(seconds) / sum(seconds), "1/s", f"{len(seconds)} ops"),
        ("op_p50_ms", 1000 * statistics.median(seconds), "ms", f"n={len(seconds)}"),
    ]
    for kind, values in by_kind.items():
        if kind not in ("game", "census"):
            out.append((f"cli_{kind.replace('-', '_')}_s", values[0], "s", "one CLI command"))
    games = sorted(by_kind.get("game", []))
    if games:
        out.append(("games_per_s", len(games) / sum(games), "1/s", f"{len(games)} games"))
        out.append(("game_p50_ms", 1000 * statistics.median(games), "ms", f"n={len(games)}"))
        cut = statistics.quantiles(games, n=10)[-1]
        beyond = sum(1 for v in games if v > cut)
        if beyond >= 10:
            out.append(("game_p90_ms", 1000 * cut, "ms", f"n={len(games)}, {beyond} beyond"))
    census = [(op, value) for op, value in zip(ops, seconds) if op.kind == "census"]
    if census:
        structures = sum(op.counters["structures"] for op, _ in census)
        out.append(("structures_per_s", structures / sum(v for _, v in census), "1/s",
                    f"{structures} structures"))
    return out


def signature(ops) -> list:
    return [[op.name, sorted(op.counters.items())] for op in ops]


def code_digest() -> str:
    """Hash of the library and benchmark sources, to key stored counters."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def counter_check(workload, seed: int, passes) -> list[str]:
    """Counters must repeat across passes and across runs with the same seed."""
    first = signature(passes[0])
    problems = [f"pass {k + 1} counters differ from pass 1"
                for k, p in enumerate(passes[1:], start=1) if signature(p) != first]
    store = WORK / "counters" / f"{workload.name}-seed{seed}-{code_digest()}.json"
    first = json.loads(json.dumps(first))
    if store.exists():
        if json.loads(store.read_text()) != first:
            problems.append(f"counters differ from an earlier run with seed {seed}")
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(first))
    return problems


def run_all(args) -> int:
    """Run the benchmark's workloads in turn, each in its own process."""
    codes = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        sys.stdout.flush()
        codes.append(subprocess.run(cmd, cwd=ROOT).returncode)
    return max(codes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]

    if args.setup_only:
        pacer = Pacer()
        pacer.start()
        workload.setup(args.seed, Path(args.setup_only))
        print(json.dumps({"rate": pacer.stop()}))
        return 0
    if not (SRC / "coalition_forge" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC / 'coalition_forge'}", file=sys.stderr)
        return 2

    calib = [calibrate()]
    workdir = WORK / f"run-{workload.name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_dir = workdir / "setup"
        if args.trace:
            setup_dir.mkdir()
            workload.setup(args.seed, setup_dir)
            inputs, setup_checks = workload.inputs(args.seed, setup_dir)
            passes, metrics = traced_run(workload, inputs, workdir, args)
        else:
            repeats = workload.setup_repeats
            setup_s = statistics.median(
                time_setup(workload, args.seed, setup_dir / str(k)) for k in range(repeats)
            )
            inputs, setup_checks = workload.inputs(args.seed, setup_dir / str(repeats - 1))
            passes = measure(workload, inputs, workdir, args.seconds)
            metrics = end_to_end(passes, setup_s)
        calib.append(calibrate())
        problems = counter_check(workload, args.seed, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # The set-up checks and the counter self-check count as ops too.
    checks = [*((op.name, op.failures) for p in passes for op in p), *setup_checks,
              ("counter self-check", problems)]
    failed_checks = [(name, failures) for name, failures in checks if failures]
    attempted, failed = len(checks), len(failed_checks)
    for name, failures in failed_checks[:10]:
        more = f" (+{len(failures) - 3} more)" if len(failures) > 3 else ""
        print(f"FAILED {name}: {'; '.join(failures[:3])}{more}", file=sys.stderr)

    if args.trace:
        metrics["host.calib_s"] = statistics.mean(calib)
        units = {name: unit_of(name) for name in metrics}
    else:
        units = END_TO_END
    rows = [(name, value, units[name], "") for name, value in metrics.items()]
    if not args.trace:
        rows += workload_figures(passes)
        rows.append(("host.calib_s", statistics.mean(calib), "s",
                     "start " + ", end ".join(f"{c:.4f}" for c in calib)))
    rows.append(("error_rate", failed / attempted, "ratio", f"{failed} failed of {attempted}"))
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}: "
          f"{len(passes)} passes of {len(passes[0])} ops")
    for name, value, unit, note in rows:
        print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")
    totals: dict[str, int] = {}
    for op in passes[0]:
        for key, amount in op.counters.items():
            totals[key] = totals.get(key, 0) + amount
    print("  counters per pass: " + ", ".join(f"{k}={v}" for k, v in sorted(totals.items())))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
