"""The workloads: what one pass does and how its outputs are checked.

A pass is a fixed sequence of ops, run one at a time as `run_pass`
yields them: one CLI command (lunch), one game (duel-sweep, wide-games)
or one partition-census cell (wide-games). Each op times only the
library's calls, or the whole child process for a CLI command, and then
checks the outputs with the brute-force oracle. A failed check or an
exception marks the op failed; it never stops the pass. Every op also
records exact work counters, which must repeat whenever the same inputs
are run again.

Each workload has `setup(seed, workdir)`, the part timed as `setup_s` in
`setup_repeats` fresh processes, and `inputs(seed, workdir)`, which the
measuring process calls on a directory `setup` has filled. It returns
the pass inputs and the set-up checks, a list of (name, failures).
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import gen
import oracle

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CHILD_TIMEOUT_S = 60


@dataclass
class Op:
    """One unit of work: its latency, counters and any failed checks.

    cost is the latency in iterations of the reference loop (pace.py):
    at the loop's rate inside the child process for a CLI command, `rate`,
    else at its rate timed just before and after the op (run.run_pass).
    """

    name: str
    kind: str
    seconds: float = 0.0
    cost: float = 0.0
    rate: float = 0.0
    counters: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    peak_rss_kb: int = 0

    def timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.seconds += time.perf_counter() - start

    def check(self, messages) -> None:
        self.failures.extend(messages)


def run_op(name: str, kind: str, tracer, body) -> Op:
    """Run body(op); an exception becomes a failure of this op only.

    While tracing, the op's name is the id shared by all its spans.
    """
    op = Op(name, kind)
    if tracer is not None:
        tracer.op = name
    try:
        body(op)
    except Exception as exc:  # the run must go on and report the failure
        op.failures.append(f"raised {type(exc).__name__}: {exc}")
    return op


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(cmd, stdout_path: Path, stderr_path: Path, cwd: Path = HERE.parent
              ) -> tuple[float, int, int]:
    """Run a child process in cwd to completion: (seconds, exit code, peak RSS in KiB).

    os.wait4 gives this child's own resource usage, so the peak belongs
    to this command alone. A child that outlives the timeout is killed.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss


# -- lunch -------------------------------------------------------------------


class Lunch:
    """The lunch game through the CLI, each command in a fresh interpreter.

    Every pass runs LUNCH_COMMANDS in order. The commands run in the
    directory of the game files and name them without a directory, so
    the output, which echoes them, has the same bytes in every run.
    """

    name = "lunch"
    setup_repeats = 3  # a set-up takes about 7 s

    def setup(self, seed: int, workdir: Path) -> None:
        """Write the cap 2, 3 and 4 game files as a user would, through the library."""
        from coalition_forge import catalog, gamefile

        game = catalog.build_game("lunch")
        for cap in gen.LUNCH_CAPS:
            gamefile.save_game(game.restrict(cap), _lunch_file(workdir, cap), gen.LUNCH_NAMES)

    def inputs(self, seed: int, workdir: Path):
        """The files `setup` wrote, each with the oracle's table for its cap.

        Each file must equal the oracle's own document byte for byte; the
        comparison is one set-up check per file.
        """
        files, checks = {}, []
        for cap in gen.LUNCH_CAPS:
            path, tables = _lunch_file(workdir, cap), gen.lunch_tables(cap)
            same = path.read_bytes() == gen.lunch_document(tables).encode()
            problems = [] if same else [f"{path.name} differs from the oracle's document"]
            checks.append((path.name, problems))
            files[cap] = (path, tables)
        return files, checks

    def run_pass(self, files, workdir: Path, tracer):
        cwd = files[gen.LUNCH_CAPS[0]][0].parent
        for kind, argv, check in LUNCH_COMMANDS:
            yield self._command(kind, argv(files), workdir, cwd, tracer,
                                lambda op, doc: check(op, doc, files))

    def _command(self, kind, argv, workdir, cwd, tracer, check) -> Op:
        def body(op: Op) -> None:
            out, err = workdir / f"{kind}.out", workdir / f"{kind}.err"
            report = workdir / f"{kind}.report.json"
            trace_op = "-" if tracer is None else tracer.op
            cmd = [sys.executable, str(HERE / "cli_child.py"), str(report), trace_op, *argv]
            op.seconds, code, op.peak_rss_kb = run_child(cmd, out, err, cwd)
            if code != 0:
                tail = err.read_text(errors="replace").strip().splitlines()[-1:]
                op.failures.append(f"exit code {code}: {' '.join(tail)}")
                return
            recorded = json.loads(report.read_text())
            op.rate = recorded["rate"]
            text = out.read_bytes()
            op.counters["output_bytes"] = len(text)
            if tracer is not None:
                tracer.absorb(recorded["spans"], recorded["counts"])
                tracer.count("cli.output_bytes", len(text))
            check(op, json.loads(text))

        return run_op(f"{self.name}-{kind}", kind, tracer, body)


def _lunch_file(workdir: Path, cap: int) -> Path:
    return workdir / f"lunch_K{cap}.json"


def _path(files, cap: int) -> str:
    return files[cap][0].name


def check_pure(cap: int, expected: int):
    """solve --method pure: the expected count, in order, each surviving the scan."""

    def check(op: Op, doc, files) -> None:
        tables = files[cap][1]
        shape = (len(tables.structures),) * 4
        found = doc["equilibria"]
        op.counters["equilibria"] = len(found)
        if len(found) != expected:
            op.check([f"solve lists {len(found)} equilibria, expected {expected}"])
        previous = None
        for entry in found:
            profile = oracle.pure_profile(oracle.exact(entry["weights"]))
            if profile is None:
                op.check([f"solve lists a non-pure profile {entry['weights']}"])
                continue
            if previous is not None and profile <= previous:
                op.check([f"solve output not in lexicographic order at {profile}"])
            previous = profile
            op.check(_lunch_point(entry, tables, profile, "solve"))

    return check


def check_stability(caps, k_star: int):
    """stability --K0 2: the expected K*, and the lifted equilibrium survives each cap."""

    def check(op: Op, doc, files) -> None:
        op.counters["K_star"] = doc["K_star"]
        op.counters["diagnostics"] = len(doc["diagnostics"])
        if doc["K_star"] != k_star:
            op.check([f"stability reports K_star {doc['K_star']}, expected {k_star}"])
        verdicts = [(c["K"], c["passed"]) for c in doc["checks"]]
        if verdicts != [(cap, True) for cap in caps]:
            op.check([f"stability checks {verdicts}"])
        base = oracle.pure_profile(oracle.exact(doc["equilibrium"]["weights"]))
        if base is None:
            op.check(["stability equilibrium is not pure"])
            return
        # Lifted by strategy meaning, the cap-2 equilibrium must survive
        # every unilateral deviation at each cap the scan passed.
        chosen = [files[2][1].structures[k] for k in base]
        for cap in caps:
            tables = files[cap][1]
            profile = tuple(tables.structures.index(s) for s in chosen)
            shape = (len(tables.structures),) * 4
            op.check(oracle.unilateral_ok(tables.payoffs, shape, profile, f"stability K={cap}"))

    return check


def check_iterative(op: Op, doc, files) -> None:
    """solve --method iterative on the cap-4 game: one verified equilibrium."""
    tables = files[4][1]
    shape = (len(tables.structures),) * 4
    (entry,) = doc["equilibria"]
    op.counters["iterations"] = entry.get("iterations", 0)
    if not entry["is_equilibrium"] or doc.get("converged") is False:
        op.check(["iterative lane did not converge on lunch"])
    weights = oracle.exact(entry["weights"])
    profile = oracle.pure_profile(weights)
    if profile is None:
        op.check(oracle.float_regret_agrees(tables.payoffs, shape, weights,
                                            Fraction(entry["max_regret"]), "iterative"))
    else:
        op.check(_lunch_point(entry, tables, profile, "iterative"))


def _lunch_point(entry, tables, profile, what: str) -> list[str]:
    """A pure lunch result: unilaterally stable, table payoffs, zero regret."""
    shape = (len(tables.structures),) * 4
    problems = oracle.unilateral_ok(tables.payoffs, shape, profile, what)
    if [Fraction(v) for v in entry["expected_payoffs"]] != list(tables.payoffs[profile]):
        problems.append(f"{what} payoffs at {profile} differ from the table")
    if not entry["is_equilibrium"] or entry["max_regret"] != "0":
        problems.append(f"{what} marks {profile} unverified")
    return problems


# The benchmark's lunch: the pure lane and the stability scan at caps 2
# and 3, plus the full 4-player game built and solved by fictitious
# play. Each command takes 2-5 s, so a 30 s run samples each several
# times. The full-size commands (`solve lunch --method pure`, about 15 s,
# and stability over caps 2 to 4, about 8 s) would be sampled once a run,
# and on a shared 2-vCPU machine their run-to-run spread exceeds any
# usable bound; see README.md. Each entry: kind, argv from the files,
# check of the parsed output.
LUNCH_COMMANDS = [
    ("solve-k2", lambda f: ["solve", _path(f, 2), "--method", "pure", "--json"],
     check_pure(2, 2304)),
    ("stability-k23", lambda f: ["stability", _path(f, 2), _path(f, 3), "--K0", "2", "--json"],
     check_stability((2, 3), 3)),
    ("iterative", lambda f: ["solve", "lunch", "--method", "iterative", "--json"],
     check_iterative),
]


# -- duel-sweep ----------------------------------------------------------------

# (m, games): most games are tiny, so per-call overhead shows; the m = 5
# games carry the support lane's exact linear algebra (961 support pairs
# each). m = 6 costs about 2.3 s a game and m = 8 about 61 s, so both
# stay out. A pass takes about 8 s, so a run repeats it.
DUEL_SIZES = ((2, 50), (3, 40), (4, 24), (5, 6))
DUEL_CATALOG_PER_ID = 10


def _catalog_grid(rng) -> list[tuple[str, dict]]:
    """Two-player catalog games over seeded parameter grids."""
    tenth = lambda lo, hi: Fraction(rng.randint(lo, hi), 10)  # noqa: E731
    out = []
    for _ in range(DUEL_CATALOG_PER_ID):
        out.append(("bos", {"eps": tenth(0, 30)}))
        out.append(("pd-extroverts", {"eps": tenth(1, 60)}))
        out.append(("pd-introverts", {"delta": tenth(1, 60)}))
        out.append(("pd-mixed", {"eps": tenth(1, 30), "delta": tenth(1, 30)}))
    return out


@dataclass(frozen=True)
class DuelInputs:
    random_games: list  # (spec, game)
    catalog: list  # (id, params)


class DuelSweep:
    """Many small two-player games, each through every exact lane."""

    name = "duel-sweep"
    setup_repeats = 5

    def setup(self, seed: int, workdir: Path) -> DuelInputs:
        rng = random.Random(seed)
        specs = [
            gen.two_player_game(rng, m, f"random-{m}x{m}-{k}")
            for m, count in DUEL_SIZES
            for k in range(count)
        ]
        return DuelInputs([(s, gen.to_game(s)) for s in specs], _catalog_grid(rng))

    def inputs(self, seed: int, workdir: Path):
        return self.setup(seed, workdir), []

    def run_pass(self, inputs: DuelInputs, workdir: Path, tracer):
        from coalition_forge import catalog

        for spec, game in inputs.random_games:
            yield run_op(spec.name, "game", tracer,
                         lambda op: self._game(op, game, spec.payoffs, tracer))
        for game_id, params in inputs.catalog:
            label = ",".join(f"{k}={v}" for k, v in params.items())

            def body(op, game_id=game_id, params=params):
                game = op.timed(catalog.build_game, game_id, **params)
                self._game(op, game, dict(game.payoffs), tracer)

            yield run_op(f"{game_id}[{label}]", "game", tracer, body)

    def _game(self, op: Op, game, table, tracer) -> None:
        from coalition_forge import analysis, gamefile, partitions, solver

        shape = tuple(len(s) for s in game.strategy_sets)
        support = op.timed(solver.mixed_nash_2p_support_enum, game)
        pure = op.timed(solver.pure_nash_enumerate, game)
        first = op.timed(solver.first_pure_equilibrium, game)
        op.check(_first_matches(first, pure))
        for result in support.equilibria + pure:
            report = op.timed(solver.verify_epsilon_nash, game, result.profile)
            if not report.passed or report.max_regret != 0:
                op.check([f"verify_epsilon_nash regret {report.max_regret} for {result.method}"])
            op.check(oracle.zero_regret(table, shape, result.profile.weights, result.method))
        for result in pure:
            profile = oracle.pure_profile(result.profile.weights)
            op.check(oracle.unilateral_ok(table, shape, profile, "pure"))
        pair = partitions.Coalition.of(0, 1)
        structures = 0
        for result in support.equilibria:
            lottery = op.timed(analysis.equilibrium_partitions, game, result)
            op.timed(analysis.is_complete_cooperation, game, result, pair)
            stochastic = op.timed(analysis.classify_stochastic, game, result)
            op.check(_lottery_matches(game, result.profile.weights, lottery, stochastic))
            structures += len(lottery)

        alone = op.timed(game.restrict, 1)
        base = op.timed(solver.mixed_nash_2p_support_enum, alone).equilibria
        k_star = 0
        if not base:
            op.check(["no equilibrium found at cap 1"])
        else:
            report = op.timed(analysis.stability_K_star, [alone, game], 1, base[0])
            k_star = report.K_star
            lifted = _lift_alone(game, base[0].profile.weights)
            survives = max(oracle.regrets(table, shape, lifted)) == 0
            if k_star != (2 if survives else 1):
                op.check([f"K_star {k_star}, brute force says the cap-1 equilibrium "
                          f"{'survives' if survives else 'fails'} at cap 2"])

        text = op.timed(lambda: gamefile.dumps(gamefile.game_to_dict(game)))
        back, names = op.timed(lambda: gamefile.game_from_dict(json.loads(text)))
        if tracer is not None:
            tracer.count("gamefile.load_bytes", len(text))
        again = op.timed(lambda: gamefile.dumps(gamefile.game_to_dict(back, names)))
        if again != text:
            op.check(["game file round trip changed the bytes"])
        op.counters.update({
            "profiles": shape[0] * shape[1],
            "support_equilibria": len(support.equilibria),
            "degenerate": sum(r.degenerate for r in support.equilibria),
            "pure_equilibria": len(pure),
            "lottery_structures": structures,
            "K_star": k_star,
            "bytes": len(text),
        })


def _first_matches(first, pure) -> list[str]:
    if first is None:
        return [] if not pure else ["first_pure_equilibrium found none, enumeration did"]
    if not pure or first.profile != pure[0].profile:
        return ["first_pure_equilibrium differs from the first enumerated equilibrium"]
    return []


def _lottery_matches(game, weights, lottery, stochastic) -> list[str]:
    """Two players pair up exactly when both desire the pair."""
    together = [
        sum(w for k, w in enumerate(weights[i]) if game.desired_structure(i, k).max_block_size == 2)
        for i in range(2)
    ]
    expected = {2: together[0] * together[1]}
    expected[1] = 1 - expected[2]
    got = {s.max_block_size: lottery.probability(s) for s in lottery.partitions}
    if {k: v for k, v in expected.items() if v} != got:
        return [f"partition lottery {got}, brute force gives {expected}"]
    if stochastic != (len(got) >= 2):
        return ["classify_stochastic disagrees with the lottery"]
    return []


def _lift_alone(game, weights) -> list[list[Fraction]]:
    """Embed cap-1 weights into the full game: its singleton-desire strategies, in order."""
    rows = []
    for i in range(2):
        kept = [k for k in range(len(game.strategy_sets[i]))
                if game.desired_structure(i, k).max_block_size == 1]
        row = [Fraction(0)] * len(game.strategy_sets[i])
        for k, w in zip(kept, weights[i]):
            row[k] = w
        rows.append(row)
    return rows


# -- wide-games ----------------------------------------------------------------

CENSUS = ((9, (2, 3, 9)), (10, (2, 3, 10)))
WIDE_SIZES = (8, 12, 16)
WIDE_PER_SIZE = 8
# Keeps a pass under 10 s, the census included, so a run samples each op
# about three times; games that lock in early then cost about as much as
# the rest, so the seed moves the total little.
FP_ITERATIONS = 1000


class WideGames:
    """Partition census plus unstructured 3-player games."""

    name = "wide-games"
    setup_repeats = 5

    def setup(self, seed: int, workdir: Path) -> list:
        rng = random.Random(seed)
        specs = [
            gen.three_player_game(rng, m, k % 2 == 1, f"3p-{m}-{'table' if k % 2 else 'unanimity'}-{k}")
            for m in WIDE_SIZES
            for k in range(WIDE_PER_SIZE)
        ]
        return [(s, gen.to_game(s)) for s in specs]

    def inputs(self, seed: int, workdir: Path):
        return self.setup(seed, workdir), []

    def run_pass(self, games, workdir: Path, tracer):
        for n, caps in CENSUS:
            previous = [None]
            for cap in caps:
                yield run_op(f"census-{n}-{cap}", "census", tracer,
                             lambda op: self._census(op, n, cap, previous))
        for spec, game in games:
            yield run_op(spec.name, "game", tracer, lambda op: self._game(op, spec, game))

    def _census(self, op: Op, n: int, cap: int, previous: list) -> None:
        from coalition_forge import partitions

        family = op.timed(partitions.enumerate_partitions, n, cap)
        count = op.timed(partitions.restricted_bell, n, cap)
        if len(family) != count:
            op.check([f"{len(family)} structures for n={n}, K={cap}; restricted_bell says {count}"])
        if previous[0] is not None and not op.timed(partitions.is_nested, previous[0], family):
            op.check([f"cap {previous[0].max_block} family not nested in cap {cap}"])
        previous[0] = family
        op.counters["structures"] = len(family)

    def _game(self, op: Op, spec, game) -> None:
        from coalition_forge import analysis, solver

        table, shape = spec.payoffs, spec.shape
        op.timed(game.validate_domains)
        pure = op.timed(solver.pure_nash_enumerate, game)
        first = op.timed(solver.first_pure_equilibrium, game)
        op.check(_first_matches(first, pure))
        for result in pure:
            profile = oracle.pure_profile(result.profile.weights)
            op.check(oracle.unilateral_ok(table, shape, profile, "pure"))
            lottery = op.timed(analysis.equilibrium_partitions, game, result)
            got = [tuple(tuple(b.members) for b in s.blocks) for s in lottery.partitions]
            if got != [_realized(spec, profile)]:
                op.check([f"lottery of {profile} is {got}, the mechanism realizes "
                          f"{_realized(spec, profile)}"])
        config = solver.SolverConfig(max_iterations=FP_ITERATIONS)
        fp = op.timed(solver.mixed_nash_iterative, game, config)
        weights = fp.profile.weights
        if fp.profile.is_exact:
            profile = oracle.pure_profile(weights)
            if profile is None or fp.max_regret != 0 or not fp.is_equilibrium:
                op.check(["iterative lane snapped to a profile it could not verify"])
            else:
                op.check(oracle.unilateral_ok(table, shape, profile, "iterative"))
        else:
            if fp.is_equilibrium != (fp.max_regret <= config.tolerance):
                op.check([f"iterative is_equilibrium {fp.is_equilibrium} with max regret "
                          f"{fp.max_regret!r} and tolerance {config.tolerance}"])
            op.check(oracle.float_regret_agrees(table, shape, weights, fp.max_regret, "iterative"))
        op.counters.update({
            "profiles": spec.n_profiles,
            "pure_equilibria": len(pure),
            "fp_iterations": fp.iterations,
            "fp_converged": int(fp.is_equilibrium),
        })


def _realized(spec, profile) -> tuple:
    """The structure a pure profile realizes, read from the spec alone."""
    family = gen.partitions(spec.n_players, spec.cap)
    if spec.table is not None:
        return family[spec.table[profile]]
    return gen.unanimity([family[spec.strategies[i][k][0]] for i, k in enumerate(profile)])


WORKLOADS = {w.name: w for w in (Lunch(), DuelSweep(), WideGames())}
