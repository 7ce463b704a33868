"""Command line front end.

Five subcommands: enumerate prints partition families, solve finds
equilibria of a catalog or file game, analyze inspects one equilibrium,
stability scans a nested family for the largest safe coalition cap, and
catalog lists the built-in games. Human-readable tables are the default;
--json switches to a machine-readable document with exact "p/q" numbers.
The text lines of each shown equilibrium are formatted from its JSON
entry, and the JSON document itself is built only for --json.

Exit codes: 0 on success (including flagged diagnostics), 2 on usage or
parse errors, 3 on validation errors.
"""

from __future__ import annotations

import argparse
import os
import reprlib
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import analysis, solver
from .catalog import ALIASES, CATALOG, CatalogEntry, get_entry
from .gamefile import (
    GameFileError,
    _shown,
    _structure_literal,
    dumps,
    format_rational as _fr,
    load_game,
    load_profile,
    parse_rational,
)
from .games import CoalitionGame, ValidationError
from .partitions import enumerate_partitions, restricted_bell
from .solver import EquilibriumResult, SolverConfig, VerificationReport

PROG = "coalition-forge"
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3

SEED_ENV = "COALITION_FORGE_SEED"


def _show(value) -> str:
    """Readable form for human tables; exact values stay exact."""
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(Fraction(value))


def _structure_text(literal) -> str:
    """{{A,B},{C}} from a structure's literal, its blocks of player names."""
    return "{" + ",".join("{" + ",".join(block) + "}" for block in literal) + "}"


def _strategy_labels(game: CoalitionGame, names: Sequence[str]) -> list[list[str]]:
    """Display label of every strategy, indexed by player, then strategy."""

    def label(player: int, strategy) -> str:
        structure = game.family[strategy.desired_partition]
        if not strategy.action:
            return _structure_text(_structure_literal(structure, names))
        block = structure.block_of(player)
        if block.size == 1:
            return strategy.action + "_a"
        if game.n_players == 2:
            return strategy.action + "_t"
        return strategy.action + "_t" + "{" + ",".join(names[i] for i in block) + "}"

    return [[label(i, s) for s in strategies] for i, strategies in enumerate(game.strategy_sets)]


def _default_names(n: int) -> tuple[str, ...]:
    return tuple(str(i + 1) for i in range(n))


def _parse_params(raw: list[str] | None) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for chunk in raw or []:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            if not sep or not name:
                raise ValueError(f"--param entries look like name=value, got {item!r}")
            params[name.strip()] = parse_rational(value.strip(), f"--param {name}")
    return params


def _load_source(source: str, params: dict[str, Fraction]):
    """Resolve a catalog id or a game file path to a game and names."""
    key = ALIASES.get(source, source)
    if key in CATALOG:
        entry = get_entry(key)
        return entry.build(**params), entry.player_names
    if Path(source).exists():
        if params:
            raise ValueError("--param only applies to catalog games")
        return load_game(source)
    known = ", ".join(sorted(CATALOG))
    raise GameFileError(f"unknown game source {source!r}; catalog ids: {known}")


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    raw = os.environ.get(SEED_ENV)
    if raw is None:
        return 0
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"{SEED_ENV} must be non-negative, got {value}")
    return value


def _make_config(args) -> SolverConfig:
    kwargs: dict[str, Any] = {"rng_seed": _resolve_seed(getattr(args, "seed", None))}
    tolerance = getattr(args, "tolerance", None)
    if tolerance is not None:
        kwargs["tolerance"] = tolerance
    return SolverConfig(**kwargs)


def _chosen_equilibrium(
    game: CoalitionGame, args, config: SolverConfig
) -> tuple[EquilibriumResult, VerificationReport | None]:
    """The --profile file with its verification report, else a default.

    The default is the first pure equilibrium, else a mixed one by the
    cheapest route, and comes without a report.
    """
    if args.profile:
        mixed = load_profile(args.profile, game)
        report = solver.verify_epsilon_nash(game, mixed)
        supplied = EquilibriumResult(
            profile=mixed,
            expected_payoffs=report.expected,
            max_regret=report.max_regret,
            method="supplied",
            is_equilibrium=report.passed,
        )
        return supplied, report
    result = solver.first_pure_equilibrium(game)
    if result is None and game.n_players == 2:
        found = solver.mixed_nash_2p_support_enum(game, config)
        if found.equilibria:
            result = found.equilibria[0]
    if result is None:
        result = solver.mixed_nash_iterative(game, config)
    return result, None


def _document(command: str, **fields) -> dict[str, Any]:
    return {"schema_version": 1, "command": command, **fields}


def _game_document(command: str, source: str, game: CoalitionGame, names) -> dict[str, Any]:
    """Header of the solve and analyze JSON documents."""
    return _document(command, source=source, players=list(names), K=game.max_coalition)


def _equilibrium_entry(game: CoalitionGame, names, labels, result: EquilibriumResult) -> dict:
    mixed = result.profile
    entry: dict[str, Any] = {
        "method": result.method,
        "is_equilibrium": result.is_equilibrium,
        "degenerate": result.degenerate,
        "weights": [[_fr(w) for w in row] for row in mixed.weights],
        "support": [
            [labels[i][j] for j in mixed.support(i)] for i in range(game.n_players)
        ],
        "expected_payoffs": [_fr(v) for v in result.expected_payoffs],
        "max_regret": _fr(result.max_regret),
    }
    if result.iterations:
        entry["iterations"] = result.iterations
    if result.is_equilibrium:
        dist = analysis.equilibrium_partitions(game, result)
        entry["partition_distribution"] = [
            {
                "partition": _structure_literal(s, names),
                "probability": _fr(dist.probability(s)),
            }
            for s in dist.partitions
        ]
    return entry


def _pure_entries(game: CoalitionGame, names, labels, profiles) -> list[dict]:
    """_equilibrium_entry of each pure equilibrium of an (E, n) profile array.

    Payoffs, degeneracy and the realized structure are each one gather
    at the profiles, and each distinct payoff integer becomes text once.
    Entries share one weight row and one support list per (player,
    strategy), and one partition distribution per realized structure.
    """
    weights = [[[_fr(int(j == k)) for j in range(len(row))] for k in range(len(row))] for row in labels]
    supports = [[[label] for label in row] for row in labels]
    at = tuple(profiles.T)
    ints = game.payoff_ints[at]
    text = {v: _fr(Fraction(v, game.payoff_scale)) for v in set(ints.ravel().tolist())}
    degenerate = solver._degenerate(game, profiles)
    codes = game.realized_index[at].tolist()
    partitions = {}
    entries = []
    for profile, payoffs, degen, code in zip(profiles.tolist(), ints.tolist(), degenerate, codes):
        if code not in partitions:
            literal = _structure_literal(game.family[code], names)
            partitions[code] = [{"partition": literal, "probability": _fr(1)}]
        entries.append({
            "method": solver.PURE,
            "is_equilibrium": True,
            "degenerate": degen,
            "weights": [weights[i][k] for i, k in enumerate(profile)],
            "support": [supports[i][k] for i, k in enumerate(profile)],
            "expected_payoffs": [text[v] for v in payoffs],
            "max_regret": _fr(0),
            "partition_distribution": partitions[code],
        })
    return entries


def _result_entries(game: CoalitionGame, names, labels, results) -> list[dict]:
    """_equilibrium_entry of each result."""
    return [_equilibrium_entry(game, names, labels, r) for r in results]


def _entry_lines(index: int, entry: dict, names, exact: bool) -> list[str]:
    """The text lines of one equilibrium entry, numbered index.

    Exact numbers print as their entry text. An inexact result's entry
    holds each float's exact value, which reads back to the same float
    and prints to 6 significant digits.
    """

    def show(text: str) -> str:
        return text if exact else _show(float(Fraction(text)))

    supports = entry["support"]
    if all(len(support) == 1 for support in supports):
        head = f"#{index} [{entry['method']}] ({', '.join(support[0] for support in supports)})"
    else:
        parts = []
        for name, support, row in zip(names, supports, entry["weights"]):
            weights = (w for w in row if w != "0")
            parts.append(f"{name}: " + " ".join(f"{label}={show(w)}" for label, w in zip(support, weights)))
        head = f"#{index} [{entry['method']}] " + " | ".join(parts)
    pay = ", ".join(map(show, entry["expected_payoffs"]))
    head += f" -> payoffs ({pay}), regret {show(entry['max_regret'])}"
    if entry["degenerate"]:
        head += ", degenerate"
    if not entry["is_equilibrium"]:
        return [head + ", NOT verified"]
    rendered = ", ".join(
        f"{_structure_text(p['partition'])} {show(p['probability'])}"
        for p in entry["partition_distribution"]
    )
    return [head, f"    partitions: {rendered}"]


def _matrix_lines(game: CoalitionGame, names, labels) -> list[str]:
    """Payoff grid with the realized structure in every cell."""
    rows, cols = labels
    cells = []
    for i in range(len(rows)):
        line = []
        for j in range(len(cols)):
            pay = game.payoff((i, j))
            structure = game.realized_partition((i, j))
            line.append(
                f"({_fr(pay[0])},{_fr(pay[1])}) {_structure_text(_structure_literal(structure, names))}"
            )
        cells.append(line)
    widths = [
        max(len(cols[j]), max(len(cells[i][j]) for i in range(len(rows))))
        for j in range(len(cols))
    ]
    label_w = max(len(r) for r in rows)
    out = [
        " " * label_w
        + "  "
        + "  ".join(cols[j].ljust(widths[j]) for j in range(len(cols)))
    ]
    for i, row in enumerate(rows):
        out.append(
            row.ljust(label_w)
            + "  "
            + "  ".join(cells[i][j].ljust(widths[j]) for j in range(len(cols)))
        )
    return out


def _emit(text: str) -> int:
    sys.stdout.write(text + "\n")
    return EXIT_OK


# -- subcommands ---------------------------------------------------------

def cmd_enumerate(args) -> int:
    n, cap = args.n, args.K if args.K is not None else args.n
    count = restricted_bell(n, cap)
    family = () if args.count_only else enumerate_partitions(n, cap)
    names = _default_names(n)
    if args.json:
        document = _document("enumerate", n=n, K=cap, count=count)
        if not args.count_only:
            document["partitions"] = [_structure_literal(s, names) for s in family]
        return _emit(dumps(document))
    if args.count_only:
        return _emit(str(count))
    lines = [f"p({n},{cap}) = {count}"]
    lines.extend(f"{i:>3}  {_structure_text(_structure_literal(s, names))}" for i, s in enumerate(family))
    return _emit("\n".join(lines))


def cmd_solve(args) -> int:
    params = _parse_params(args.param)
    game, names = _load_source(args.source, params)
    config = _make_config(args)
    truncated = False
    converged = exact = True
    entries = _result_entries
    if args.method == "pure":
        # The pure lane's profile array: every entry is a gather at its profile.
        results = solver._pure_profiles(game)
        method = solver.PURE
        entries = _pure_entries
    elif args.method == "support":
        found = solver.mixed_nash_2p_support_enum(game, config)
        results = list(found.equilibria)
        truncated = found.truncated
        method = solver.SUPPORT
    else:
        one = solver.mixed_nash_iterative(game, config)
        results = [one]
        converged = one.is_equilibrium
        exact = one.profile.is_exact
        method = solver.ITERATIVE
    labels = _strategy_labels(game, names)

    if args.json:
        document = _game_document("solve", args.source, game, names)
        document["method"] = method
        document["equilibria"] = entries(game, names, labels, results)
        if params:
            document["parameters"] = {k: _fr(v) for k, v in sorted(params.items())}
        if truncated:
            document["truncated"] = True
        if not converged:
            document["converged"] = False
        return _emit(dumps(document))

    lines = [
        f"{args.source}: {game.n_players} players, K={game.max_coalition}, method {method}"
    ]
    if game.n_players == 2:
        lines.append("")
        lines.extend(_matrix_lines(game, names, labels))
    lines.append("")
    if not len(results):
        lines.append("no equilibria found")
    shown = results[:24]
    for index, entry in enumerate(entries(game, names, labels, shown), start=1):
        lines.extend(_entry_lines(index, entry, names, exact))
    if len(results) > len(shown):
        lines.append(f"... and {len(results) - len(shown)} more ({len(results)} total)")
    if truncated:
        lines.append("note: support search truncated by max_support cap")
    if not converged:
        lines.append("note: iteration budget exhausted without convergence")
    return _emit("\n".join(lines))


def cmd_analyze(args) -> int:
    params = _parse_params(args.param)
    game, names = _load_source(args.source, params)
    result, report = _chosen_equilibrium(game, args, _make_config(args))
    if report is None:
        report = solver.verify_epsilon_nash(game, result.profile)
    # A bad --coalition is a usage error whether or not the profile is an equilibrium.
    coalition = _parse_coalition(args.coalition, names) if args.coalition is not None else None
    stochastic = coop = None
    if result.is_equilibrium:
        stochastic = analysis.classify_stochastic(game, result)
        if coalition is not None:
            coop = analysis.is_complete_cooperation(game, result, coalition)
    entry = _equilibrium_entry(game, names, _strategy_labels(game, names), result)

    if args.json:
        document = _game_document("analyze", args.source, game, names)
        document["verification"] = {
            "expected": [_fr(v) for v in report.expected],
            "best_response": [_fr(v) for v in report.best_response],
            "regrets": [_fr(v) for v in report.regrets],
            "max_regret": _fr(report.max_regret),
            "passed": report.passed,
        }
        document["equilibrium"] = entry
        if result.is_equilibrium:
            document["stochastic"] = stochastic
        if coop is not None:
            document["cooperation"] = {
                "coalition": [names[i] for i in coalition],
                "ex_ante": coop.ex_ante,
                "ex_post": coop.ex_post,
                "complete": coop.complete,
            }
        return _emit(dumps(document))

    lines = [f"{args.source}: {game.n_players} players, K={game.max_coalition}"]
    lines.extend(_entry_lines(1, entry, names, result.profile.is_exact))
    lines.append(f"verified: {'yes' if report.passed else 'no'} (max regret {_show(report.max_regret)})")
    if result.is_equilibrium:
        lines.append(f"stochastic: {'yes' if stochastic else 'no'}")
    else:
        lines.append("note: profile is not an equilibrium; no further classification")
    if coop is not None:
        shown = ",".join(names[i] for i in coalition)
        lines.append(
            f"cooperation {{{shown}}}: "
            f"{'complete' if coop.complete else 'incomplete'} "
            f"(ex ante {'yes' if coop.ex_ante else 'no'}, "
            f"ex post {'yes' if coop.ex_post else 'no'})"
        )
    return _emit("\n".join(lines))


def _parse_coalition(raw: str, names: Sequence[str]):
    from .partitions import Coalition

    members = []
    for part in raw.split(","):
        part = part.strip()
        if part not in names:
            raise ValueError(f"unknown player {reprlib.repr(part)}; players are: {_shown(names)}")
        members.append(list(names).index(part))
    if len(set(members)) != len(members):
        raise ValueError("coalition members must be distinct")
    return Coalition.of(*members)


def cmd_stability(args) -> int:
    params = _parse_params(args.param)
    if len(args.source) == 1:
        game, names = _load_source(args.source[0], params)
        family = [game.restrict(k) for k in range(args.K0, game.max_coalition + 1)]
    else:
        if params:
            raise ValueError("--param only applies to catalog games")
        loaded = [load_game(path) for path in args.source]
        names = loaded[0][1]
        for path, (_, other) in zip(args.source[1:], loaded[1:]):
            if other != names:
                raise ValueError(
                    f"{path} names its players {', '.join(other)}, "
                    f"but {args.source[0]} names them {', '.join(names)}"
                )
        family = [g for g, _ in loaded]
    base = next((g for g in family if g.max_coalition == args.K0), None)
    if base is None:
        raise ValueError(f"no family member has K={args.K0}")
    config = _make_config(args)
    result, _ = _chosen_equilibrium(base, args, config)
    report = analysis.stability_K_star(family, args.K0, result, config)
    source_text = " ".join(args.source)
    entry = _equilibrium_entry(base, names, _strategy_labels(base, names), result)

    if args.json:
        document = _document(
            "stability",
            source=source_text,
            K0=report.K0,
            K_star=report.K_star,
            checks=[
                {"K": c.K, "payoff_ok": c.payoff_ok, "domain_ok": c.domain_ok, "passed": c.passed}
                for c in report.per_K_checks
            ],
            diagnostics=[
                {"K": d.K, "profile": list(d.profile), "payoffs": [_fr(v) for v in d.payoffs]}
                for d in report.diagnostics
            ],
            equilibrium=entry,
        )
        return _emit(dumps(document))

    lines = [f"{source_text}: K0={report.K0} -> K* = {report.K_star}"]
    lines.extend(_entry_lines(1, entry, names, result.profile.is_exact))
    for check in report.per_K_checks:
        verdict = "pass" if check.passed else "FAIL"
        lines.append(
            f"  K={check.K}: payoffs {'ok' if check.payoff_ok else 'fail'}, "
            f"domains {'ok' if check.domain_ok else 'fail'} -> {verdict}"
        )
    # stability_K_star has checked that the caps are distinct
    by_cap = {g.max_coalition: g for g in family}
    tables = {k: _strategy_labels(by_cap[k], names) for k in {d.K for d in report.diagnostics}}
    for d in report.diagnostics:
        shown = ", ".join(tables[d.K][i][j] for i, j in enumerate(d.profile))
        pay = ", ".join(_fr(v) for v in d.payoffs)
        lines.append(
            f"  diagnostic at K={d.K}: dominating pure equilibrium ({shown}) with payoffs ({pay})"
        )
    return _emit("\n".join(lines))


def cmd_catalog(args) -> int:
    if args.id:
        entry = get_entry(ALIASES.get(args.id, args.id))
        if args.json:
            return _emit(dumps(_document("catalog", **_catalog_entry_dict(entry))))
        lines = [
            f"{entry.id}: {entry.description}",
            f"  players: {', '.join(entry.player_names)} ({entry.n_players})",
            f"  K: {entry.max_coalition}",
        ]
        if entry.parameters:
            rendered = ", ".join(f"{k}={_fr(v)}" for k, v in sorted(entry.parameters))
            lines.append(f"  parameters: {rendered}")
        return _emit("\n".join(lines))
    if args.json:
        entries = [_catalog_entry_dict(e) for e in CATALOG.values()]
        return _emit(dumps(_document("catalog", entries=entries)))
    return _emit("\n".join(
        f"{entry.id:<14} {entry.n_players} players, K={entry.max_coalition}  {entry.description}"
        for entry in CATALOG.values()
    ))


def _catalog_entry_dict(entry: CatalogEntry) -> dict:
    return {
        "id": entry.id,
        "description": entry.description,
        "players": list(entry.player_names),
        "K": entry.max_coalition,
        "parameters": {k: _fr(v) for k, v in sorted(entry.parameters)},
    }


# -- parser --------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Build, solve and analyze coalition formation games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list coalition structures")
    p.add_argument("-n", type=int, required=True, help="number of players")
    p.add_argument("-K", type=int, default=None, help="largest allowed block (default n)")
    p.add_argument("--count-only", action="store_true", help="print only the count")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("solve", help="find equilibria of a game")
    p.add_argument("source", help="catalog id or game file path")
    p.add_argument(
        "--method",
        choices=("pure", "support", "iterative"),
        default="pure",
        help="equilibrium search method",
    )
    p.add_argument("--tolerance", type=float, default=None, help="verification tolerance")
    p.add_argument("--seed", type=int, default=None, help="iteration start seed")
    p.add_argument(
        "--param",
        action="append",
        metavar="NAME=VALUE[,NAME=VALUE...]",
        help="catalog game parameter overrides",
    )
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="inspect one equilibrium of a game")
    p.add_argument("source", help="catalog id or game file path")
    p.add_argument("--coalition", default=None, metavar='"A,B"', help="players to test for cooperation")
    p.add_argument("--profile", default=None, help="mixed profile file to analyze")
    p.add_argument("--param", action="append", metavar="NAME=VALUE[,NAME=VALUE...]")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stability", help="largest cap an equilibrium survives")
    p.add_argument("source", nargs="+", help="catalog id, or one game file per cap")
    p.add_argument("--K0", type=int, required=True, help="cap the equilibrium is computed at")
    p.add_argument("--profile", default=None, help="mixed profile file for the base game")
    p.add_argument("--param", action="append", metavar="NAME=VALUE[,NAME=VALUE...]")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("catalog", help="list built-in games")
    p.add_argument("--id", default=None, help="show one entry in detail")
    p.set_defaults(func=cmd_catalog)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except GameFileError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValidationError as exc:
        print(f"{PROG}: invalid game: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
