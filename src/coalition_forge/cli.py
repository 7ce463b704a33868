"""Command line front end.

Five subcommands: enumerate prints partition families, solve finds
equilibria of a catalog or file game, analyze inspects one equilibrium,
stability scans a nested family for the largest safe coalition cap, and
catalog lists the built-in games. Human-readable tables are the default;
--json switches to a machine-readable document with exact "p/q" numbers.

Exit codes: 0 on success (including flagged diagnostics), 2 on usage or
parse errors, 3 on validation errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from . import analysis, solver
from .catalog import ALIASES, CATALOG, CatalogEntry, get_entry
from .gamefile import (
    GameFileError,
    _structure_literal,
    dumps,
    format_rational as _fr,
    game_to_dict,
    load_game,
    load_profile,
    parse_rational,
)
from .games import CoalitionGame, ValidationError
from .partitions import enumerate_partitions, restricted_bell
from .solver import EquilibriumResult, MixedProfile, SolverConfig

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


def _structure_text(structure, names: Sequence[str]) -> str:
    blocks = ",".join(
        "{" + ",".join(names[i] for i in block) + "}" for block in structure.blocks
    )
    return "{" + blocks + "}"


def _strategy_label(game: CoalitionGame, names: Sequence[str], player: int, strategy) -> str:
    structure = game.family[strategy.desired_partition]
    if not strategy.action:
        return _structure_text(structure, names)
    block = structure.block_of(player)
    if block.size == 1:
        return strategy.action + "_a"
    if game.n_players == 2:
        return strategy.action + "_t"
    return strategy.action + "_t" + "{" + ",".join(names[i] for i in block) + "}"


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
        game = entry.build(**params)
        return game, entry.player_names, entry
    if Path(source).exists():
        if params:
            raise ValueError("--param only applies to catalog games")
        game, names = load_game(source)
        return game, names, None
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


def _default_equilibrium(game: CoalitionGame, config: SolverConfig) -> EquilibriumResult:
    """First pure equilibrium, else a mixed one by the cheapest route."""
    result = solver.first_pure_equilibrium(game)
    if result is not None:
        return result
    if game.n_players == 2:
        found = solver.mixed_nash_2p_support_enum(game, config)
        if found.equilibria:
            return found.equilibria[0]
    return solver.mixed_nash_iterative(game, config)


def _supplied_equilibrium(game: CoalitionGame, mixed: MixedProfile) -> EquilibriumResult:
    report = solver.verify_epsilon_nash(game, mixed)
    return EquilibriumResult(
        profile=mixed,
        expected_payoffs=report.expected,
        max_regret=report.max_regret,
        method="supplied",
        is_equilibrium=report.passed,
    )


def _equilibrium_entry(game: CoalitionGame, names, result: EquilibriumResult) -> dict:
    mixed = result.profile
    entry: dict[str, Any] = {
        "method": result.method,
        "is_equilibrium": result.is_equilibrium,
        "degenerate": result.degenerate,
        "weights": [[_fr(w) for w in row] for row in mixed.weights],
        "support": [
            [
                _strategy_label(game, names, i, game.strategy_sets[i][j])
                for j in mixed.support(i)
            ]
            for i in range(game.n_players)
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


def _equilibrium_lines(game: CoalitionGame, names, index: int, result: EquilibriumResult) -> list[str]:
    mixed = result.profile
    lines = []
    if mixed.is_pure:
        profile = tuple(mixed.support(i)[0] for i in range(game.n_players))
        labels = ", ".join(
            _strategy_label(game, names, i, game.strategy_sets[i][profile[i]])
            for i in range(game.n_players)
        )
        head = f"#{index} [{result.method}] ({labels})"
    else:
        parts = []
        for i in range(game.n_players):
            weights = " ".join(
                f"{_strategy_label(game, names, i, game.strategy_sets[i][j])}={_show(mixed.weights[i][j])}"
                for j in mixed.support(i)
            )
            parts.append(f"{names[i]}: {weights}")
        head = f"#{index} [{result.method}] " + " | ".join(parts)
    pay = ", ".join(_show(v) for v in result.expected_payoffs)
    head += f" -> payoffs ({pay}), regret {_show(result.max_regret)}"
    if result.degenerate:
        head += ", degenerate"
    if not result.is_equilibrium:
        head += ", NOT verified"
    lines.append(head)
    if result.is_equilibrium:
        dist = analysis.equilibrium_partitions(game, result)
        rendered = ", ".join(
            f"{_structure_text(s, names)} {_show(dist.probability(s))}"
            for s in dist.partitions
        )
        lines.append(f"    partitions: {rendered}")
    return lines


def _matrix_lines(game: CoalitionGame, names) -> list[str]:
    """Payoff grid with the realized structure in every cell."""
    rows = [
        _strategy_label(game, names, 0, s) for s in game.strategy_sets[0]
    ]
    cols = [
        _strategy_label(game, names, 1, s) for s in game.strategy_sets[1]
    ]
    cells = []
    for i in range(len(rows)):
        line = []
        for j in range(len(cols)):
            pay = game.payoff((i, j))
            structure = game.realized_partition((i, j))
            line.append(
                f"({_fr(pay[0])},{_fr(pay[1])}) {_structure_text(structure, names)}"
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


def _emit(args, document: dict, lines: list[str]) -> int:
    if args.json:
        sys.stdout.write(dumps(document) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# -- subcommands ---------------------------------------------------------

def cmd_enumerate(args) -> int:
    n, cap = args.n, args.K if args.K is not None else args.n
    count = restricted_bell(n, cap)
    names = _default_names(n)
    document: dict[str, Any] = {
        "schema_version": 1,
        "command": "enumerate",
        "n": n,
        "K": cap,
        "count": count,
    }
    if args.count_only:
        return _emit(args, document, [str(count)])
    family = enumerate_partitions(n, cap)
    document["partitions"] = [_structure_literal(s, names) for s in family]
    lines = [f"p({n},{cap}) = {count}"]
    for i, s in enumerate(family):
        lines.append(f"{i:>3}  {_structure_text(s, names)}")
    return _emit(args, document, lines)


def cmd_solve(args) -> int:
    params = _parse_params(args.param)
    game, names, entry = _load_source(args.source, params)
    config = _make_config(args)
    truncated = False
    converged = True
    if args.method == "pure":
        results = list(solver.pure_nash_enumerate(game))
        method = solver.PURE
    elif args.method == "support":
        found = solver.mixed_nash_2p_support_enum(game, config)
        results = list(found.equilibria)
        truncated = found.truncated
        method = solver.SUPPORT
    else:
        one = solver.mixed_nash_iterative(game, config)
        results = [one]
        converged = one.is_equilibrium
        method = solver.ITERATIVE

    document: dict[str, Any] = {
        "schema_version": 1,
        "command": "solve",
        "source": args.source,
        "players": list(names),
        "K": game.max_coalition,
        "method": method,
        "equilibria": [_equilibrium_entry(game, names, r) for r in results],
    }
    if params:
        document["parameters"] = {k: _fr(v) for k, v in sorted(params.items())}
    if truncated:
        document["truncated"] = True
    if not converged:
        document["converged"] = False

    lines = [
        f"{args.source}: {game.n_players} players, K={game.max_coalition}, method {method}"
    ]
    if game.n_players == 2:
        lines.append("")
        lines.extend(_matrix_lines(game, names))
    lines.append("")
    if not results:
        lines.append("no equilibria found")
    shown = results if len(results) <= 24 else results[:24]
    for i, result in enumerate(shown, start=1):
        lines.extend(_equilibrium_lines(game, names, i, result))
    if len(results) > len(shown):
        lines.append(f"... and {len(results) - len(shown)} more ({len(results)} total)")
    if truncated:
        lines.append("note: support search truncated by max_support cap")
    if not converged:
        lines.append("note: iteration budget exhausted without convergence")
    return _emit(args, document, lines)


def cmd_analyze(args) -> int:
    params = _parse_params(args.param)
    game, names, entry = _load_source(args.source, params)
    config = _make_config(args)
    if args.profile:
        mixed = load_profile(args.profile, game)
        result = _supplied_equilibrium(game, mixed)
    else:
        result = _default_equilibrium(game, config)
    report = solver.verify_epsilon_nash(game, result.profile)

    document: dict[str, Any] = {
        "schema_version": 1,
        "command": "analyze",
        "source": args.source,
        "players": list(names),
        "K": game.max_coalition,
        "verification": {
            "expected": [_fr(v) for v in report.expected],
            "best_response": [_fr(v) for v in report.best_response],
            "regrets": [_fr(v) for v in report.regrets],
            "max_regret": _fr(report.max_regret),
            "passed": report.passed,
        },
        "equilibrium": _equilibrium_entry(game, names, result),
    }
    lines = [f"{args.source}: {game.n_players} players, K={game.max_coalition}"]
    lines.extend(_equilibrium_lines(game, names, 1, result))
    lines.append(f"verified: {'yes' if report.passed else 'no'} (max regret {_show(report.max_regret)})")

    if result.is_equilibrium:
        stochastic = analysis.classify_stochastic(game, result)
        document["stochastic"] = stochastic
        lines.append(f"stochastic: {'yes' if stochastic else 'no'}")
        if args.coalition:
            coalition = _parse_coalition(args.coalition, names)
            coop = analysis.is_complete_cooperation(game, result, coalition)
            document["cooperation"] = {
                "coalition": [names[i] for i in coalition],
                "ex_ante": coop.ex_ante,
                "ex_post": coop.ex_post,
                "complete": coop.complete,
            }
            shown = ",".join(names[i] for i in coalition)
            lines.append(
                f"cooperation {{{shown}}}: "
                f"{'complete' if coop.complete else 'incomplete'} "
                f"(ex ante {'yes' if coop.ex_ante else 'no'}, "
                f"ex post {'yes' if coop.ex_post else 'no'})"
            )
    else:
        lines.append("note: profile is not an equilibrium; no further classification")
    return _emit(args, document, lines)


def _parse_coalition(raw: str, names: Sequence[str]):
    from .partitions import Coalition

    members = []
    for part in raw.split(","):
        part = part.strip()
        if part not in names:
            known = ", ".join(names)
            raise ValueError(f"unknown player {part!r}; players are: {known}")
        members.append(list(names).index(part))
    if len(set(members)) != len(members):
        raise ValueError("coalition members must be distinct")
    return Coalition.of(*members)


def cmd_stability(args) -> int:
    params = _parse_params(args.param)
    if len(args.source) == 1:
        game, names, entry = _load_source(args.source[0], params)
        family = [game.restrict(k) for k in range(args.K0, game.max_coalition + 1)]
    else:
        if params:
            raise ValueError("--param only applies to catalog games")
        loaded = [load_game(path) for path in args.source]
        names = loaded[0][1]
        family = [g for g, _ in loaded]
    family.sort(key=lambda g: g.max_coalition)
    base = next((g for g in family if g.max_coalition == args.K0), None)
    if base is None:
        raise ValueError(f"no family member has K={args.K0}")
    config = _make_config(args)
    if args.profile:
        mixed = load_profile(args.profile, base)
        result = _supplied_equilibrium(base, mixed)
    else:
        result = _default_equilibrium(base, config)
    report = analysis.stability_K_star(family, args.K0, result, config)

    source_text = " ".join(args.source)
    document: dict[str, Any] = {
        "schema_version": 1,
        "command": "stability",
        "source": source_text,
        "K0": report.K0,
        "K_star": report.K_star,
        "checks": [
            {"K": c.K, "payoff_ok": c.payoff_ok, "domain_ok": c.domain_ok, "passed": c.passed}
            for c in report.per_K_checks
        ],
        "diagnostics": [
            {
                "K": d.K,
                "profile": list(d.profile),
                "payoffs": [_fr(v) for v in d.payoffs],
            }
            for d in report.diagnostics
        ],
        "equilibrium": _equilibrium_entry(base, names, result),
    }
    lines = [f"{source_text}: K0={report.K0} -> K* = {report.K_star}"]
    lines.extend(_equilibrium_lines(base, names, 1, result))
    for check in report.per_K_checks:
        verdict = "pass" if check.passed else "FAIL"
        lines.append(
            f"  K={check.K}: payoffs {'ok' if check.payoff_ok else 'fail'}, "
            f"domains {'ok' if check.domain_ok else 'fail'} -> {verdict}"
        )
    for d in report.diagnostics:
        game_at = next(g for g in family if g.max_coalition == d.K)
        labels = ", ".join(
            _strategy_label(game_at, names, i, game_at.strategy_sets[i][d.profile[i]])
            for i in range(game_at.n_players)
        )
        pay = ", ".join(_fr(v) for v in d.payoffs)
        lines.append(
            f"  diagnostic at K={d.K}: dominating pure equilibrium ({labels}) with payoffs ({pay})"
        )
    return _emit(args, document, lines)


def cmd_catalog(args) -> int:
    if args.id:
        key = ALIASES.get(args.id, args.id)
        entry = get_entry(key)
        document = _catalog_entry_dict(entry)
        document.update({"schema_version": 1, "command": "catalog"})
        lines = [
            f"{entry.id}: {entry.description}",
            f"  players: {', '.join(entry.player_names)} ({entry.n_players})",
            f"  K: {entry.max_coalition}",
        ]
        if entry.parameters:
            rendered = ", ".join(f"{k}={_fr(v)}" for k, v in sorted(entry.parameters))
            lines.append(f"  parameters: {rendered}")
        return _emit(args, document, lines)
    document = {
        "schema_version": 1,
        "command": "catalog",
        "entries": [_catalog_entry_dict(e) for e in CATALOG.values()],
    }
    lines = []
    for entry in CATALOG.values():
        lines.append(
            f"{entry.id:<14} {entry.n_players} players, K={entry.max_coalition}  {entry.description}"
        )
    return _emit(args, document, lines)


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
    p.add_argument("--json", action="store_true", help="machine-readable output")
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
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("analyze", help="inspect one equilibrium of a game")
    p.add_argument("source", help="catalog id or game file path")
    p.add_argument("--coalition", default=None, metavar='"A,B"', help="players to test for cooperation")
    p.add_argument("--profile", default=None, help="mixed profile file to analyze")
    p.add_argument("--param", action="append", metavar="NAME=VALUE[,NAME=VALUE...]")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("stability", help="largest cap an equilibrium survives")
    p.add_argument("source", nargs="+", help="catalog id, or one game file per cap")
    p.add_argument("--K0", type=int, required=True, help="cap the equilibrium is computed at")
    p.add_argument("--profile", default=None, help="mixed profile file for the base game")
    p.add_argument("--param", action="append", metavar="NAME=VALUE[,NAME=VALUE...]")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("catalog", help="list built-in games")
    p.add_argument("--id", default=None, help="show one entry in detail")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_catalog)

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
