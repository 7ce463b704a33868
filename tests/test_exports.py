"""The package's public names, and the CLI's boundary with the solver."""

from __future__ import annotations

import ast
from pathlib import Path

import coalition_forge

CLI = Path(coalition_forge.__file__).resolve().parent / "cli.py"


def test_all_is_sorted_unique_and_resolves():
    names = list(coalition_forge.__all__)
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(coalition_forge, name)]
    assert missing == []


def test_cli_reads_no_solver_private():
    """cli.py imports no underscore name from solver and reads none off the module."""
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("solver", "coalition_forge.solver"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "solver"
            and node.attr.startswith("_")
        ):
            private.append(f"solver.{node.attr}")
    assert private == []
