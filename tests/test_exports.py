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


def private_reads(module: str) -> list[str]:
    """The underscore names cli.py imports from module or reads off it."""
    tree = ast.parse(CLI.read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"coalition_forge.{module}"):
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == module
            and node.attr.startswith("_")
        ):
            private.append(f"{module}.{node.attr}")
    return private


def test_cli_reads_no_solver_private():
    """cli.py imports no underscore name from solver and reads none off the module."""
    assert private_reads("solver") == []


def test_cli_reads_no_partitions_private():
    """cli.py lists partitions through labelled_blocks, not a family's leader rows."""
    assert private_reads("partitions") == []
    assert "_leaders" not in CLI.read_text(encoding="utf-8")
