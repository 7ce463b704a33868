"""Every demo script and every README example runs to completion."""

from __future__ import annotations

import io
import re
import runpy
import shlex
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from coalition_forge.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_block(heading, fence):
    """The first fenced block of the given kind under a README heading."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(f"^```{fence}\n(.*?)^```$", section, re.S | re.M).group(1)


# The analyze example reads rotation.json, a profile file the repository does not hold.
README_COMMANDS = [
    line
    for line in readme_block("Command line", "").splitlines()
    if "rotation.json" not in line
]


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path):
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    assert out.getvalue().strip()


def test_readme_quickstart_runs():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(readme_block("Library quickstart", "python"), {})
    assert out.getvalue().strip()


def test_readme_commands_are_found():
    assert len(README_COMMANDS) >= 8
    assert all(line.startswith("coalition-forge ") for line in README_COMMANDS)


@pytest.mark.parametrize("line", README_COMMANDS)
def test_readme_command_runs(line):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(shlex.split(line)[1:]) == 0
    assert out.getvalue().strip()
