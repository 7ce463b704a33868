"""The benchmark's traced targets exist in the package.

perfbench/spans.py wraps named functions and methods of coalition_forge
when a run asks for per-layer times (--trace 1); a target the package no
longer has stops that run. The spans module is read from source, so the
check writes nothing under perfbench/.
"""

from __future__ import annotations

import importlib
import runpy
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
TARGETS = runpy.run_path(str(SPANS))["TARGETS"]


def owner_of(path: str):
    """The module or class a dotted path names, importing what it needs."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, name = path.rpartition(".")
        return getattr(importlib.import_module(module), name)


def test_targets_are_found():
    assert len(TARGETS) > 20


@pytest.mark.parametrize("target", TARGETS, ids=lambda t: f"{t.owner}.{t.attr}")
def test_target_resolves_to_an_attribute(target):
    # The tracer reads the attribute from the owner's own namespace.
    assert callable(vars(owner_of(target.owner)).get(target.attr))
