"""Set-up shared by every test module."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True, scope="session")
def _package_importable_in_child_processes():
    """Put src/ on PYTHONPATH, as pyproject's pythonpath does for this process.

    Tests that run ``python -m coalition_forge...`` in a child process
    then work from a plain checkout as well as from an install.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
        yield
