"""Every example runs to completion as a script.

The examples are the package's worked scenarios (and the only callers
outside the tests of some config fields), so each one runs here as
``__main__``, in-process, the way ``python examples/<name>.py`` runs it.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
