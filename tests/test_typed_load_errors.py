"""Gate: no module on the CLI's load path raises a bare built-in error.

Every file the CLI loads (journals, SLO and campaign specs, repro
artifacts) and every value those files set passes through these
modules.  A bare ``ValueError``, ``TypeError`` or ``KeyError`` raised
there escapes ``repro.cli.main``'s one typed-error mapping as a
traceback, so the modules raise :mod:`repro.errors` types only.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

LOAD_PATH = ("journal/io.py", "journal/events.py", "slo/spec.py",
             "campaign/spec.py", "check/artifact.py", "check/scenario.py",
             "cluster/partition.py", "net/topology.py", "sim/config.py",
             "workload/profiles.py")

BARE = {"ValueError", "TypeError", "KeyError"}


def bare_raises(source: str):
    """Line numbers of ``raise ValueError(...)`` and the like."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            if isinstance(exc, ast.Name) and exc.id in BARE:
                yield node.lineno


@pytest.mark.parametrize("module", LOAD_PATH)
def test_load_path_raises_typed_errors_only(module):
    lines = sorted(bare_raises((SRC / module).read_text()))
    assert not lines, (f"{module} raises a bare built-in error at "
                       f"line(s) {lines}")


def test_the_gate_sees_a_bare_raise():
    source = "def f():\n    raise ValueError('x')\n\nraise KeyError\n"
    assert sorted(bare_raises(source)) == [2, 4]
