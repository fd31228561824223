"""Smoke tests: every shipped example must run green.

Examples are documentation that executes; these tests keep them from
rotting.  Each runs in a subprocess exactly as a user would run it.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"

ALL_EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_expected_examples_present():
    assert "quickstart.py" in ALL_EXAMPLES
    assert "adaptive_replication.py" in ALL_EXAMPLES
    assert "scalability_tuning.py" in ALL_EXAMPLES
    assert "mission_modes.py" in ALL_EXAMPLES
    assert len(ALL_EXAMPLES) >= 4


@pytest.mark.parametrize("example", ALL_EXAMPLES)
def test_example_runs_clean(example):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / example)],
        capture_output=True, text=True, timeout=900)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip(), "example produced no output"


def test_quickstart_shows_failover():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "quickstart.py")],
        capture_output=True, text=True, timeout=900)
    assert "crashing replica" in result.stdout
    assert "client retries so far: 0" in result.stdout


def test_scalability_example_reproduces_table2_pattern():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "scalability_tuning.py")],
        capture_output=True, text=True, timeout=900)
    out = result.stdout
    # The synthesized table follows the paper's selections.
    assert "A(3)" in out and "P(3)" in out and "P(2)" in out
    assert "operator is notified" in out


def test_adaptive_example_reports_gain():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "adaptive_replication.py")],
        capture_output=True, text=True, timeout=900)
    assert "gain +" in result.stdout
    assert "warm_passive -> active" in result.stdout


def test_mission_modes_prints_journal_timeline():
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / "mission_modes.py")],
        capture_output=True, text=True, timeout=900)
    assert result.returncode == 0, result.stderr[-2000:]
    for tag in ("FAULT", "SWITCH", "FAILOVER"):
        assert f"] {tag} " in result.stdout, tag
