"""The disabled observers cost no call into their packages.

Every instrumentation site guards on ``telemetry.enabled`` or
``journal.enabled`` before doing any recording work, so a run with both
observers off must never enter a function defined under
``src/repro/telemetry/`` or ``src/repro/journal/``.  The check reads
exact call counts from :mod:`cProfile` (not host time), so it is
noise-free.
"""

import cProfile
import os
import pstats

import pytest

import repro.journal
import repro.telemetry
from repro.experiments import run_replicated_load
from repro.replication import ReplicationStyle

TELEMETRY_DIR = os.path.dirname(os.path.abspath(repro.telemetry.__file__))
JOURNAL_DIR = os.path.dirname(os.path.abspath(repro.journal.__file__))


def _package_calls(stats: pstats.Stats, package_dir: str):
    """``{"file:line(function)": calls}`` for code in ``package_dir``."""
    calls = {}
    for (filename, line, function), row in stats.stats.items():
        path = os.path.abspath(filename)
        if os.path.dirname(path) == package_dir:
            calls[f"{os.path.basename(path)}:{line}({function})"] = row[1]
    return calls


def _profiled_load(style, **observers):
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_replicated_load(style, n_replicas=2, n_clients=2,
                                     n_requests=20, seed=3, **observers)
    finally:
        profile.disable()
    return result, pstats.Stats(profile)


@pytest.mark.parametrize("style", [ReplicationStyle.ACTIVE,
                                   ReplicationStyle.WARM_PASSIVE])
def test_disabled_run_makes_no_telemetry_calls(style):
    result, stats = _profiled_load(style, telemetry=False)
    assert result.telemetry is None
    assert result.completed == 40
    assert _package_calls(stats, TELEMETRY_DIR) == {}


@pytest.mark.parametrize("style", [ReplicationStyle.ACTIVE,
                                   ReplicationStyle.WARM_PASSIVE])
def test_disabled_run_makes_no_journal_calls(style):
    result, stats = _profiled_load(style, journal=False)
    assert result.journal is None
    assert result.completed == 40
    assert _package_calls(stats, JOURNAL_DIR) == {}


def test_enabled_run_is_seen_by_the_probe():
    """Guard against a vacuous pass: the same probe does see calls
    when telemetry is on."""
    _, stats = _profiled_load(ReplicationStyle.ACTIVE, telemetry=True)
    calls = _package_calls(stats, TELEMETRY_DIR)
    assert any(name.endswith("(open_trace)") for name in calls)


def test_journal_enabled_run_is_seen_by_the_probe():
    """The same guard for the journal: with it on, the probe sees
    :meth:`Journal.record`."""
    _, stats = _profiled_load(ReplicationStyle.ACTIVE, journal=True)
    calls = _package_calls(stats, JOURNAL_DIR)
    assert any(name.startswith("events.py:") and name.endswith("(record)")
               for name in calls)
