"""The disabled telemetry path costs no call into :mod:`repro.telemetry`.

Every instrumentation site guards on ``telemetry.enabled`` before doing
any telemetry work, so a run with telemetry off must never enter a
function defined under ``src/repro/telemetry/``.  The check reads exact
call counts from :mod:`cProfile` (not host time), so it is noise-free.
"""

import cProfile
import os
import pstats

import pytest

import repro.telemetry
from repro.experiments import run_replicated_load
from repro.replication import ReplicationStyle

TELEMETRY_DIR = os.path.dirname(os.path.abspath(repro.telemetry.__file__))


def _telemetry_calls(stats: pstats.Stats):
    """``{"file:line(function)": calls}`` for telemetry-package code."""
    calls = {}
    for (filename, line, function), row in stats.stats.items():
        path = os.path.abspath(filename)
        if os.path.dirname(path) == TELEMETRY_DIR:
            calls[f"{os.path.basename(path)}:{line}({function})"] = row[1]
    return calls


@pytest.mark.parametrize("style", [ReplicationStyle.ACTIVE,
                                   ReplicationStyle.WARM_PASSIVE])
def test_disabled_run_makes_no_telemetry_calls(style):
    profile = cProfile.Profile()
    profile.enable()
    try:
        result = run_replicated_load(style, n_replicas=2, n_clients=2,
                                     n_requests=20, seed=3,
                                     telemetry=False)
    finally:
        profile.disable()
    assert result.telemetry is None
    assert result.completed == 40
    assert _telemetry_calls(pstats.Stats(profile)) == {}


def test_enabled_run_is_seen_by_the_probe():
    """Guard against a vacuous pass: the same probe does see calls
    when telemetry is on."""
    profile = cProfile.Profile()
    profile.enable()
    try:
        run_replicated_load(ReplicationStyle.ACTIVE, n_replicas=2,
                            n_clients=2, n_requests=20, seed=3,
                            telemetry=True)
    finally:
        profile.disable()
    calls = _telemetry_calls(pstats.Stats(profile))
    assert any("start_trace" in name for name in calls)
