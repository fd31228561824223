"""Shared fixtures for the paper-reproduction benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation section and prints the rows/series the paper reports.
Absolute numbers come from the simulated substrate (calibrated to the
paper's Fig. 3 component costs); assertions check the paper's *shape*
claims — who wins, by roughly what factor, where crossovers fall.

``REPRO_BENCH_REQUESTS`` scales the per-client request cycle (default
150; the paper used 10,000 — larger values sharpen the averages, and
the runtime grows linearly with them: passive checkpoints ship one
session per client, not a reply per request).
"""

from __future__ import annotations

import os

import pytest

from repro.core import Profile
from repro.experiments import build_profile

#: Requests per client per configuration in the Fig. 7 sweep.
BENCH_REQUESTS = int(os.environ.get("REPRO_BENCH_REQUESTS", "150"))


@pytest.fixture(scope="session")
def fig7_profile():
    """The Fig. 7 measurement sweep, shared by the fig7 / fig8 /
    table2 / fig9 benchmarks (one expensive run, many consumers)."""
    profile, results = build_profile(
        client_counts=(1, 2, 3, 4, 5), replica_counts=(2, 3),
        n_requests=BENCH_REQUESTS, seed=0)
    return profile, results


def print_header(title: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
