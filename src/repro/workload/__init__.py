"""Workload: load profiles and client drivers.

Public surface:

- :class:`ClosedLoopClient` — the paper's 10,000-request cycle driver
- :class:`OpenLoopClient` — rate-driven arrivals (Fig. 6)
- :class:`WorkloadStats` — per-client outcome; :func:`latency_stats`
  — the one mean / jitter definition
- profiles: :class:`ConstantRate`, :class:`StepProfile`,
  :class:`RampProfile`, :class:`SpikeProfile`
"""

from repro.workload.clients import (
    ClosedLoopClient,
    OpenLoopClient,
    ThinkTimeClient,
    WorkloadStats,
    latency_stats,
)
from repro.workload.profiles import (
    ConstantRate,
    RampProfile,
    RateProfile,
    SpikeProfile,
    StepProfile,
)

__all__ = [
    "ClosedLoopClient",
    "ConstantRate",
    "OpenLoopClient",
    "RampProfile",
    "RateProfile",
    "SpikeProfile",
    "StepProfile",
    "ThinkTimeClient",
    "WorkloadStats",
    "latency_stats",
]
