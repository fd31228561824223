"""Discrete-event simulation substrate.

Public surface:

- :class:`Simulator` — event-heap kernel with a microsecond clock
- :class:`Host`, :class:`Process`, :class:`Cpu` — machine model
- :class:`Actor` — timer-managed protocol component
- :class:`SubstrateCalibration` and friends — paper-anchored cost models
"""

from repro.sim.actor import Actor
from repro.sim.config import (
    GcsCalibration,
    HostCalibration,
    InterposeCalibration,
    JournalConfig,
    NetworkCalibration,
    OrbCalibration,
    PAPER_BANDWIDTH_LIMIT_MBPS,
    PAPER_COST_WEIGHT,
    PAPER_FIG3_BREAKDOWN,
    PAPER_LATENCY_LIMIT_US,
    ReplicationCalibration,
    SubstrateCalibration,
    TelemetryConfig,
    default_calibration,
)
from repro.sim.host import Cpu, Host, Process
from repro.sim.kernel import (
    NULL_HISTORY,
    NULL_JOURNAL,
    NULL_TELEMETRY,
    NullHistory,
    NullJournal,
    NullTelemetry,
    Simulator,
)

__all__ = [
    "Actor",
    "Cpu",
    "GcsCalibration",
    "Host",
    "HostCalibration",
    "InterposeCalibration",
    "JournalConfig",
    "NULL_HISTORY",
    "NULL_JOURNAL",
    "NULL_TELEMETRY",
    "NetworkCalibration",
    "NullHistory",
    "NullJournal",
    "NullTelemetry",
    "OrbCalibration",
    "PAPER_BANDWIDTH_LIMIT_MBPS",
    "PAPER_COST_WEIGHT",
    "PAPER_FIG3_BREAKDOWN",
    "PAPER_LATENCY_LIMIT_US",
    "Process",
    "ReplicationCalibration",
    "Simulator",
    "SubstrateCalibration",
    "TelemetryConfig",
    "default_calibration",
]
