"""Monitoring: sensors, replicated state and contracts.

Public surface:

- :class:`SlidingWindow` — time-windowed aggregation (each server
  replicator's arrival-rate sensor is one)
- :class:`MetricsSnapshot` — the metrics contracts are evaluated
  against
- :class:`ReplicatedState` — the identically-replicated system-state
  object adaptation decisions are computed from
- :class:`Contract`, :class:`ContractMonitor`, :class:`ContractStatus`,
  :class:`ContractEvent` — behavioural contracts and warnings
"""

from repro.monitoring.contracts import (
    Contract,
    ContractEvent,
    ContractMonitor,
    ContractStatus,
)
from repro.monitoring.replicated_state import ReplicatedState, StateUpdate
from repro.monitoring.sensors import MetricsSnapshot
from repro.monitoring.windows import SlidingWindow

__all__ = [
    "Contract",
    "ContractEvent",
    "ContractMonitor",
    "ContractStatus",
    "MetricsSnapshot",
    "ReplicatedState",
    "SlidingWindow",
    "StateUpdate",
]
