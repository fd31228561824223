"""Monitoring: sensors, replicated state and contracts.

Public surface:

- :class:`SlidingWindow` — time-windowed aggregation
- :class:`MetricsSnapshot` — the metrics contracts are evaluated
  against — and :class:`RateSensor`, the arrival-rate sensor
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
from repro.monitoring.sensors import MetricsSnapshot, RateSensor
from repro.monitoring.windows import SlidingWindow

__all__ = [
    "Contract",
    "ContractEvent",
    "ContractMonitor",
    "ContractStatus",
    "MetricsSnapshot",
    "RateSensor",
    "ReplicatedState",
    "SlidingWindow",
    "StateUpdate",
]
