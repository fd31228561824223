"""Behavioural contracts and warnings.

Section 2 requires "defining contracts for the specified behavior of
the overall system"; Section 3.1 adds that the replicator "generates
warnings when the operating conditions are about to change" and, if a
contract "can no longer be honored", offers degraded alternatives or
notifies the operator.

A :class:`Contract` is a named predicate over metric snapshots with a
margin: inside the margin a *warning* fires (conditions about to
change); beyond the limit a *violation* fires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, Rule, check_fields
from repro.monitoring.sensors import MetricsSnapshot

#: The words ``metric`` and ``bound`` may hold.
_CHOICES = {"metric": tuple(f.name for f in fields(MetricsSnapshot)
                            if f.name != "time"),
            "bound": ("upper", "lower")}


class ContractStatus(enum.Enum):
    """Honoured / warning / violated state of a contract."""
    HONOURED = "honoured"
    WARNING = "warning"
    VIOLATED = "violated"


@dataclass(frozen=True)
class Contract:
    """A bound on one metric, with a warning margin on the correct side.

    ``metric`` names a :class:`MetricsSnapshot` field.  With
    ``bound="upper"`` (latency, jitter) the contract is
    violated when the metric exceeds ``limit`` and in warning state
    when it exceeds ``limit * warning_fraction``.  With
    ``bound="lower"`` (availability, throughput — properties that must
    stay *above* a floor) the contract is violated when the metric
    drops below ``limit``, and the warning band of the same relative
    width sits *above* the limit: warning when the metric drops below
    ``limit * (2 - warning_fraction)``.
    """

    name: str
    metric: str
    limit: float
    warning_fraction: float = 0.8
    bound: str = "upper"

    def __post_init__(self) -> None:
        check_fields(vars(self), (
            Rule(("limit",), float, gt=0),
            Rule(("warning_fraction",), float, gt=0, le=1)))
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigurationError(f"{name} must be one of {choices}, "
                                         f"not {getattr(self, name)!r}")

    @property
    def warning_threshold(self) -> float:
        """Where the warning band starts (inside the honoured region)."""
        if self.bound == "upper":
            return self.limit * self.warning_fraction
        return self.limit * (2.0 - self.warning_fraction)

    def evaluate(self, snapshot: MetricsSnapshot) -> ContractStatus:
        """Status of this contract against one snapshot."""
        value = getattr(snapshot, self.metric)
        if self.bound == "upper":
            if value > self.limit:
                return ContractStatus.VIOLATED
            if value > self.warning_threshold:
                return ContractStatus.WARNING
        else:
            if value < self.limit:
                return ContractStatus.VIOLATED
            if value < self.warning_threshold:
                return ContractStatus.WARNING
        return ContractStatus.HONOURED


@dataclass(frozen=True)
class ContractEvent:
    """A status transition of one contract."""

    time: float
    contract: str
    status: ContractStatus
    value: float


class ContractMonitor:
    """Evaluates a set of contracts against successive snapshots and
    records status *transitions* in :attr:`events`."""

    def __init__(self, contracts: Optional[List[Contract]] = None,
                 journal: Optional[object] = None,
                 host: str = "monitor"):
        self.contracts: List[Contract] = list(contracts or [])
        self._status: Dict[str, ContractStatus] = {}
        self.events: List[ContractEvent] = []
        #: Optional dependability journal; transitions are recorded as
        #: ``contract.<status>`` events attributed to ``host``.
        self.journal = journal
        self.host = host

    def add(self, contract: Contract) -> None:
        """Register another contract (names must be unique)."""
        if any(c.name == contract.name for c in self.contracts):
            raise ConfigurationError(
                f"duplicate contract name: {contract.name}")
        self.contracts.append(contract)

    def evaluate(self, snapshot: MetricsSnapshot) -> Dict[str, ContractStatus]:
        """Evaluate all contracts; emit events on transitions."""
        result = {}
        for contract in self.contracts:
            status = contract.evaluate(snapshot)
            result[contract.name] = status
            previous = self._status.get(contract.name,
                                        ContractStatus.HONOURED)
            if status is not previous:
                event = ContractEvent(
                    time=snapshot.time, contract=contract.name,
                    status=status,
                    value=getattr(snapshot, contract.metric))
                self.events.append(event)
                if self.journal is not None and self.journal.enabled:
                    self.journal.record(
                        snapshot.time, self.host, "monitor",
                        f"contract.{status.value}",
                        contract=contract.name, metric=contract.metric,
                        value=getattr(snapshot, contract.metric),
                        limit=contract.limit, bound=contract.bound)
            self._status[contract.name] = status
        return result

    def status(self, name: str) -> ContractStatus:
        """Last known status of the named contract."""
        return self._status.get(name, ContractStatus.HONOURED)

    @property
    def all_honoured(self) -> bool:
        return all(s is ContractStatus.HONOURED
                   for s in self._status.values())
