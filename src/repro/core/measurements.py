"""Empirical profile data: the input to high-level knob synthesis.

"The first step in implementing a scalability knob is to gather enough
data about the system's behavior in order to construct a policy"
(Section 4.3).  A :class:`Profile` is that data: one
:class:`Measurement` per (configuration, client count) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import PolicyError, Rule, check_fields
from repro.replication.styles import ReplicationStyle


@dataclass(frozen=True, order=True)
class ConfigPoint:
    """One server configuration: replication style + redundancy level.

    Rendered in the paper's Table 2 notation, e.g. ``A(3)`` for three
    active replicas.
    """

    style: ReplicationStyle
    n_replicas: int

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise PolicyError("a configuration needs at least one replica")

    @property
    def faults_tolerated(self) -> int:
        """Crash faults survivable: replicas minus one (requirement 3's
        currency in Table 2)."""
        return self.n_replicas - 1

    @property
    def label(self) -> str:
        return f"{self.style.short}({self.n_replicas})"

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Measurement:
    """Measured behaviour of one configuration under one client load."""

    config: ConfigPoint
    n_clients: int
    latency_us: float
    jitter_us: float
    bandwidth_mbps: float
    throughput_per_s: float = 0.0

    def __post_init__(self) -> None:
        check_fields(vars(self), (
            Rule(("n_clients",), int, ge=1),
            Rule(("latency_us", "jitter_us", "bandwidth_mbps",
                  "throughput_per_s"), float, ge=0)), PolicyError)


class Profile:
    """A queryable collection of measurements."""

    def __init__(self, measurements: Iterable[Measurement] = ()):
        self._data: Dict[Tuple[ConfigPoint, int], Measurement] = {}
        for measurement in measurements:
            self.add(measurement)

    def add(self, measurement: Measurement) -> None:
        """Insert or replace one measurement."""
        key = (measurement.config, measurement.n_clients)
        self._data[key] = measurement

    def get(self, config: ConfigPoint,
            n_clients: int) -> Optional[Measurement]:
        """Measurement for (config, n_clients), or None."""
        return self._data.get((config, n_clients))

    def for_clients(self, n_clients: int) -> List[Measurement]:
        """All configurations measured at one client count."""
        return sorted(
            (m for (c, n), m in self._data.items() if n == n_clients),
            key=lambda m: (m.config.style.value, m.config.n_replicas))

    def configs(self) -> List[ConfigPoint]:
        """All measured configurations, sorted."""
        return sorted({config for config, _ in self._data},
                      key=lambda c: (c.style.value, c.n_replicas))

    def client_counts(self) -> List[int]:
        """All measured client counts, sorted."""
        return sorted({n for _, n in self._data})

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[Measurement]:
        return iter(self._data.values())

    # ------------------------------------------------------------------
    # Normalization (Fig. 9: values scaled to their maxima)
    # ------------------------------------------------------------------
    def maxima(self) -> Tuple[float, float, int]:
        """(max latency, max bandwidth, max faults tolerated)."""
        if not self._data:
            raise PolicyError("empty profile")
        max_latency = max(m.latency_us for m in self)
        max_bandwidth = max(m.bandwidth_mbps for m in self)
        max_faults = max(m.config.faults_tolerated for m in self)
        return max_latency, max_bandwidth, max_faults
