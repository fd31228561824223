"""Workload drivers: closed-loop and open-loop clients.

The paper's evaluation uses "a CORBA client-server test application
that processes a cycle of 10,000 requests" — a closed loop: each
client sends the next request as soon as the previous reply arrives.
Figure 6 instead needs an open-loop (rate-driven) arrival process that
follows a time-varying profile.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.orb.giop import GiopReply
from repro.sim.actor import Actor
from repro.workload.profiles import RateProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.testbed import ClientStack


def latency_stats(values: Sequence[float]) -> Tuple[float, float]:
    """``(mean, jitter)`` of a latency sample, jitter being the
    population standard deviation — the one definition every result
    record and :class:`WorkloadStats` report."""
    if not values:
        return 0.0, 0.0
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


@dataclass
class WorkloadStats:
    """Outcome of one client's run."""

    sent: int = 0
    completed: int = 0
    latencies_us: List[float] = field(default_factory=list)
    completion_times: List[float] = field(default_factory=list)

    @property
    def mean_latency_us(self) -> float:
        return latency_stats(self.latencies_us)[0]

    @property
    def jitter_us(self) -> float:
        return latency_stats(self.latencies_us)[1]

    def throughput_per_s(self, duration_us: float) -> float:
        """Completions per second over ``duration_us``."""
        if duration_us <= 0:
            return 0.0
        return self.completed / duration_us * 1_000_000.0


class ClosedLoopClient(Actor):
    """The paper's micro-benchmark: a cycle of N requests, each sent
    when the previous reply returns."""

    def __init__(self, stack: "ClientStack", n_requests: int,
                 object_key: str = "counter", operation: str = "add",
                 payload: Any = 1, payload_bytes: int = 512,
                 object_keys: Optional[Sequence[str]] = None):
        super().__init__(stack.process, name=f"load:{stack.process.name}")
        if n_requests < 1:
            raise ConfigurationError("n_requests must be >= 1")
        if object_keys is not None and not object_keys:
            raise ConfigurationError("object_keys must be non-empty")
        self.stack = stack
        self.n_requests = n_requests
        self.object_key = object_key
        #: Optional round-robin key set: request *i* targets key
        #: ``i mod len(object_keys)``.  Sharded workloads use this to
        #: spread one client's cycle across every shard.
        self.object_keys: Optional[Sequence[str]] = object_keys
        self.operation = operation
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.stats = WorkloadStats()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None

    def start(self) -> None:
        """Begin the request cycle."""
        if self.started_at is not None:
            raise ConfigurationError("client already started")
        self.started_at = self.sim.now
        self._next()

    def _next(self) -> None:
        if not self.alive:
            return
        if self.stats.sent >= self.n_requests:
            self.finished_at = self.sim.now
            return
        key = self.object_key
        if self.object_keys is not None:
            key = self.object_keys[self.stats.sent % len(self.object_keys)]
        self.stats.sent += 1
        self.stack.orb_client.invoke(
            key, self.operation, self.payload, self.payload_bytes,
            functools.partial(self._on_reply, self.sim.now))

    def _on_reply(self, sent_at: float, reply: GiopReply) -> None:
        self.stats.completed += 1
        self.stats.latencies_us.append(self.sim.now - sent_at)
        self.stats.completion_times.append(self.sim.now)
        self._next()

    @property
    def done(self) -> bool:
        return self.finished_at is not None

class ThinkTimeClient(Actor):
    """Closed-loop client with a time-varying think time.

    After each reply the client "thinks" for ``1/rate(t)`` before the
    next request, so the *offered* rate tracks the profile while the
    *observed* rate is throttled by response latency — the feedback
    loop behind Fig. 6's result that adaptive replication raises the
    observed request arrival rate: faster replies let clients send
    sooner.
    """

    def __init__(self, stack: "ClientStack", profile: RateProfile,
                 duration_us: float, object_key: str = "counter",
                 operation: str = "add", payload: Any = 1,
                 payload_bytes: int = 512):
        super().__init__(stack.process, name=f"load:{stack.process.name}")
        if duration_us <= 0:
            raise ConfigurationError("duration must be positive")
        self.stack = stack
        self.profile = profile
        self.duration_us = duration_us
        self.object_key = object_key
        self.operation = operation
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.stats = WorkloadStats()
        self.started_at: Optional[float] = None

    def start(self) -> None:
        """Begin the think/send loop."""
        if self.started_at is not None:
            raise ConfigurationError("client already started")
        self.started_at = self.sim.now
        self._send()

    def _elapsed(self) -> float:
        return self.sim.now - (self.started_at or 0.0)

    def _send(self) -> None:
        if not self.alive or self._elapsed() >= self.duration_us:
            return
        self.stats.sent += 1
        self.stack.orb_client.invoke(
            self.object_key, self.operation, self.payload,
            self.payload_bytes,
            functools.partial(self._on_reply, self.sim.now))

    def _on_reply(self, sent_at: float, reply: GiopReply) -> None:
        self.stats.completed += 1
        self.stats.latencies_us.append(self.sim.now - sent_at)
        self.stats.completion_times.append(self.sim.now)
        self._think()

    def _think(self) -> None:
        rate = self.profile.rate_at(self._elapsed())
        if rate <= 0:
            # Idle phase: re-check the profile later without sending.
            self.set_timer("think", 50_000.0, self._think)
        else:
            self.set_timer("think", 1_000_000.0 / rate, self._send)


class OpenLoopClient(Actor):
    """Rate-driven arrivals following a :class:`RateProfile`.

    Inter-arrival gaps are deterministic (1/rate) by default or
    exponential with ``poisson=True``.  Arrivals do not wait for
    replies, so offered load is independent of service latency —
    exactly what Fig. 6's request-rate x-axis requires.
    """

    def __init__(self, stack: "ClientStack", profile: RateProfile,
                 duration_us: float, object_key: str = "counter",
                 operation: str = "add", payload: Any = 1,
                 payload_bytes: int = 512, poisson: bool = False):
        super().__init__(stack.process, name=f"load:{stack.process.name}")
        if duration_us <= 0:
            raise ConfigurationError("duration must be positive")
        self.stack = stack
        self.profile = profile
        self.duration_us = duration_us
        self.object_key = object_key
        self.operation = operation
        self.payload = payload
        self.payload_bytes = payload_bytes
        self.poisson = poisson
        self.stats = WorkloadStats()
        self.send_times: List[float] = []
        self.started_at: Optional[float] = None

    def start(self) -> None:
        """Begin profile-driven arrivals."""
        if self.started_at is not None:
            raise ConfigurationError("client already started")
        self.started_at = self.sim.now
        self._schedule_next()

    def _schedule_next(self) -> None:
        elapsed = self.sim.now - (self.started_at or 0.0)
        if elapsed >= self.duration_us:
            return
        rate = self.profile.rate_at(elapsed)
        if rate <= 0:
            # Idle: re-check the profile shortly.
            self.set_timer("arrival", 50_000.0, self._schedule_next)
            return
        gap_us = 1_000_000.0 / rate
        if self.poisson:
            gap_us = self.sim.rng.expovariate(1.0 / gap_us)
        self.set_timer("arrival", gap_us, self._fire)

    def _fire(self) -> None:
        if not self.alive:
            return
        self.stats.sent += 1
        self.send_times.append(self.sim.now)
        self.stack.orb_client.invoke(
            self.object_key, self.operation, self.payload,
            self.payload_bytes,
            functools.partial(self._on_reply, self.sim.now))
        self._schedule_next()

    def _on_reply(self, sent_at: float, reply: GiopReply) -> None:
        self.stats.completed += 1
        self.stats.latencies_us.append(self.sim.now - sent_at)
        self.stats.completion_times.append(self.sim.now)
