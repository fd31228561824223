"""Replication styles and configurations (the low-level knob values).

The paper's low-level knobs are "the replication style, the number of
replicas, the checkpointing style and frequency" (Section 3.1).  A
:class:`ReplicationConfig` bundles one setting of those knobs; the
knob layer in :mod:`repro.core` manipulates these values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.errors import ConfigurationError


class ReplicationStyle(enum.Enum):
    """The canonical styles of Section 3.1 plus two extensions from
    the paper's related work: HYBRID (Bakken et al.: some replicas
    active, some passive) and SEMI_ACTIVE (Delta-4 XPA's
    leader-follower model: all replicas execute, only the leader
    transmits output responses)."""

    ACTIVE = "active"
    WARM_PASSIVE = "warm_passive"
    COLD_PASSIVE = "cold_passive"
    HYBRID = "hybrid"
    SEMI_ACTIVE = "semi_active"

    @property
    def is_passive(self) -> bool:
        return self in (ReplicationStyle.WARM_PASSIVE,
                        ReplicationStyle.COLD_PASSIVE)

    @property
    def executes_everywhere(self) -> bool:
        """Styles where every replica runs the application."""
        return self in (ReplicationStyle.ACTIVE,
                        ReplicationStyle.SEMI_ACTIVE)

    @property
    def short(self) -> str:
        """Paper Table 2 notation: A / P / C / H / S."""
        return {"active": "A", "warm_passive": "P",
                "cold_passive": "C", "hybrid": "H",
                "semi_active": "S"}[self.value]


@dataclass(frozen=True)
class ReplicationConfig:
    """One setting of the server-side low-level knobs.

    Attributes
    ----------
    style:
        Initial replication style (switchable at runtime, Fig. 5).
    group:
        GCS group name for the replica group.
    checkpoint_interval_requests:
        Warm/cold passive: checkpoint after every N processed requests.
    broadcast_requests:
        Warm passive only.  When True, client requests are multicast to
        the whole group and backups log them, enabling log-replay
        recovery exactly as Section 4.2 describes ("replaying the
        messages received since the last checkpoint").  When False
        (default), clients send directly to the primary and recovery
        relies on checkpoint state plus client retransmission — this is
        the bandwidth-frugal mode.
    checkpoint_delta_fraction:
        Fraction of the state size actually shipped per checkpoint.
        Capturing a checkpoint always costs CPU proportional to the
        full state, but the on-wire "state update" (Section 3.1) is
        incremental: only the part of the state that changed since the
        previous checkpoint travels.  1.0 ships full snapshots.
    active_head:
        Hybrid style: the first ``active_head`` members (in join order)
        run actively; the rest are warm backups of the head.
    """

    style: ReplicationStyle
    group: str
    checkpoint_interval_requests: int = 1
    broadcast_requests: bool = False
    checkpoint_delta_fraction: float = 1.0
    #: Multicast checkpoints with the SAFE grade: the primary's
    #: stability point then additionally guarantees every backup's
    #: daemon holds the state update before any covered reply leaves.
    safe_checkpoints: bool = False
    active_head: int = 1

    def __post_init__(self) -> None:
        if self.checkpoint_interval_requests < 1:
            raise ConfigurationError(
                "checkpoint interval must be >= 1 request")
        if not 0.0 < self.checkpoint_delta_fraction <= 1.0:
            raise ConfigurationError(
                "checkpoint delta fraction must be in (0, 1]")
        if self.active_head < 1:
            raise ConfigurationError("active_head must be >= 1")
        if not self.group:
            raise ConfigurationError("replica group name required")

@dataclass(frozen=True)
class ResiliencePolicy:
    """Partition-aware client resilience knobs.

    Attached to :class:`ClientReplicationConfig` (``resilience=``) to
    replace the legacy fixed-interval retransmission with the three
    mechanisms a partition or gray failure calls for:

    - **Backoff**: retry ``n`` waits
      ``retry_timeout_us * backoff_factor**(n-1)`` (capped at
      ``backoff_cap_us``) plus deterministic jitter of up to
      ``±jitter_frac`` — derived by hashing the request id and attempt
      number, never from the simulation RNG, so enabling resilience on
      one client perturbs nothing else.
    - **Deadlines**: each invocation carries an absolute deadline
      (first-send time + ``deadline_us``) on the wire; the client stops
      retrying past it and replicas shed requests that arrive already
      expired instead of burning CPU on answers nobody awaits.
    - **Circuit breaker**: ``breaker_threshold`` consecutive timeouts
      against one point-to-point endpoint open a breaker for
      ``breaker_cooldown_us``; while open, first attempts fall back to
      the AGREED group multicast, which the reachable majority serves.
      Any reply from the endpoint closes its breaker.
    """

    backoff_factor: float = 2.0
    backoff_cap_us: float = 2_000_000.0
    jitter_frac: float = 0.1
    deadline_us: Optional[float] = None
    breaker_threshold: int = 3
    breaker_cooldown_us: float = 1_000_000.0

    def __post_init__(self) -> None:
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff factor must be >= 1")
        if self.backoff_cap_us <= 0:
            raise ConfigurationError("backoff cap must be positive")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ConfigurationError("jitter fraction must be in [0, 1)")
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise ConfigurationError("deadline must be positive")
        if self.breaker_threshold < 1:
            raise ConfigurationError("breaker threshold must be >= 1")
        if self.breaker_cooldown_us <= 0:
            raise ConfigurationError("breaker cooldown must be positive")


@dataclass(frozen=True)
class ClientReplicationConfig:
    """Client-side replicator settings.

    Attributes
    ----------
    group:
        Server replica group to invoke.
    expected_style:
        What the client assumes until the first reply teaches it the
        real style (replies piggyback the current style and primary).
    voting:
        Active replication with client-side majority voting (the
        Byzantine-failure option of Section 3.1).  The client waits for
        matching replies from a majority of replicas instead of
        accepting the first response.
    retry_timeout_us:
        Outstanding-request retransmission timeout.  Retries always go
        as an AGREED multicast to the whole group, which is safe in
        every style and during style switches.
    max_retries:
        After this many retries the invocation is reported failed.
    resilience:
        Optional :class:`ResiliencePolicy` enabling exponential
        backoff, request deadlines and per-endpoint circuit breaking.
        ``None`` (the default) keeps the legacy fixed-interval rearm
        exactly, event for event.
    """

    group: str
    expected_style: ReplicationStyle = ReplicationStyle.ACTIVE
    voting: bool = False
    retry_timeout_us: float = 200_000.0
    max_retries: int = 25
    resilience: Optional[ResiliencePolicy] = None

    def __post_init__(self) -> None:
        if self.retry_timeout_us <= 0:
            raise ConfigurationError("retry timeout must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
