"""Replication styles and configurations (the low-level knob values).

The paper's low-level knobs are "the replication style, the number of
replicas, the checkpointing style and frequency" (Section 3.1).  A
:class:`ReplicationConfig` bundles one setting of those knobs; the
knob layer in :mod:`repro.core` manipulates these values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import ConfigurationError


class ReplicationStyle(enum.Enum):
    """The three replication styles of Section 3.1."""

    ACTIVE = "active"
    WARM_PASSIVE = "warm_passive"
    COLD_PASSIVE = "cold_passive"

    @property
    def is_passive(self) -> bool:
        return self in (ReplicationStyle.WARM_PASSIVE,
                        ReplicationStyle.COLD_PASSIVE)

    @property
    def short(self) -> str:
        """Paper Table 2 notation: A / P / C."""
        return {"active": "A", "warm_passive": "P",
                "cold_passive": "C"}[self.value]


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
    """

    style: ReplicationStyle
    group: str
    checkpoint_interval_requests: int = 1
    broadcast_requests: bool = False
    checkpoint_delta_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.checkpoint_interval_requests < 1:
            raise ConfigurationError(
                "checkpoint interval must be >= 1 request")
        if not 0.0 < self.checkpoint_delta_fraction <= 1.0:
            raise ConfigurationError(
                "checkpoint delta fraction must be in (0, 1]")
        if not self.group:
            raise ConfigurationError("replica group name required")


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
        Wait before the first retransmission of an unanswered request;
        later ones back off from it (:mod:`repro.replication.client`).
        Retries always go as an AGREED multicast to the whole group,
        which is safe in every style and during style switches.
    max_retries:
        After this many retries the invocation is reported failed.
    """

    group: str
    expected_style: ReplicationStyle = ReplicationStyle.ACTIVE
    voting: bool = False
    retry_timeout_us: float = 200_000.0
    max_retries: int = 25

    def __post_init__(self) -> None:
        if self.retry_timeout_us <= 0:
            raise ConfigurationError("retry timeout must be positive")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
