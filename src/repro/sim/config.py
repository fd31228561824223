"""Calibration constants for the simulated substrate.

The paper's evaluation ran on seven 900 MHz Pentium III machines on a
LAN, using Spread 3.17.01 and TAO 1.4.  Figure 3 breaks the measured
round-trip of a micro-benchmark request into four components:

====================  ========
Component             Cost
====================  ========
Application            15 µs
ORB                   398 µs
Group communication   620 µs
Replicator            154 µs
====================  ========

The defaults below are chosen so that the *simulated* substrate
reproduces those component costs for the same one-client /
one-replica configuration, which anchors every other experiment.
All values are dataclass fields, so a benchmark or test can build a
scenario with different hardware assumptions by passing a modified
:class:`SubstrateCalibration`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, Tuple

from repro.errors import ConfigurationError, Rule, check_fields

#: The declared rules of each calibration section: every cost, delay
#: and interval a finite number (a NaN cost would time every event at
#: NaN), every count an exact integer.
NETWORK_RULES = (
    Rule(("propagation_us", "jitter_us", "local_loopback_us"), float, ge=0),
    Rule(("bandwidth_bytes_per_us",), float, gt=0),
)
ORB_RULES = (
    Rule(("marshal_fixed_us", "marshal_per_byte_us", "demarshal_fixed_us",
          "demarshal_per_byte_us", "dispatch_us"), float, ge=0),
    Rule(("giop_header_bytes",), int, ge=0),
)
GCS_RULES = (
    Rule(("daemon_processing_us", "ordering_us", "local_ipc_us"), float,
         ge=0),
    Rule(("heartbeat_interval_us", "failure_timeout_us",
          "retransmit_timeout_us", "rejoin_probe_interval_us"), float, gt=0),
    Rule(("header_bytes",), int, ge=0),
    # Fewer entries than this and a daemon forgets messages it may
    # still have to retransmit.
    Rule(("history_limit",), int, ge=16),
    Rule(("adaptive_failure_detection", "primary_partition"), bool),
)
INTERPOSE_RULES = (Rule(("intercept_us", "redirect_us"), float, ge=0),)
REPLICATION_RULES = (
    Rule(("duplicate_check_us", "logging_us", "checkpoint_fixed_us",
          "checkpoint_per_byte_us", "checkpoint_per_target_us",
          "state_apply_fixed_us", "state_apply_per_byte_us",
          "election_us", "spawn_replica_us"), float, ge=0),
)
HOST_RULES = (
    Rule(("speed",), float, gt=0),
    Rule(("context_switch_us",), float, ge=0),
)
TELEMETRY_RULES = (
    Rule(("enabled",), bool),
    # Span ids sit in 4-byte unsigned columns.
    Rule(("max_spans",), int, ge=1, le=0xFFFF_FFFF),
)
JOURNAL_RULES = (
    Rule(("enabled",), bool),
    Rule(("max_events",), int, ge=1),
)


class _Section:
    """A calibration section: :meth:`validate` checks its ``RULES``."""

    RULES: ClassVar[Tuple[Rule, ...]] = ()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on the first field that
        breaks a rule."""
        check_fields(vars(self), self.RULES)


@dataclass(frozen=True)
class NetworkCalibration(_Section):
    """Latency/throughput model of the switched LAN.

    ``propagation_us`` covers wire + switch + kernel network-stack
    traversal for one frame hop; ``bandwidth_bytes_per_us`` is the link
    rate (100 Mb/s Ethernet ≈ 12.5 bytes/µs); ``jitter_us`` is the
    half-width of the uniform jitter added to each hop.
    """

    propagation_us: float = 120.0
    bandwidth_bytes_per_us: float = 12.5
    jitter_us: float = 12.0
    local_loopback_us: float = 6.0

    RULES = NETWORK_RULES


@dataclass(frozen=True)
class OrbCalibration(_Section):
    """Cost model of the miniature ORB (stands in for TAO 1.4).

    One round trip crosses the ORB four times (client marshal, server
    demarshal, server marshal, client demarshal), so per-crossing costs
    are roughly a quarter of the paper's 398 µs ORB share.
    """

    marshal_fixed_us: float = 94.0
    marshal_per_byte_us: float = 0.017
    demarshal_fixed_us: float = 79.0
    demarshal_per_byte_us: float = 0.014
    dispatch_us: float = 42.0
    giop_header_bytes: int = 48

    RULES = ORB_RULES


@dataclass(frozen=True)
class GcsCalibration(_Section):
    """Cost model of the group-communication daemons (stands in for
    Spread 3.17.01).

    ``daemon_processing_us`` is charged each time a daemon handles a
    message; reliable/agreed grades route via the group's sequencer
    daemon, adding hops — which is why group communication dominates
    the paper's round-trip breakdown (620 µs of 1187 µs).
    """

    daemon_processing_us: float = 77.0
    ordering_us: float = 30.0
    local_ipc_us: float = 45.0
    header_bytes: int = 42
    heartbeat_interval_us: float = 100_000.0
    failure_timeout_us: float = 350_000.0
    retransmit_timeout_us: float = 4_000.0
    history_limit: int = 4096
    #: Use the adaptive (inter-arrival statistics) failure detector
    #: instead of the fixed timeout; tolerant of gradual timing
    #: degradation (the paper's "performance and timing faults").
    adaptive_failure_detection: bool = False
    #: Primary-partition membership: a daemon that can only reach a
    #: minority of its current view *wedges* (stops serving, buffers
    #: client operations) instead of installing a concurrent
    #: fully-operational view, then rejoins and merges on heal.  Off
    #: by default — the classic partitionable-membership behaviour is
    #: what every pre-partition experiment calibrated against.
    primary_partition: bool = False
    #: While wedged, how often a daemon probes its unreachable peers
    #: with rejoin requests so a healed partition merges promptly.
    rejoin_probe_interval_us: float = 200_000.0

    RULES = GCS_RULES

    def validate(self) -> None:
        """Check the rules, then that a failure timeout outlasts the
        heartbeat interval (or every peer is suspected at once)."""
        super().validate()
        if self.failure_timeout_us <= self.heartbeat_interval_us:
            raise ConfigurationError(
                "failure timeout must exceed the heartbeat interval")


@dataclass(frozen=True)
class InterposeCalibration(_Section):
    """Cost of the library-interposition layer (the replicator's
    system-call wrappers), per intercepted call."""

    intercept_us: float = 18.0
    redirect_us: float = 32.0

    RULES = INTERPOSE_RULES


@dataclass(frozen=True)
class ReplicationCalibration(_Section):
    """Cost model of the replication mechanisms themselves."""

    duplicate_check_us: float = 12.0
    logging_us: float = 14.0
    checkpoint_fixed_us: float = 340.0
    checkpoint_per_byte_us: float = 0.1
    checkpoint_per_target_us: float = 210.0
    state_apply_fixed_us: float = 80.0
    state_apply_per_byte_us: float = 0.02
    election_us: float = 35.0
    spawn_replica_us: float = 250_000.0

    RULES = REPLICATION_RULES


@dataclass(frozen=True)
class HostCalibration(_Section):
    """CPU model: a 900 MHz Pentium III executes ``speed = 1.0``;
    service demands elsewhere in the library are expressed in µs on
    this reference machine and scaled by the host's speed."""

    speed: float = 1.0
    context_switch_us: float = 5.0

    RULES = HOST_RULES


@dataclass(frozen=True)
class TelemetryConfig(_Section):
    """The single switch for the observability layer.

    Off by default: the simulator keeps its no-op recorder and the
    instrumentation sites reduce to one guarded branch.  When enabled,
    the testbed attaches a :class:`repro.telemetry.Telemetry` recorder
    capped at ``max_spans`` (further spans are counted as dropped, not
    recorded, so long campaigns cannot exhaust memory).  Recording
    adds **no simulated time** either way.
    """

    enabled: bool = False
    max_spans: int = 200_000

    RULES = TELEMETRY_RULES


@dataclass(frozen=True)
class JournalConfig(_Section):
    """Switch for the dependability event journal.

    Off by default: the simulator keeps its no-op journal and every
    instrumentation site reduces to one guarded branch.  When enabled,
    the testbed attaches a :class:`repro.journal.Journal`: one ordered
    event stream capped at ``max_events``.  Journaling adds
    **no simulated time** either way, so simulated results are
    byte-identical on or off.
    """

    enabled: bool = False
    max_events: int = 100_000

    RULES = JOURNAL_RULES


@dataclass(frozen=True)
class SubstrateCalibration:
    """Bundle of all substrate cost models with paper-anchored defaults."""

    network: NetworkCalibration = field(default_factory=NetworkCalibration)
    orb: OrbCalibration = field(default_factory=OrbCalibration)
    gcs: GcsCalibration = field(default_factory=GcsCalibration)
    interpose: InterposeCalibration = field(default_factory=InterposeCalibration)
    replication: ReplicationCalibration = field(
        default_factory=ReplicationCalibration)
    host: HostCalibration = field(default_factory=HostCalibration)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    journal: JournalConfig = field(default_factory=JournalConfig)

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on any invalid field."""
        for section in vars(self).values():
            section.validate()

    def with_overrides(self, **sections) -> "SubstrateCalibration":
        """Return a copy with whole sections replaced, e.g.
        ``cal.with_overrides(network=NetworkCalibration(loss...))``."""
        return replace(self, **sections)


#: Paper Figure 3 component costs (µs), used by calibration tests and
#: the fig3 benchmark to state provenance.
PAPER_FIG3_BREAKDOWN: Dict[str, float] = {
    "application": 15.0,
    "orb": 398.0,
    "group_communication": 620.0,
    "replicator": 154.0,
}

#: Paper Section 4.3 constraint constants (scalability knob).
PAPER_LATENCY_LIMIT_US: float = 7000.0
PAPER_BANDWIDTH_LIMIT_MBPS: float = 3.0
PAPER_COST_WEIGHT: float = 0.5


def default_calibration() -> SubstrateCalibration:
    """The paper-anchored default calibration."""
    return SubstrateCalibration()
