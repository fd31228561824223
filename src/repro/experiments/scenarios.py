"""Experiment scenarios: the engines behind every table and figure.

Each function describes one run — what is deployed, which workload,
which scenario-specific fields — and hands the mechanics to the staged
:class:`repro.experiments.run.ScenarioRun`, whose
:class:`~repro.experiments.run.RunRecord` it returns.  The benchmark
suite calls these with the paper's parameters; the examples call them
with smaller ones.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.measurements import ConfigPoint, Measurement, Profile
from repro.core.policies import ThresholdSwitchPolicy
from repro.errors import TelemetryOverflowError
from repro.experiments.run import RunRecord, ScenarioRun
from repro.experiments.testbed import ClientStack
from repro.interpose import (
    InterceptedClientTransport,
    InterceptedServerTransport,
)
from repro.orb import (
    BusyServant,
    OrbClient,
    OrbServer,
    TcpClientTransport,
    TcpServerTransport,
)
from repro.replication import ReplicationConfig, ReplicationStyle
from repro.sim import SubstrateCalibration
from repro.telemetry.analysis import component_breakdown
from repro.workload import (
    ClosedLoopClient,
    OpenLoopClient,
    RateProfile,
    ThinkTimeClient,
)

#: Paper default: micro-benchmark request/response sizes and state.
DEFAULT_REQUEST_BYTES = 128
DEFAULT_REPLY_BYTES = 128
DEFAULT_STATE_BYTES = 1024
DEFAULT_PROCESSING_US = 15.0


def _bench_servants(state_bytes: int = DEFAULT_STATE_BYTES):
    """The micro-benchmark servant set: one ``bench`` object."""
    return {"bench": lambda: BusyServant(
        processing_us=DEFAULT_PROCESSING_US,
        reply_bytes=DEFAULT_REPLY_BYTES, state_bytes=state_bytes)}


def run_replicated_load(style: ReplicationStyle, n_replicas: int,
                        n_clients: int, n_requests: int,
                        seed: int = 0,
                        state_bytes: int = DEFAULT_STATE_BYTES,
                        checkpoint_interval: int = 1,
                        calibration: Optional[SubstrateCalibration] = None,
                        telemetry: bool = False,
                        journal: bool = False) -> RunRecord:
    """Closed-loop load (the paper's request cycle) against a
    replicated service; measures latency, jitter and bandwidth.

    ``telemetry=True`` turns on span recording for the run (overriding
    the calibration's telemetry knob); the recorder is returned on
    ``RunRecord.telemetry``.  ``journal=True`` likewise turns on
    the dependability event journal, returned on ``RunRecord.journal``.
    """
    run = ScenarioRun(n_replicas, n_clients, seed=seed,
                      calibration=calibration, telemetry=telemetry,
                      journal=journal)
    run.deploy_group(
        ReplicationConfig(style=style, group="svc",
                          checkpoint_interval_requests=checkpoint_interval),
        _bench_servants(state_bytes), n_replicas, n_clients)
    run.warm()
    run.start([ClosedLoopClient(stack, n_requests, object_key="bench",
                                payload_bytes=DEFAULT_REQUEST_BYTES)
               for stack in run.stacks])
    run.drain()
    return run.record(run.elapsed_us)


def build_profile(client_counts: Sequence[int] = (1, 2, 3, 4, 5),
                  replica_counts: Sequence[int] = (2, 3),
                  styles: Sequence[ReplicationStyle] = (
                      ReplicationStyle.ACTIVE,
                      ReplicationStyle.WARM_PASSIVE),
                  n_requests: int = 150, seed: int = 0,
                  **load_kwargs) -> Tuple[Profile, List[RunRecord]]:
    """The Fig. 7 sweep: measure every (style, replicas, clients)
    combination.  Returns the profile (for policy synthesis) plus the
    raw records."""
    profile = Profile()
    records = []
    for style in styles:
        for n_replicas in replica_counts:
            for n_clients in client_counts:
                record = run_replicated_load(
                    style, n_replicas, n_clients, n_requests,
                    seed=seed, **load_kwargs)
                profile.add(Measurement(
                    config=ConfigPoint(style=style, n_replicas=n_replicas),
                    n_clients=n_clients,
                    latency_us=record.latency_mean_us,
                    jitter_us=record.jitter_us,
                    bandwidth_mbps=record.bandwidth_mbps,
                    throughput_per_s=record.throughput_per_s))
                records.append(record)
    return profile, records


# ---------------------------------------------------------------------------
# Fig. 3 / Fig. 4: round-trip breakdown and interception overhead
# ---------------------------------------------------------------------------

def run_rtt_breakdown(n_requests: int = 500, seed: int = 0
                      ) -> Dict[str, float]:
    """Fig. 3: per-component mean round-trip contribution for one
    client and one (active) server replica, read from the run's spans.

    Raises :class:`~repro.errors.TelemetryOverflowError` when the span
    recorder hit its ``max_spans`` cap: a breakdown over the requests
    that still fitted would silently describe a different run.
    """
    recorder = run_replicated_load(
        ReplicationStyle.ACTIVE, n_replicas=1, n_clients=1,
        n_requests=n_requests, seed=seed, telemetry=True).telemetry
    if recorder.dropped:
        raise TelemetryOverflowError(
            f"the span recorder dropped {recorder.dropped} spans "
            f"(max_spans {recorder.max_spans}); the breakdown of "
            f"{n_requests} requests would be incomplete")
    return component_breakdown(recorder.spans)


def run_overhead_modes(n_requests: int = 300, seed: int = 0
                       ) -> Dict[str, RunRecord]:
    """Fig. 4, one record per bar: baseline, interception-only modes,
    and single-replica warm passive / active."""
    out = {mode: _run_tcp_mode(mode, n_requests, seed=seed)
           for mode in ("no_interceptor", "client_intercepted",
                        "server_intercepted", "both_intercepted")}
    for mode, style in (("warm_passive_1", ReplicationStyle.WARM_PASSIVE),
                        ("active_1", ReplicationStyle.ACTIVE)):
        out[mode] = run_replicated_load(style, n_replicas=1, n_clients=1,
                                        n_requests=n_requests, seed=seed)
    return out


def _run_tcp_mode(mode: str, n_requests: int, seed: int) -> RunRecord:
    """A remote client-server pair over plain (optionally intercepted)
    TCP — no group communication, no warm-up, one closed-loop client."""
    run = ScenarioRun(1, 1, seed=seed)
    testbed = run.testbed
    cal = testbed.calibration
    server_proc = testbed.spawn("s01", "srv")
    server_transport = TcpServerTransport(server_proc, testbed.network,
                                          9000, calibration=cal.orb)
    if mode in ("server_intercepted", "both_intercepted"):
        server_transport = InterceptedServerTransport(
            server_proc, server_transport, calibration=cal.interpose)
    server = OrbServer(server_proc, server_transport, calibration=cal.orb)
    server.register("bench", BusyServant(
        processing_us=DEFAULT_PROCESSING_US,
        reply_bytes=DEFAULT_REPLY_BYTES))
    address = server.start()

    client_proc = testbed.spawn("w01", "cli")
    client_transport = TcpClientTransport(client_proc, testbed.network,
                                          address, calibration=cal.orb)
    if mode in ("client_intercepted", "both_intercepted"):
        client_transport = InterceptedClientTransport(
            client_proc, client_transport, calibration=cal.interpose)
    orb_client = OrbClient(client_proc, client_transport,
                           calibration=cal.orb)
    # Plain TCP: the stack has no group connection and no replicator.
    stack = ClientStack(client_proc, gcs=None, replicator=None,
                        orb_client=orb_client)
    run.start([ClosedLoopClient(stack, n_requests, object_key="bench",
                                operation="op",
                                payload_bytes=DEFAULT_REQUEST_BYTES)])
    run.drain()
    return run.record(run.elapsed_us)


# ---------------------------------------------------------------------------
# Fig. 6: runtime adaptive replication under a load profile
# ---------------------------------------------------------------------------

def run_adaptive_scenario(profile: RateProfile, duration_us: float,
                          policy: Optional[ThresholdSwitchPolicy] = None,
                          static_style: Optional[ReplicationStyle] = None,
                          n_clients: int = 1,
                          seed: int = 0, closed_loop: bool = True,
                          journal: bool = False) -> RunRecord:
    """Drive a time-varying load against a three-replica group.

    With ``policy`` set, every replica runs an adaptation manager and
    the group switches styles as the rate crosses the thresholds
    (adaptive replication); with ``static_style`` set instead, the
    group stays put (the paper's static baseline).

    ``closed_loop=True`` (the paper's setup) uses think-time clients:
    the offered rate follows the profile but each client waits for its
    reply before thinking, so faster replies raise the *observed*
    arrival rate — the feedback behind the paper's +4.1 % result.
    ``closed_loop=False`` uses pure open-loop arrivals instead.

    The record's ``duration_us`` runs to the end of the straggler
    settle, so its ``throughput_per_s`` is the paper's Fig. 6 headline
    metric: the request arrival rate observed at the server.
    """
    if (policy is None) == (static_style is None):
        raise ValueError("pass exactly one of policy / static_style")
    initial = static_style or ReplicationStyle.WARM_PASSIVE
    run = ScenarioRun(3, max(n_clients, 1), seed=seed, journal=journal,
                      duration_us=duration_us)
    run.deploy_group(ReplicationConfig(style=initial, group="svc"),
                     _bench_servants(), 3, n_clients, policy=policy)
    testbed, replicas = run.testbed, run.replicas
    start = run.warm()

    driver = ThinkTimeClient if closed_loop else OpenLoopClient
    run.start([driver(stack, profile, duration_us, object_key="bench",
                      payload_bytes=DEFAULT_REQUEST_BYTES)
               for stack in run.stacks])
    style_series: List[Tuple[float, str]] = [
        (0.0, replicas[0].replicator.style.value)]

    def style_probe() -> None:
        live = [r for r in replicas if r.alive]
        if live:
            current = live[0].replicator.style.value
            if style_series[-1][1] != current:
                style_series.append((testbed.now - start, current))
        if testbed.now - start < duration_us + 2_000_000:
            testbed.sim.schedule(20_000, style_probe)

    style_probe()
    run.offer(2_000_000)
    # Let straggler replies settle (bounded: daemon heartbeats keep
    # the event queue alive forever, so run-to-idle would not return).
    settle = 0
    while run.completed < run.sent and settle < 40:
        testbed.run(500_000)
        settle += 1

    rate_series: List[Tuple[float, float]] = []
    if run.managers:
        rate_series = [(t - start, rate)
                       for t, rate in run.managers[0].rate_samples]
    switch_events = next((r.replicator.switch_history
                          for r in replicas if r.alive), [])
    return run.record(
        testbed.now - start, rate_series=rate_series,
        style_series=style_series, switch_events=list(switch_events),
        max_latency_us=max(run.latencies, default=0.0))
