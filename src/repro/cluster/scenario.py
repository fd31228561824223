"""Cluster scenarios: scaling load, rebalance checking, campaign trials.

Three engines built on :mod:`repro.cluster.deploy`:

- :func:`run_cluster_load` — the closed-loop scaling experiment: the
  same key universe and client fleet against 1..N shards on the *same*
  host set, so aggregate throughput isolates the effect of parallel
  primaries.
- :func:`run_cluster_rebalance_check` — replicated counters, a live
  rebalance mid-traffic, then the :mod:`repro.check` verifiers over
  the client-observed history: no acknowledged increment may be lost
  across the migration, and none may double-apply.
- :func:`run_cluster_trial` — the sharded flavour of one campaign
  trial, producing the same :class:`FaultTrialResult` metrics as the
  single-group trial so campaign records stay schema-compatible.

Shard placement puts shard *i*'s primary alone on server host *i* and
all backups on one spill host, so only the (single) active shard's
backup consumes spill CPU and every added shard adds a whole primary
CPU — the layout under which closed-loop throughput scales with the
shard count until the client fleet saturates.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.deploy import (
    Cluster,
    ClusterClientStack,
    ShardSpec,
    deploy_cluster,
    deploy_cluster_client,
)
from repro.errors import ClusterError
from repro.experiments.testbed import Testbed
from repro.faults import FaultInjector
from repro.orb import BusyServant, CounterServant
from repro.replication import ReplicationStyle
from repro.sim import (
    PAPER_LATENCY_LIMIT_US,
    SubstrateCalibration,
    default_calibration,
)
from repro.workload import ClosedLoopClient, ConstantRate, OpenLoopClient

#: Cluster-scenario defaults: heavier per-request work than the
#: micro-benchmark, so primary CPU — the resource sharding multiplies —
#: dominates the round trip.
DEFAULT_CLUSTER_PROCESSING_US = 1_500.0
DEFAULT_CLUSTER_REQUEST_BYTES = 128
DEFAULT_CLUSTER_REPLY_BYTES = 128
DEFAULT_CLUSTER_STATE_BYTES = 256


def default_shard_styles(n_shards: int) -> List[ReplicationStyle]:
    """One active shard, warm-passive for the rest: two styles coexist
    (the per-shard-knobs claim) while backups stay off the hot CPUs."""
    return [ReplicationStyle.ACTIVE] + \
        [ReplicationStyle.WARM_PASSIVE] * (n_shards - 1)


def _scaling_specs(n_shards: int, styles: Sequence[ReplicationStyle],
                   n_server_hosts: int, checkpoint_interval: int,
                   n_replicas: int = 2) -> List[ShardSpec]:
    """Primary of shard i alone on host i+1; backups on the last host."""
    if n_server_hosts < n_shards + 1:
        raise ClusterError(
            f"{n_shards} shards need {n_shards + 1} server hosts "
            f"(one per primary plus a backup spill host), "
            f"got {n_server_hosts}")
    spill = f"s{n_server_hosts:02d}"
    specs = []
    for i in range(n_shards):
        placement = (f"s{i + 1:02d}",) + (spill,) * (n_replicas - 1)
        specs.append(ShardSpec(
            name=f"shard{i}", style=styles[i % len(styles)],
            n_replicas=n_replicas,
            checkpoint_interval=checkpoint_interval,
            hosts=placement))
    return specs


def _enable(calibration: Optional[SubstrateCalibration],
            telemetry: bool, journal: bool) -> Optional[SubstrateCalibration]:
    """Calibration with telemetry/journal switched on as requested."""
    if not telemetry and not journal:
        return calibration
    calibration = calibration or default_calibration()
    if telemetry:
        calibration = replace(
            calibration,
            telemetry=replace(calibration.telemetry, enabled=True))
    if journal:
        calibration = replace(
            calibration,
            journal=replace(calibration.journal, enabled=True))
    return calibration


@dataclass
class ClusterLoadResult:
    """Aggregate outcome of one sharded load scenario."""

    n_shards: int
    n_clients: int
    shard_styles: Dict[str, str]
    sent: int
    completed: int
    throughput_per_s: float
    latency_mean_us: float
    jitter_us: float
    bandwidth_mbps: float
    wire_bytes: float
    duration_us: float
    events_dispatched: int
    #: Per-shard request/reply/checkpoint rollups (summed over the
    #: shard's replicas).
    per_shard: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: One map digest per router; all equal iff the routers agree.
    map_digests: List[str] = field(default_factory=list)
    map_epoch: int = 0
    rerouted: int = 0
    migrations_committed: int = 0
    #: The run's dependability journal (set when journaling was on).
    journal: Optional[Any] = None
    #: The run's span/metrics recorder (set when telemetry was on).
    telemetry: Optional[Any] = None

    @property
    def routers_agree(self) -> bool:
        """Did every router end the run on the same committed map?"""
        return len(set(self.map_digests)) <= 1


def run_cluster_load(n_shards: int = 4, n_clients: int = 12,
                     n_requests: int = 50, seed: int = 0,
                     n_keys: int = 8,
                     n_server_hosts: Optional[int] = None,
                     styles: Optional[Sequence[ReplicationStyle]] = None,
                     checkpoint_interval: int = 25,
                     processing_us: float = DEFAULT_CLUSTER_PROCESSING_US,
                     request_bytes: int = DEFAULT_CLUSTER_REQUEST_BYTES,
                     reply_bytes: int = DEFAULT_CLUSTER_REPLY_BYTES,
                     state_bytes: int = DEFAULT_CLUSTER_STATE_BYTES,
                     rebalance: Optional[Tuple[str, str, float]] = None,
                     calibration: Optional[SubstrateCalibration] = None,
                     telemetry: bool = False,
                     journal: bool = False) -> ClusterLoadResult:
    """Closed-loop load against a sharded service.

    Every client cycles through all ``n_keys`` keys round-robin, so
    offered load spreads evenly over the shards.  ``rebalance`` is an
    optional ``(key, destination_shard, at_us)`` triple: ``at_us``
    after the load starts, the coordinator migrates ``key`` live.
    Fix ``n_server_hosts`` when comparing shard counts, so every
    configuration runs on the same machine set.
    """
    if n_shards < 1:
        raise ClusterError("need >= 1 shard")
    if n_keys < n_shards:
        raise ClusterError("need at least one key per shard")
    hosts = n_server_hosts if n_server_hosts is not None \
        else n_shards + 1
    style_list = list(styles) if styles is not None \
        else default_shard_styles(n_shards)
    calibration = _enable(calibration, telemetry, journal)
    testbed = Testbed.paper_testbed(hosts, n_clients, seed=seed,
                                    calibration=calibration)
    specs = _scaling_specs(n_shards, style_list, hosts,
                           checkpoint_interval)
    keys = [f"obj{i:02d}" for i in range(n_keys)]
    cluster = deploy_cluster(
        testbed, specs, keys,
        servant_factory=lambda key: BusyServant(
            processing_us=processing_us, reply_bytes=reply_bytes,
            state_bytes=state_bytes))
    stacks = [deploy_cluster_client(cluster, f"w{i:02d}")
              for i in range(1, n_clients + 1)]
    testbed.run(150_000)

    loaders = [ClosedLoopClient(stack, n_requests, object_keys=keys,
                                payload_bytes=request_bytes)
               for stack in stacks]
    start = testbed.now
    start_bytes = testbed.network.stats.total_bytes
    for loader in loaders:
        loader.start()
    if rebalance is not None:
        key, dst, at_us = rebalance
        testbed.sim.schedule_at(
            start + at_us,
            lambda: cluster.coordinator.rebalance(key, dst))
    while not all(loader.done for loader in loaders):
        testbed.run(50_000)
        if testbed.now - start > 1e10:  # safety valve
            break
    last_completion = max((loader.stats.completion_times[-1]
                           for loader in loaders
                           if loader.stats.completion_times),
                          default=testbed.now)
    duration = max(last_completion - start, 1.0)
    wire_bytes = float(testbed.network.stats.total_bytes - start_bytes)

    latencies: List[float] = []
    sent = completed = 0
    for loader in loaders:
        latencies.extend(loader.stats.latencies_us)
        sent += loader.stats.sent
        completed += loader.stats.completed
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    jitter = 0.0
    if len(latencies) > 1:
        jitter = (sum((v - mean) ** 2 for v in latencies)
                  / len(latencies)) ** 0.5

    per_shard: Dict[str, Dict[str, int]] = {}
    for name, deployment in cluster.shards.items():
        per_shard[name] = {
            "processed": sum(r.replicator.requests_processed
                             for r in deployment.replicas),
            "replies": sum(r.replicator.replies_sent
                           for r in deployment.replicas),
            "checkpoints": sum(r.replicator.checkpoints_sent
                               for r in deployment.replicas),
            "duplicates": sum(r.replicator.duplicates_suppressed
                              for r in deployment.replicas),
        }
    return ClusterLoadResult(
        n_shards=n_shards, n_clients=n_clients,
        shard_styles={spec.name: spec.style.value for spec in specs},
        sent=sent, completed=completed,
        throughput_per_s=(completed / duration * 1e6
                          if duration > 0 else 0.0),
        latency_mean_us=mean, jitter_us=jitter,
        bandwidth_mbps=wire_bytes / duration if duration > 0 else 0.0,
        wire_bytes=wire_bytes, duration_us=duration,
        events_dispatched=testbed.sim.events_dispatched,
        per_shard=per_shard,
        map_digests=[stack.router.map_digest for stack in stacks],
        map_epoch=cluster.coordinator.map.epoch,
        rerouted=sum(stack.router.rerouted for stack in stacks),
        migrations_committed=cluster.coordinator.migrations_committed,
        journal=(testbed.sim.journal
                 if testbed.sim.journal.enabled else None),
        telemetry=(testbed.sim.telemetry
                   if testbed.sim.telemetry.enabled else None))


# ---------------------------------------------------------------------------
# Rebalance safety: no acked request lost, none double-applied
# ---------------------------------------------------------------------------

@dataclass
class ClusterCheckOutcome:
    """Everything one rebalance-check run produced, plus the verdict."""

    ok: bool
    violations: List[Dict[str, Any]]
    operations: int
    completed: int
    giveups: int
    survivor_values: Dict[str, List[int]]
    migrations_committed: int
    rerouted: int
    map_digests: List[str]
    digest: str
    events_dispatched: int
    journal_events: List[Any] = field(default_factory=list)


def run_cluster_rebalance_check(n_shards: int = 2, n_clients: int = 2,
                                n_requests: int = 16, seed: int = 0,
                                n_keys: int = 4,
                                rebalance_at_us: float = 60_000.0,
                                checkpoint_interval: int = 1,
                                settle_us: float = 2_000_000.0
                                ) -> ClusterCheckOutcome:
    """Live-rebalance safety check over replicated counters.

    Closed-loop increment clients run against a sharded counter
    service; mid-window the coordinator migrates one key from shard 0
    to shard 1 (and one back the other way), with traffic in flight.
    Afterwards the :mod:`repro.check` verifiers assert, per key, that
    every acknowledged increment survived (``no_lost_acked_updates``)
    and none applied twice (``at_most_once``), plus the journal-level
    protocol invariants.  Replicas of different shards never share a
    host here, so view-based event attribution stays unambiguous.
    """
    if n_shards < 2:
        raise ClusterError("a rebalance check needs >= 2 shards")
    from repro.check import (
        HistoryRecorder,
        check_counter_consistency,
        check_invariants,
    )
    from repro.journal.io import events_to_jsonl

    calibration = _enable(None, telemetry=False, journal=True)
    n_replicas = 2
    n_server_hosts = n_shards * n_replicas  # disjoint hosts per shard
    testbed = Testbed.paper_testbed(n_server_hosts, n_clients, seed=seed,
                                    calibration=calibration)
    history = HistoryRecorder()
    testbed.sim.history = history

    specs = []
    for i in range(n_shards):
        placement = tuple(f"s{i * n_replicas + r + 1:02d}"
                          for r in range(n_replicas))
        specs.append(ShardSpec(
            name=f"shard{i}",
            style=(ReplicationStyle.WARM_PASSIVE if i % 2 == 0
                   else ReplicationStyle.ACTIVE),
            n_replicas=n_replicas,
            checkpoint_interval=checkpoint_interval,
            hosts=placement))
    keys = [f"ctr{i:02d}" for i in range(n_keys)]
    cluster = deploy_cluster(testbed, specs, keys,
                             servant_factory=lambda key: CounterServant())
    stacks = [deploy_cluster_client(cluster, f"w{i:02d}")
              for i in range(1, n_clients + 1)]
    testbed.run(150_000)

    loaders = [ClosedLoopClient(stack, n_requests, object_keys=keys,
                                operation="add", payload=1,
                                payload_bytes=32)
               for stack in stacks]
    start = testbed.now
    for loader in loaders:
        loader.start()
    # Two live migrations, opposite directions, with requests in
    # flight: key 0 (shard0's) to shard1, key 1 (shard1's) to shard0.
    testbed.sim.schedule_at(
        start + rebalance_at_us,
        lambda: cluster.coordinator.rebalance(keys[0], "shard1"))
    if n_keys > 1:
        testbed.sim.schedule_at(
            start + rebalance_at_us * 2,
            lambda: cluster.coordinator.rebalance(keys[1], "shard0"))
    rounds = 0
    while not all(loader.done for loader in loaders) and rounds < 400:
        testbed.run(50_000)
        rounds += 1
    testbed.run(settle_us)

    survivor_values: Dict[str, List[int]] = {}
    violations: List[Dict[str, Any]] = []
    final_map = cluster.coordinator.map
    for key in keys:
        owner = cluster.shards[final_map.owner_of(key)]
        values = []
        for replica in owner.replicas:
            if replica.alive and key in replica.orb_server.servant_keys:
                values.append(replica.orb_server.servant(key).value)
        survivor_values[key] = values
        for violation in check_counter_consistency(
                history.operations, values, object_key=key):
            violations.append(violation.to_dict())
    journal_events = list(testbed.sim.journal.events)
    for violation in check_invariants(journal_events):
        violations.append(violation.to_dict())

    hasher = hashlib.sha256()
    hasher.update(events_to_jsonl(journal_events).encode())
    hasher.update(history.serialize().encode())
    hasher.update(repr(sorted(survivor_values.items())).encode())
    giveups = sum(stack.router.replicator(name).failures
                  for stack in stacks for name in cluster.shards)
    return ClusterCheckOutcome(
        ok=not violations, violations=violations,
        operations=len(history.operations),
        completed=sum(l.stats.completed for l in loaders),
        giveups=giveups,
        survivor_values=survivor_values,
        migrations_committed=cluster.coordinator.migrations_committed,
        rerouted=sum(stack.router.rerouted for stack in stacks),
        map_digests=[stack.router.map_digest for stack in stacks],
        digest=hasher.hexdigest(),
        events_dispatched=testbed.sim.events_dispatched,
        journal_events=journal_events)


# ---------------------------------------------------------------------------
# Campaign trial (the sharded unit of a fault-injection sweep)
# ---------------------------------------------------------------------------

def run_cluster_trial(style: ReplicationStyle, n_shards: int,
                      n_clients: int, duration_us: float,
                      rate_per_s: float, seed: int = 0,
                      checkpoint_interval: int = 1,
                      deadline_us: float = PAPER_LATENCY_LIMIT_US,
                      fault_load: str = "none",
                      settle_us: float = 1_500_000.0,
                      calibration: Optional[SubstrateCalibration] = None,
                      telemetry: bool = False,
                      journal: bool = False,
                      check: bool = False,
                      slo: bool = False):
    """One open-loop campaign trial against a sharded deployment.

    Mirrors :func:`repro.experiments.trial.run_fault_trial` — same
    workload shape, same metric definitions, same result type — with
    the service sharded ``n_shards`` ways (every shard at ``style``)
    and a mid-window rebalance of one key, so campaign sweeps exercise
    the migration path as a matter of course.  ``fault_load`` is
    restricted to ``none`` and ``process_crash`` (which kills shard
    0's primary): the other dictionary loads assume a single replica
    group.
    """
    from repro.experiments.trial import FaultTrialResult, OUTAGE_KINDS
    if fault_load not in ("none", "process_crash"):
        raise ClusterError(
            f"sharded trials support fault loads 'none' and "
            f"'process_crash', not {fault_load!r}")
    if n_shards < 2:
        raise ClusterError("a cluster trial needs >= 2 shards")
    if check or slo:
        journal = True
    calibration = _enable(calibration, telemetry, journal)
    n_server_hosts = n_shards + 1
    testbed = Testbed.paper_testbed(n_server_hosts, max(n_clients, 1),
                                    seed=seed, calibration=calibration)
    history = None
    if check:
        from repro.check import HistoryRecorder
        history = HistoryRecorder()
        testbed.sim.history = history
    specs = _scaling_specs(n_shards, [style], n_server_hosts,
                           checkpoint_interval)
    keys = [f"obj{i:02d}" for i in range(2 * n_shards)]
    cluster = deploy_cluster(
        testbed, specs, keys,
        servant_factory=lambda key: BusyServant(
            processing_us=15.0,
            reply_bytes=DEFAULT_CLUSTER_REPLY_BYTES,
            state_bytes=DEFAULT_CLUSTER_STATE_BYTES))
    stacks = [deploy_cluster_client(cluster, f"w{i:02d}")
              for i in range(1, n_clients + 1)]
    testbed.run(150_000)

    injector = FaultInjector(testbed.sim, testbed.network)
    t0 = testbed.now
    if fault_load == "process_crash":
        primary = cluster.shards["shard0"].replicas[0]
        injector.crash_process_at(primary.process,
                                  t0 + 0.3 * duration_us)
    # Every sharded trial rebalances one key mid-window: migrations
    # are part of the measured behaviour, not a special case.
    testbed.sim.schedule_at(
        t0 + 0.5 * duration_us,
        lambda: cluster.coordinator.rebalance(
            keys[0], cluster.map.shards[-1]))

    loaders = [OpenLoopClient(stack, ConstantRate(rate_per_s),
                              duration_us,
                              object_key=keys[i % len(keys)],
                              payload_bytes=DEFAULT_CLUSTER_REQUEST_BYTES)
               for i, stack in enumerate(stacks)]
    start = testbed.now
    start_bytes = testbed.network.stats.total_bytes
    for loader in loaders:
        loader.start()
    testbed.run(duration_us + settle_us)
    window_end = start + duration_us
    wire_bytes = float(testbed.network.stats.total_bytes - start_bytes)
    elapsed = testbed.now - start

    sent = sum(l.stats.sent for l in loaders)
    completed = sum(l.stats.completed for l in loaders)
    latencies = [v for l in loaders for v in l.stats.latencies_us]
    completions = sorted(t for l in loaders
                         for t in l.stats.completion_times)
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    jitter = 0.0
    if len(latencies) > 1:
        jitter = (sum((v - mean) ** 2 for v in latencies)
                  / len(latencies)) ** 0.5

    recoveries: List[float] = []
    downtime = 0.0
    for fault in injector.injected:
        if fault.kind not in OUTAGE_KINDS or fault.at_us >= window_end:
            continue
        after = [t for t in completions if t > fault.at_us]
        if after:
            recoveries.append(after[0] - fault.at_us)
        else:
            recoveries.append(elapsed - (fault.at_us - start))
        downtime += min(recoveries[-1], window_end - fault.at_us)
    availability = max(0.0, 1.0 - downtime / duration_us)
    mean_recovery = (sum(recoveries) / len(recoveries)
                     if recoveries else 0.0)

    telemetry_digest = None
    if testbed.sim.telemetry.enabled:
        from repro.telemetry.analysis import telemetry_summary
        telemetry_digest = telemetry_summary(testbed.sim.telemetry)

    journal_events = None
    journal_summary = None
    if testbed.sim.journal.enabled:
        from repro.journal.io import journal_digest
        journal_events = list(testbed.sim.journal.events)
        journal_summary = journal_digest(testbed.sim.journal,
                                         window_start_us=start,
                                         window_end_us=window_end)

    check_digest = None
    if check:
        assert history is not None and journal_events is not None
        from repro.check import (
            IncrementSpec,
            check_invariants,
            check_linearizability,
        )
        violations = list(check_invariants(journal_events))
        # Linearizability is a single-object property: check each
        # key's history against the spec independently.
        lin_ok, lin_skipped, n_ops = True, False, 0
        for key in keys:
            ops = tuple(op for op in history.operations
                        if op.object_key == key)
            n_ops += len(ops)
            lin = check_linearizability(ops, IncrementSpec())
            lin_ok = lin_ok and lin.ok
            lin_skipped = lin_skipped or lin.skipped
        check_digest = {
            "ok": bool(lin_ok and not violations),
            "operations": n_ops,
            "violations": [v.to_dict() for v in violations],
            "linearizable": lin_ok,
            "linearizability_skipped": lin_skipped,
            "truncated_rings": dict(
                testbed.sim.journal.truncated_rings()),
        }

    slo_digest = None
    if slo:
        assert journal_events is not None
        from repro.experiments.trial import slo_trial_digest
        slo_digest = slo_trial_digest(
            journal_events, window_start_us=start,
            window_end_us=window_end,
            registry=getattr(testbed.sim.telemetry, "metrics", None))

    return FaultTrialResult(
        style=style, n_replicas=2, n_clients=n_clients,
        duration_us=duration_us, sent=sent, completed=completed,
        failed=max(sent - completed, 0),
        late=sum(1 for v in latencies if v > deadline_us),
        availability=availability, mean_recovery_us=mean_recovery,
        recovery_times_us=recoveries, latency_mean_us=mean,
        jitter_us=jitter,
        bandwidth_mbps=wire_bytes / elapsed if elapsed > 0 else 0.0,
        wire_bytes=wire_bytes, injected=list(injector.injected),
        telemetry=telemetry_digest, journal=journal_summary,
        journal_events=journal_events, check=check_digest,
        slo=slo_digest)
