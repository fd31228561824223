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
  trial, producing the same :class:`~repro.experiments.run.RunRecord`
  metrics as the single-group trial so campaign records stay
  schema-compatible.

Shard placement puts shard *i*'s primary alone on server host *i* and
all backups on one spill host, so only the (single) active shard's
backup consumes spill CPU and every added shard adds a whole primary
CPU — the layout under which closed-loop throughput scales with the
shard count until the client fleet saturates.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.deploy import (
    Cluster,
    ShardSpec,
    deploy_cluster,
    deploy_cluster_client,
)
from repro.errors import ClusterError
from repro.experiments.run import RunRecord, ScenarioRun
from repro.experiments.trial import (
    DEFAULT_SETTLE_US,
    begin_trial,
    finish_trial,
)
from repro.orb import BusyServant, CounterServant, Servant
from repro.replication import ReplicationStyle
from repro.sim import PAPER_LATENCY_LIMIT_US
from repro.workload import ClosedLoopClient, ConstantRate, OpenLoopClient

#: Cluster-scenario defaults: heavier per-request work than the
#: micro-benchmark, so primary CPU — the resource sharding multiplies —
#: dominates the round trip.
DEFAULT_CLUSTER_PROCESSING_US = 1_500.0
DEFAULT_CLUSTER_REQUEST_BYTES = 128
DEFAULT_CLUSTER_REPLY_BYTES = 128
DEFAULT_CLUSTER_STATE_BYTES = 256

#: Every scenario shard is a primary plus one backup.
REPLICAS_PER_SHARD = 2


def default_shard_styles(n_shards: int) -> List[ReplicationStyle]:
    """One active shard, warm-passive for the rest: two styles coexist
    (the per-shard-knobs claim) while backups stay off the hot CPUs."""
    return [ReplicationStyle.ACTIVE] + \
        [ReplicationStyle.WARM_PASSIVE] * (n_shards - 1)


def _scaling_specs(n_shards: int, styles: Sequence[ReplicationStyle],
                   n_server_hosts: int, checkpoint_interval: int
                   ) -> List[ShardSpec]:
    """Primary of shard i alone on host i+1; backups on the last host."""
    if n_server_hosts < n_shards + 1:
        raise ClusterError(
            f"{n_shards} shards need {n_shards + 1} server hosts "
            f"(one per primary plus a backup spill host), "
            f"got {n_server_hosts}")
    spill = f"s{n_server_hosts:02d}"
    return [ShardSpec(
        name=f"shard{i}", style=styles[i % len(styles)],
        n_replicas=REPLICAS_PER_SHARD,
        checkpoint_interval=checkpoint_interval,
        hosts=(f"s{i + 1:02d}",) + (spill,) * (REPLICAS_PER_SHARD - 1))
        for i in range(n_shards)]


def _deploy_sharded(run: ScenarioRun, specs: Sequence[ShardSpec],
                    keys: Sequence[str],
                    servant_factory: Callable[[str], Servant],
                    n_clients: int) -> Cluster:
    """The sharded layout: every shard of ``specs`` plus the
    coordinator on the server hosts, one shard-aware client per
    ``w01..``."""
    cluster = deploy_cluster(run.testbed, specs, keys, servant_factory)
    run.stacks = [deploy_cluster_client(cluster, f"w{i:02d}")
                  for i in range(1, n_clients + 1)]
    return cluster


def run_cluster_load(n_shards: int = 4, n_clients: int = 12,
                     n_requests: int = 50, seed: int = 0,
                     n_keys: int = 8,
                     n_server_hosts: Optional[int] = None,
                     processing_us: float = DEFAULT_CLUSTER_PROCESSING_US,
                     rebalance: Optional[Tuple[str, str, float]] = None,
                     telemetry: bool = False,
                     journal: bool = False) -> RunRecord:
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
    run = ScenarioRun(hosts, n_clients, seed=seed, telemetry=telemetry,
                      journal=journal)
    specs = _scaling_specs(n_shards, default_shard_styles(n_shards), hosts,
                           checkpoint_interval=25)
    keys = [f"obj{i:02d}" for i in range(n_keys)]
    cluster = _deploy_sharded(
        run, specs, keys,
        lambda key: BusyServant(processing_us=processing_us,
                                reply_bytes=DEFAULT_CLUSTER_REPLY_BYTES,
                                state_bytes=DEFAULT_CLUSTER_STATE_BYTES),
        n_clients)
    start = run.warm()

    run.start([ClosedLoopClient(
        stack, n_requests, object_keys=keys,
        payload_bytes=DEFAULT_CLUSTER_REQUEST_BYTES)
        for stack in run.stacks])
    if rebalance is not None:
        key, dst, at_us = rebalance
        run.testbed.sim.schedule_at(
            start + at_us,
            lambda: cluster.coordinator.rebalance(key, dst))
    run.drain()

    per_shard: Dict[str, Dict[str, Any]] = {}
    for spec in specs:
        replicas = cluster.shards[spec.name].replicas
        per_shard[spec.name] = {
            "style": spec.style.value,
            "processed": sum(r.replicator.requests_processed
                             for r in replicas),
            "replies": sum(r.replicator.replies_sent for r in replicas),
            "checkpoints": sum(r.replicator.checkpoints_sent
                               for r in replicas),
            "duplicates": sum(r.replicator.duplicates_suppressed
                              for r in replicas),
        }
    return run.record(
        run.elapsed_us, per_shard=per_shard,
        map_digests=[stack.router.map_digest for stack in run.stacks],
        map_epoch=cluster.coordinator.map.epoch,
        rerouted=sum(stack.router.rerouted for stack in run.stacks),
        migrations_committed=cluster.coordinator.migrations_committed)


# ---------------------------------------------------------------------------
# Rebalance safety: no acked request lost, none double-applied
# ---------------------------------------------------------------------------

#: Offset of the first live migration in a rebalance check; the one
#: in the opposite direction follows at twice that.
REBALANCE_AT_US = 60_000.0


def run_cluster_rebalance_check(n_shards: int = 2, n_clients: int = 2,
                                n_requests: int = 16, seed: int = 0,
                                n_keys: int = 4) -> RunRecord:
    """Live-rebalance safety check over replicated counters.

    Closed-loop increment clients run against a sharded counter
    service; mid-window the coordinator migrates one key from shard 0
    to shard 1 (and one back the other way), with traffic in flight.
    Afterwards the :mod:`repro.check` verifiers assert, per key, that
    every acknowledged increment survived (``no_lost_acked_updates``)
    and none applied twice (``at_most_once``), plus the journal-level
    protocol invariants; the record's ``check`` holds the verdict
    (``ok``, acked ``operations``, ``violations``).  Replicas of
    different shards never share a host here, so view-based event
    attribution stays unambiguous.
    """
    if n_shards < 2:
        raise ClusterError("a rebalance check needs >= 2 shards")
    from repro.check import check_counter_consistency, check_invariants

    # Disjoint hosts per shard.
    run = ScenarioRun(n_shards * REPLICAS_PER_SHARD, n_clients, seed=seed,
                      journal=True, history=True)
    specs = [ShardSpec(
        name=f"shard{i}",
        style=(ReplicationStyle.WARM_PASSIVE if i % 2 == 0
               else ReplicationStyle.ACTIVE),
        n_replicas=REPLICAS_PER_SHARD, checkpoint_interval=1,
        hosts=tuple(f"s{i * REPLICAS_PER_SHARD + r + 1:02d}"
                    for r in range(REPLICAS_PER_SHARD)))
        for i in range(n_shards)]
    keys = [f"ctr{i:02d}" for i in range(n_keys)]
    cluster = _deploy_sharded(run, specs, keys,
                              lambda key: CounterServant(), n_clients)
    start = run.warm()

    run.start([ClosedLoopClient(stack, n_requests, object_keys=keys,
                                operation="add", payload=1,
                                payload_bytes=32)
               for stack in run.stacks])
    # Two live migrations, opposite directions, with requests in
    # flight: key 0 (shard0's) to shard1, key 1 (shard1's) to shard0.
    run.testbed.sim.schedule_at(
        start + REBALANCE_AT_US,
        lambda: cluster.coordinator.rebalance(keys[0], "shard1"))
    if n_keys > 1:
        run.testbed.sim.schedule_at(
            start + REBALANCE_AT_US * 2,
            lambda: cluster.coordinator.rebalance(keys[1], "shard0"))
    run.drain(max_rounds=400)
    run.testbed.run(2_000_000.0)

    history = run.history
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
    for violation in check_invariants(run.journal.events):
        violations.append(violation.to_dict())

    return run.record(
        run.elapsed_us,
        check={"ok": not violations, "operations": len(history.operations),
               "violations": violations},
        giveups=sum(stack.router.replicator(name).failures
                    for stack in run.stacks for name in cluster.shards),
        survivor_values=survivor_values,
        migrations_committed=cluster.coordinator.migrations_committed,
        rerouted=sum(stack.router.rerouted for stack in run.stacks),
        map_digests=[stack.router.map_digest for stack in run.stacks],
        digest=run.outcome_digest(sorted(survivor_values.items())))


# ---------------------------------------------------------------------------
# Campaign trial (the sharded unit of a fault-injection sweep)
# ---------------------------------------------------------------------------

def run_cluster_trial(style: ReplicationStyle, n_shards: int,
                      n_clients: int, duration_us: float,
                      rate_per_s: float, seed: int = 0,
                      checkpoint_interval: int = 1,
                      deadline_us: float = PAPER_LATENCY_LIMIT_US,
                      fault_load: str = "none",
                      settle_us: float = DEFAULT_SETTLE_US,
                      telemetry: bool = False,
                      journal: bool = False,
                      check: bool = False,
                      slo: bool = False) -> RunRecord:
    """One open-loop campaign trial against a sharded deployment.

    The sharded description of :func:`repro.experiments.run_fault_trial`
    — same validation, workload shape, metric definitions and record
    (they share the trial head and tail) — with the service
    sharded ``n_shards`` ways (every shard at ``style``) and a
    mid-window rebalance of one key, so campaign sweeps exercise the
    migration path as a matter of course.  ``fault_load`` is restricted
    to ``none`` and ``process_crash`` (which kills shard 0's primary):
    the other dictionary loads assume a single replica group.
    """
    from repro.campaign.dictionary import compile_load
    if fault_load not in ("none", "process_crash"):
        raise ClusterError(
            f"sharded trials support fault loads 'none' and "
            f"'process_crash', not {fault_load!r}")
    if n_shards < 2:
        raise ClusterError("a cluster trial needs >= 2 shards")
    n_server_hosts = n_shards + 1
    run = begin_trial(n_server_hosts, n_clients, duration_us, rate_per_s,
                      deadline_us, seed, telemetry, journal, check, slo)
    specs = _scaling_specs(n_shards, [style], n_server_hosts,
                           checkpoint_interval)
    keys = [f"obj{i:02d}" for i in range(2 * n_shards)]
    cluster = _deploy_sharded(
        run, specs, keys,
        lambda key: BusyServant(processing_us=15.0,
                                reply_bytes=DEFAULT_CLUSTER_REPLY_BYTES,
                                state_bytes=DEFAULT_CLUSTER_STATE_BYTES),
        n_clients)
    # Replica-indexed fault entries aim at shard 0's group.
    run.replicas = cluster.shards["shard0"].replicas
    t0 = run.warm()
    compile_load(fault_load, run)
    # Every sharded trial rebalances one key mid-window: migrations
    # are part of the measured behaviour, not a special case.
    run.testbed.sim.schedule_at(
        t0 + 0.5 * duration_us,
        lambda: cluster.coordinator.rebalance(
            keys[0], cluster.map.shards[-1]))

    loaders = [OpenLoopClient(stack, ConstantRate(rate_per_s),
                              duration_us,
                              object_key=keys[i % len(keys)],
                              payload_bytes=DEFAULT_CLUSTER_REQUEST_BYTES)
               for i, stack in enumerate(run.stacks)]
    return finish_trial(run, loaders, settle_us, deadline_us, keys, slo)
