"""The canonical crash/switch scenario and seedable protocol mutations.

One *schedule* is one deterministic run of the canonical scenario
under a scheduling policy: a warm-passive replicated counter with
synchronous per-request checkpoints, a closed-loop increment workload,
a mid-run Fig. 5 style switch initiated by a backup, an optional
primary crash, and a final read once the dust settles.  The scenario
is deliberately the shape under which the paper's strongest claims
hold (synchronous checkpoints with interval 1 are what make "no lost
acked updates" sound), so any violation the explorer finds is a real
protocol bug, not a modelling artifact.

``MUTATIONS`` holds deliberately broken protocol variants used to
prove the checker's teeth: the seeded mutation must be *caught*
within the default exploration budget (and the unmutated protocol
must pass with zero false positives).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.check.history import Operation
from repro.check.policies import SchedulerPolicy
from repro.errors import AdaptationError, Rule, VerificationError, check_fields
from repro.experiments import ScenarioRun
from repro.faults import FaultInjector
from repro.orb import CounterServant, GiopRequest
from repro.replication import (
    Checkpoint,
    ReplicationConfig,
    ReplicationStyle,
    RepReply,
    RepRequest,
)
from repro.replication.session import Session


#: The points of one synchronous checkpoint at which
#: ``crash_primary_phase`` can kill the primary: right after the state
#: capture (nothing published yet), right after the multicast (the
#: backups will apply it, the primary never sees it stable), and on
#: the stability self-delivery (every backup holds it, the replies it
#: covers never leave).
CHECKPOINT_PHASES = ("capture", "publish", "stable")


@dataclass(frozen=True)
class CheckScenario:
    """Parameters of one canonical-scenario run.

    ``crash_primary_at_us``/``switch_at_us`` are offsets from the
    start of the load window (``None`` disables the fault); the
    ``mutation`` name selects an entry of :data:`MUTATIONS`.
    """

    n_replicas: int = 3
    n_requests: int = 8
    checkpoint_interval: int = 1
    seed: int = 0
    switch_at_us: Optional[float] = 40_000.0
    crash_primary_at_us: Optional[float] = 90_000.0
    #: One of :data:`CHECKPOINT_PHASES`: the primary then dies at that
    #: phase of the first checkpoint it captures from
    #: ``crash_primary_at_us`` on, instead of at that instant.
    crash_primary_phase: Optional[str] = None
    #: Offset at which every backup crashes, to be redeployed on its
    #: host ``RESTART_AFTER_US`` later: whoever takes over from the
    #: primary afterwards got its state *and its client sessions*
    #: through state transfer.
    restart_backups_at_us: Optional[float] = None
    #: Retransmit the first acknowledged request once the faults have
    #: played out (a late duplicate from the network): whichever
    #: replica is primary by then must answer it from its client's
    #: session.
    late_duplicate: bool = False
    #: Offset (from load start) at which a symmetric partition isolates
    #: the last replica host into a minority component; ``None``
    #: disables the partition.  With a non-None value the testbed is
    #: built with primary-partition membership enabled.
    partition_at_us: Optional[float] = None
    #: Offset at which the partition heals (required with
    #: ``partition_at_us``; must exceed it).
    heal_at_us: Optional[float] = None
    #: Caps on the load wait and on each settle wait (the late
    #: duplicate's, the closing read's): a wait ends earlier, once the
    #: system is at rest (:func:`_run_until_quiet`).
    horizon_us: float = 8_000_000.0
    settle_us: float = 2_000_000.0
    retry_timeout_us: float = 120_000.0
    mutation: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready parameter dict (for repro artifacts)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CheckScenario":
        """Inverse of :meth:`to_dict`; rejects values no schedule can
        honour (the data comes from an artifact file)."""
        scenario = cls(**data)
        _validate(scenario)
        return scenario

    @property
    def partitioned(self) -> bool:
        """True when this scenario injects a network partition."""
        return self.partition_at_us is not None


def canonical_scenario(seed: int = 0,
                       mutation: Optional[str] = None) -> CheckScenario:
    """The default crash/switch scenario the CI smoke job explores."""
    return CheckScenario(seed=seed, mutation=mutation)


def canonical_partition_scenario(seed: int = 0,
                                 mutation: Optional[str] = None
                                 ) -> CheckScenario:
    """The canonical partition scenario: no switch, no crash — instead
    a symmetric split isolates the last replica host into a minority
    for two seconds mid-load, then heals.

    Under primary-partition membership the minority daemon must wedge
    (no concurrent view), the majority must keep serving the client
    (which sits majority-side with the sequencer), and the heal must
    merge views and re-sync the minority replica — all while the
    no-split-brain, no-lost-acked and at-most-once invariants hold.
    """
    return CheckScenario(seed=seed, mutation=mutation,
                         switch_at_us=None, crash_primary_at_us=None,
                         partition_at_us=8_000.0,
                         heal_at_us=2_008_000.0)


def canonical_checkpoint_crash_scenario(seed: int = 0,
                                        mutation: Optional[str] = None
                                        ) -> CheckScenario:
    """The canonical checkpoint-crash scenario: no switch — both
    backups crash and restart under load, so they hold only what state
    transfer gave them; then the primary dies at a phase of one of its
    checkpoints (the explorer cycles :data:`CHECKPOINT_PHASES`), a
    restarted backup takes over, and a late duplicate of the client's
    first request arrives.

    The request the primary was serving must be applied exactly once
    whichever phase it died in, and the late duplicate must be answered
    from its client's session — which the new primary has only if every
    hand-over shipped the session table with its replies.
    """
    return CheckScenario(seed=seed, mutation=mutation, n_requests=24,
                         switch_at_us=None,
                         restart_backups_at_us=8_000.0,
                         crash_primary_at_us=40_000.0,
                         crash_primary_phase=CHECKPOINT_PHASES[0],
                         late_duplicate=True)


@dataclass
class ScheduleOutcome:
    """Everything one schedule run produced, ready for checking."""

    scenario: CheckScenario
    operations: Tuple[Operation, ...]
    journal_events: List[Any]
    survivor_values: List[int]
    digest: str
    giveups: int
    events_dispatched: int = 0
    #: Events the journal refused past its ``max_events`` cap (non-zero
    #: means the evidence the checkers read is incomplete).
    journal_dropped: int = 0
    #: Request ids of the scenario's late duplicates no replica
    #: answered.
    unanswered_duplicates: Tuple[str, ...] = ()


def _mutate_skip_final_checkpoint(replicas) -> None:
    """Fig. 5 case 1 sabotage: the passive primary skips the "one more
    checkpoint" and jumps straight to step III.  Backups never see the
    final checkpoint, so they stay wedged in the PREPARING phase (and,
    if the primary later crashes, roll back from stale state)."""
    for replica in replicas:
        replicator = replica.replicator
        original = replicator._checkpoint

        def patched(final_for=None, sync_for=None,
                    _original=original, _replicator=replicator):
            if final_for is not None:
                _replicator._end_switch()
                return
            _original(final_for=final_for, sync_for=sync_for)

        replicator._checkpoint = patched


def _mutate_forget_seen_cache(replicas) -> None:
    """Failover sabotage: a replica restoring from a checkpoint drops
    the session table it carries, so a post-failover retry of an
    already-acknowledged request re-executes it (double-apply — the bug
    class the ``sessions`` field exists to fix)."""
    for replica in replicas:
        replicator = replica.replicator
        original = replicator._receive_checkpoint

        def patched(ckpt, _original=original):
            _original(replace(ckpt, sessions={}))

        replicator._receive_checkpoint = patched


def _mutate_watermarks_only(replicas) -> None:
    """Hand-over sabotage: every shipped session table keeps which
    requests ran but drops their replies.  Nothing runs twice, but the
    replica that takes over never answers a retry of a request the old
    primary ran: the held reply the crash swallowed, and the late
    duplicate."""
    for replica in replicas:
        replicator = replica.replicator
        original = replicator.ship_sessions

        def patched(_original=original):
            table = {client: Session(session.floor, session.above,
                                     awaited=session.awaited)
                     for client, session in _original().items()}
            for session in table.values():
                session.shipped = True  # receivers share them
            return table

        replicator.ship_sessions = patched


def _mutate_minority_serves(replicas) -> None:
    """Partition sabotage: switch the replicas' daemons back to
    partitionable membership, so a minority component installs its own
    concurrent view and keeps serving instead of wedging — the
    split-brain the primary-partition protocol exists to prevent.
    The checker must catch it via ``no_split_brain`` (a minority-only
    view inside the injected partition window) and/or
    ``daemon_view_agreement`` (two views sharing one id)."""
    for replica in replicas:
        daemon = replica.replicator.gcs.daemon
        daemon.cal = replace(daemon.cal, primary_partition=False)


#: Named protocol mutations for checker self-tests: name -> function
#: applied to the deployed replica list before the load starts.
MUTATIONS: Dict[str, Callable[[Any], None]] = {
    "skip_final_checkpoint": _mutate_skip_final_checkpoint,
    "forget_seen_cache": _mutate_forget_seen_cache,
    "watermarks_only": _mutate_watermarks_only,
    "minority_serves": _mutate_minority_serves,
}


#: Downtime (µs) of the backups ``restart_backups_at_us`` crashes.
RESTART_AFTER_US = 10_000.0


#: The declared rules of a :class:`CheckScenario`, checked first
#: because a scenario loaded from an artifact file can hold anything
#: JSON can spell.
SCENARIO_RULES = (
    Rule(("n_replicas", "n_requests", "checkpoint_interval"), int, ge=1),
    Rule(("seed",), int),
    Rule(("horizon_us", "settle_us", "retry_timeout_us"), float, gt=0),
    Rule(("switch_at_us", "crash_primary_at_us", "restart_backups_at_us",
          "partition_at_us", "heal_at_us"), float, ge=0, nullable=True),
    Rule(("late_duplicate",), bool),
    Rule(("mutation", "crash_primary_phase"), str, nullable=True),
)


def _validate(scenario: CheckScenario) -> None:
    """Reject parameter values and combinations no schedule can
    honour."""
    check_fields(vars(scenario), SCENARIO_RULES, VerificationError,
                 prefix="scenario ")
    if scenario.mutation is not None \
            and scenario.mutation not in MUTATIONS:
        raise VerificationError(
            f"unknown mutation {scenario.mutation!r}; "
            f"known: {sorted(MUTATIONS)}")

    if scenario.partitioned and (scenario.heal_at_us is None
                                 or scenario.heal_at_us
                                 <= scenario.partition_at_us):
        raise VerificationError(
            "a partition scenario needs heal_at_us > partition_at_us")
    if scenario.crash_primary_phase is not None \
            and (scenario.crash_primary_phase not in CHECKPOINT_PHASES
                 or scenario.crash_primary_at_us is None):
        raise VerificationError(
            f"crash_primary_phase must be one of {CHECKPOINT_PHASES} "
            f"and needs crash_primary_at_us")
    if scenario.restart_backups_at_us is not None \
            and scenario.crash_primary_at_us is not None \
            and scenario.crash_primary_at_us \
            <= scenario.restart_backups_at_us + RESTART_AFTER_US:
        raise VerificationError(
            "crash_primary_at_us must come after the backups restarted "
            "(restart_backups_at_us + RESTART_AFTER_US), or every "
            "replica is down at once and no protocol keeps the state")


def run_schedule(scenario: CheckScenario,
                 policy: Optional[Any] = None) -> ScheduleOutcome:
    """Run one deterministic schedule of the canonical scenario.

    ``policy`` (a :mod:`repro.check.policies` object, or ``None`` for
    the kernel's native ordering) perturbs tie-breaks and message
    delays; everything else — workload, faults, horizon — comes from
    the scenario parameters, so (scenario, policy decisions) fully
    identify the schedule.

    The group forms, elects a primary and settles through the warm-up
    under the identity policy; ``policy`` takes over where the load
    window opens, so its recorded decisions start at the first request
    and every schedule of one scenario shares the same warmed state.
    """
    _validate(scenario)
    # Always install the identity policy: the warmup then runs with
    # (0, n) sequence tuples — ordered exactly like the plain integer
    # counter — and the walk policy is swapped in below.  Partition
    # scenarios run the primary-partition membership protocol.
    run = ScenarioRun(scenario.n_replicas, 1, seed=scenario.seed,
                      journal=True, history=True,
                      primary_partition=scenario.partitioned,
                      scheduler_policy=SchedulerPolicy())
    run.deploy_group(
        ReplicationConfig(
            style=ReplicationStyle.WARM_PASSIVE, group="svc",
            checkpoint_interval_requests=scenario.checkpoint_interval),
        {"counter": CounterServant}, scenario.n_replicas, 1,
        retry_timeout_us=scenario.retry_timeout_us)
    testbed, replicas, injector = run.testbed, run.replicas, run.injector
    client, history = run.stacks[0], run.history
    start = run.warm()

    if policy is not None:
        testbed.sim.swap_scheduler_policy(policy)
    # Applied after the warmup: every mutation patches behaviour that
    # first matters once the load below drives requests.
    if scenario.mutation is not None:
        MUTATIONS[scenario.mutation](replicas)

    def next_request(remaining: int) -> None:
        if remaining == 0:
            return
        client.orb_client.invoke(
            "counter", "add", 1, 32,
            lambda _reply: next_request(remaining - 1))

    # The instants the planned switch, faults, restarts and heal fire
    # at; a phase crash's instant is known once it strikes.
    planned = [start]
    if scenario.switch_at_us is not None:
        initiator = replicas[-1]

        def fire_switch() -> None:
            if not initiator.alive:
                return
            try:
                initiator.replicator.request_switch(ReplicationStyle.ACTIVE)
            except AdaptationError:
                pass  # already there (e.g. a rollback raced the timer)

        testbed.sim.schedule_at(start + scenario.switch_at_us, fire_switch)
        planned.append(start + scenario.switch_at_us)
    # Faults go through the injector (not a raw kill) so the journal
    # carries the fault.inject ground truth the availability
    # accounting, the split-brain monitor and the SLO fault/alert
    # cross-check match against.
    crashed: List[float] = []  # the instant a phase crash struck
    if scenario.crash_primary_phase is not None:
        crashed = _crash_at_checkpoint_phase(
            injector, replicas[0], scenario.crash_primary_phase,
            start + scenario.crash_primary_at_us)
    elif scenario.crash_primary_at_us is not None:
        injector.crash_process_at(replicas[0].process,
                                  start + scenario.crash_primary_at_us)
        planned.append(start + scenario.crash_primary_at_us)
    if scenario.restart_backups_at_us is not None:
        for index in range(1, len(replicas)):
            injector.crash_and_restart_at(
                replicas[index].process,
                start + scenario.restart_backups_at_us, RESTART_AFTER_US,
                restart=lambda index=index: run.respawn_replica(index))
        planned.append(start + scenario.restart_backups_at_us
                       + RESTART_AFTER_US)
    if scenario.partitioned:
        # Isolate the LAST replica host: the sequencer (lowest
        # host) and the client both stay majority-side, so the
        # majority keeps serving and no acked update can be
        # stranded minority-side.
        minority = f"s{scenario.n_replicas:02d}"
        injector.partition_at([[minority]],
                              start + scenario.partition_at_us,
                              start + scenario.heal_at_us)
        planned.append(start + scenario.heal_at_us)
    next_request(scenario.n_requests)
    last_planned = max(planned)

    def fired() -> bool:
        """True once every planned fault, heal, restart and switch has
        fired: a phase crash has struck and no live replica is still in
        a switch (the fixed instants lie behind the wait's jump)."""
        return (scenario.crash_primary_phase is None or bool(crashed)) \
            and not any(replica.alive and replica.replicator.switching
                        for replica in run.replicas)

    _run_until_quiet(run, scenario.horizon_us, last_planned, fired)

    unanswered: List[str] = []
    if scenario.late_duplicate:
        first = next((op for op in history.operations if not op.pending),
                     None)
        if first is not None:
            unanswered.append(first.op_id)
            deliver = client.replicator._on_direct

            def watch(sender, payload, nbytes) -> None:
                if isinstance(payload, RepReply) \
                        and payload.reply.request_id in unanswered:
                    unanswered.remove(payload.reply.request_id)
                deliver(sender, payload, nbytes)

            client.gcs.on_direct(watch)
            duplicate = RepRequest(
                request=GiopRequest(
                    request_id=first.op_id, object_key=first.object_key,
                    operation=first.operation, payload=first.payload,
                    payload_bytes=32),
                client=client.gcs.member)
            client.gcs.multicast("svc", duplicate, duplicate.wire_bytes)
            _run_until_quiet(run, scenario.settle_us, last_planned, fired)

    # The closing read: observed through the same history capture, it
    # forces the final state onto the client-visible record.
    client.orb_client.invoke("counter", "read", 0, 32, lambda _reply: None)
    _run_until_quiet(run, scenario.settle_us, last_planned, fired)

    survivor_values = [r.servants["counter"].value
                       for r in replicas if r.alive]
    return ScheduleOutcome(
        scenario=scenario,
        operations=history.operations,
        journal_events=list(run.journal.events),
        survivor_values=survivor_values,
        digest=run.outcome_digest(sorted(survivor_values)),
        giveups=client.replicator.failures,
        events_dispatched=testbed.sim.events_dispatched,
        journal_dropped=run.journal.dropped,
        unanswered_duplicates=tuple(unanswered))


def _run_until_quiet(run: ScenarioRun, cap_us: float, planned_us: float,
                     fired: Callable[[], bool]) -> None:
    """Run until the system is at rest, or for ``cap_us`` at most.

    The wait jumps to ``planned_us``, the last planned instant, then
    advances in slices of one ``retransmit_timeout_us`` and ends at the
    first slice end at which no client request is pending, every
    planned action has ``fired`` and :func:`_at_rest` holds.

    The loop only advances the clock to instants it computes: it
    schedules no event, so it draws no policy decision, and the run
    up to its end is the run a fixed wait of ``cap_us`` makes.
    """
    sim = run.testbed.sim
    slice_us = run.testbed.calibration.gcs.retransmit_timeout_us
    cap = sim.now + cap_us
    if planned_us > sim.now:
        sim.run(until=min(planned_us, cap))
    while sim.now < cap:
        sim.run(until=min(sim.now + slice_us, cap))
        if not any(op.pending for op in run.history.operations) \
                and fired() and _at_rest(run):
            return


def _at_rest(run: ScenarioRun) -> bool:
    """True when nothing but liveness timers is left to run: no CPU
    has a job, every live daemon is at rest in one view whose members
    are exactly the live daemons, and every live replica is at rest."""
    testbed = run.testbed
    if not all(host.cpu.idle for host in testbed.hosts.values()
               if host.alive):
        return False
    daemons = [d for d in testbed.daemons.values() if d.alive]
    views = {d.view for d in daemons}
    return len(views) == 1 \
        and set(views.pop().members) == {d.host.name for d in daemons} \
        and all(d.at_rest for d in daemons) \
        and all(r.replicator.at_rest for r in run.replicas if r.alive)


def _crash_at_checkpoint_phase(injector: FaultInjector, replica: Any,
                               phase: str, armed_at_us: float
                               ) -> List[float]:
    """Kill ``replica`` at ``phase`` of the first checkpoint it captures
    at or after ``armed_at_us`` (absolute simulated time); returns the
    list the crash instant is appended to once it fires."""
    replicator = replica.replicator
    sim = replicator.sim
    doomed: List[int] = []  # ckpt_id of the checkpoint to die on
    crashed: List[float] = []

    def crash() -> None:
        crashed.append(sim.now)
        injector.crash_process_at(replica.process, sim.now)

    def is_doomed(payload: Any) -> bool:
        return (isinstance(payload, Checkpoint) and bool(doomed)
                and payload.source == replicator.member
                and payload.ckpt_id == doomed[0])

    capture, multicast, deliver = (replicator._checkpoint,
                                   replicator.gcs.multicast,
                                   replicator._receive_checkpoint)

    def checkpoint(final_for=None, sync_for=None) -> None:
        capture(final_for=final_for, sync_for=sync_for)
        if not doomed and sim.now >= armed_at_us:
            doomed.append(replicator._ckpt_ids)
            if phase == "capture":
                crash()

    def publish(group, payload, nbytes) -> None:
        multicast(group, payload, nbytes)
        if phase == "publish" and is_doomed(payload):
            crash()

    def stable(ckpt) -> None:
        if phase == "stable" and is_doomed(ckpt):
            crash()
            return  # dies with the stability notification unread
        deliver(ckpt)

    replicator._checkpoint = checkpoint
    replicator.gcs.multicast = publish
    replicator._receive_checkpoint = stable
    return crashed
