"""Scenario determinism, exploration, mutation detection, artifacts.

The golden-ordering guarantee — the kernel with no policy (or the
identity policy) dispatches events byte-identically to the pre-hook
kernel — is asserted two ways: digest equality between plain and
identity-policy runs here, and the pre-existing golden digests in
``tests/sim/test_golden_determinism.py`` staying green.
"""

import gc
import json
import multiprocessing
import os
import signal
import tracemalloc
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import pytest

from repro.check import (MUTATIONS, CheckScenario, RandomWalkPolicy,
                         ReplayPolicy, SchedulerPolicy,
                         canonical_partition_scenario, canonical_scenario,
                         explore, load_artifact, minimize, replay,
                         run_schedule, write_artifact)
from repro.check import explorer as explorer_module
from repro.check import scenario as scenario_module
from repro.check.artifact import artifact_from_report
from repro.check.policies import Decisions
from repro.errors import SimulationError, VerificationError
from repro.sim import Simulator
from tests.test_golden_digests import EXPLORATIONS

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()


def _small_scenario(**overrides):
    """A shrunk canonical scenario: seconds of sim time, not tens."""
    base = replace(canonical_scenario(), n_requests=4,
                   horizon_us=1_000_000.0, settle_us=500_000.0)
    return replace(base, **overrides)


def _on_cpus(monkeypatch, n):
    """Make the explorer see ``n`` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(n)), raising=False)


class TestKernelPolicyHook:
    def test_identity_policy_is_byte_identical_to_no_policy(self):
        scenario = _small_scenario()
        plain = run_schedule(scenario)
        identity = run_schedule(scenario, SchedulerPolicy())
        assert identity.digest == plain.digest

    def test_same_schedule_twice_is_deterministic(self):
        scenario = _small_scenario()
        policy_digests = {
            run_schedule(scenario, RandomWalkPolicy(seed=5)).digest
            for _ in range(2)}
        assert len(policy_digests) == 1

    def test_random_walks_actually_perturb_ordering(self):
        scenario = _small_scenario()
        digests = {run_schedule(scenario, RandomWalkPolicy(
            seed=s, delay_bound_us=150.0)).digest for s in range(3)}
        assert len(digests) > 1

    def test_policy_must_be_installed_before_scheduling(self):
        sim = Simulator(seed=1)
        sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.set_scheduler_policy(SchedulerPolicy())


@pytest.fixture
def wait_ends(monkeypatch):
    """The instant each of a schedule's waits ended, and its run."""
    ends, runs = [], []
    wait = scenario_module._run_until_quiet

    def recorded(run, cap_us, planned_us, fired):
        wait(run, cap_us, planned_us, fired)
        runs.append(run)
        ends.append(run.testbed.now)

    monkeypatch.setattr(scenario_module, "_run_until_quiet", recorded)
    return ends, runs


_RUN_UNTIL_QUIET = scenario_module._run_until_quiet


def _extend_wait(monkeypatch, index):
    """Make wait ``index`` of each schedule run on for twice the
    failure timeout past its end; return, per extended wait, whether
    it had ended at rest and what the extension added: journal events
    and completions."""
    added = []
    current = [None, 0]  # the run, and its waits so far

    def extended(run, cap_us, planned_us, fired):
        cap = run.testbed.now + cap_us
        _RUN_UNTIL_QUIET(run, cap_us, planned_us, fired)
        if current[0] is not run:
            current[:] = [run, 0]
        current[1] += 1
        if current[1] - 1 != index:
            return

        def progress():
            return (len(run.journal.events),
                    sum(not op.pending for op in run.history.operations))

        sim = run.testbed.sim
        at_rest, before = sim.now < cap, progress()
        sim.run(until=sim.now + 2 * run.testbed.calibration.gcs
                .failure_timeout_us)
        after = progress()
        added.append((at_rest, after[0] - before[0], after[1] - before[1]))

    monkeypatch.setattr(scenario_module, "_run_until_quiet", extended)
    return added


class TestQuietEnd:
    """A schedule's waits end at the first slice end at which the
    system is at rest; the horizon and settle values are caps."""

    def test_canonical_run_ends_early(self):
        # Waits for 2 x failure_timeout_us of quiet dispatched 856,
        # 1,287 and 1,663 events for the same journals.
        outcomes = [run_schedule(make(seed=1)) for make in (
            canonical_scenario, canonical_partition_scenario,
            scenario_module.canonical_checkpoint_crash_scenario)]
        assert [(o.events_dispatched, len(o.journal_events))
                for o in outcomes] == [(529, 58), (814, 69), (1_182, 110)]

    def test_wait_jumps_to_the_last_plan_then_slices(self, wait_ends):
        # The load wait runs straight to the crash instant, then in
        # retransmit_timeout_us slices to the first one that ends at
        # rest.
        scenario = canonical_scenario(seed=1)
        run_schedule(scenario)
        ends, (run, *_) = wait_ends
        slice_us = run.testbed.calibration.gcs.retransmit_timeout_us
        planned = run.t0 + scenario.crash_primary_at_us
        slices = (ends[0] - planned) / slice_us
        assert slices >= 1 and slices == pytest.approx(round(slices))
        assert ends[0] < planned + 100 * slice_us

    @pytest.mark.parametrize("name", sorted(EXPLORATIONS))
    def test_rest_is_final(self, monkeypatch, name):
        """Each wait of every walk behind an ``explore`` literal, and
        of the policy-free run, ends at rest, and twice the failure
        timeout more adds no journal event and no completion."""
        make, budget = EXPLORATIONS[name]
        scenario = make(seed=1)
        for index in range(3 if scenario.late_duplicate else 2):
            added = _extend_wait(monkeypatch, index)
            run_schedule(scenario)
            for i in range(budget):
                explorer_module._walk((scenario, i, i, 4, 150.0))
            assert added == [(True, 0, 0)] * (budget + 1)

    def test_each_layer_can_hold_rest_off(self, wait_ends):
        # A walk ends at rest; a CPU job, a frame on a reliable link or
        # an unsynced replica each puts it back in motion.
        run_schedule(canonical_scenario(seed=1))
        _, (run, *_) = wait_ends
        at_rest, testbed = scenario_module._at_rest, run.testbed
        assert at_rest(run)
        testbed.hosts["s02"].cpu.execute(10.0, lambda: None)
        assert not at_rest(run)
        testbed.run(10.0)
        assert at_rest(run)
        testbed.daemons["s02"]._send_to("s03")("stray", 16)
        assert not at_rest(run)
        testbed.run(2 * testbed.calibration.gcs.retransmit_timeout_us)
        assert at_rest(run)
        run.replicas[1].replicator._unsync()
        assert not at_rest(run)

    def test_late_crash_fails_over_before_the_closing_read(self):
        # The crash at variation 2.4 strikes long after the load; the
        # view that removes the dead primary comes before the read.
        scenario = replace(canonical_scenario(seed=1),
                           crash_primary_at_us=90_000.0 * 2.4)
        outcome = run_schedule(scenario)
        read = outcome.operations[-1]
        assert read.operation == "read" and read.result == 8
        failover = [e for e in outcome.journal_events
                    if e.kind == "membership.view"
                    and any("@s01" in m for m in e.attrs.get("left", ()))]
        assert failover
        assert max(e.time_us for e in failover) < read.invoked_at
        assert outcome.survivor_values == [8, 8]

    def test_partition_heals_and_merges_before_the_closing_read(self):
        outcome = run_schedule(canonical_partition_scenario(seed=1))
        read = outcome.operations[-1]
        kinds = [(e.kind, len(e.attrs.get("members", ())))
                 for e in outcome.journal_events
                 if e.time_us < read.invoked_at]
        healed = kinds.index(("partition.healed", 4))  # daemon hosts
        assert ("membership.view", 3) in kinds[healed:]  # replicas
        assert outcome.survivor_values == [8, 8, 8]

    def test_wedged_switch_runs_to_the_caps_and_is_flagged(self,
                                                           wait_ends):
        # Walk 2 crashes the primary before its switch: the backups
        # stay in PREPARING, so no wait sees the system at rest.
        scenario = canonical_scenario(mutation="skip_final_checkpoint")
        variant, _digest, violations, _decisions = explorer_module._walk(
            (scenario, 2, 2, 4, 150.0))
        ends, (run, *_) = wait_ends
        cap = run.t0 + scenario.horizon_us
        assert ends == [cap, cap + scenario.settle_us]
        assert "switch_bounded_completion" in {
            v.invariant for v in violations}

    @pytest.mark.parametrize("phase", scenario_module.CHECKPOINT_PHASES)
    def test_late_duplicate_answer_keeps_the_live_primary(self, phase):
        """The answer to the late duplicate comes from the reply cache
        of the backup that took over.  It names that backup as primary,
        so the closing read goes to a live replica and needs no retry."""
        scenario = replace(
            scenario_module.canonical_checkpoint_crash_scenario(seed=1),
            crash_primary_phase=phase)
        read = run_schedule(scenario).operations[-1]
        assert read.operation == "read" and not read.pending
        assert read.completed_at - read.invoked_at \
            < scenario.retry_timeout_us

    def test_quiet_end_equals_a_cap_at_that_instant(self, wait_ends):
        # The rule only advances the clock: a load wait it ends at T is
        # the load wait a cap of T makes, decision for decision.
        scenario = canonical_scenario(seed=1)
        quiet = RandomWalkPolicy(seed=3, delay_bound_us=150.0)
        outcome = run_schedule(scenario, quiet)
        ends, (run, *_) = wait_ends
        capped = RandomWalkPolicy(seed=3, delay_bound_us=150.0)
        again = run_schedule(replace(scenario,
                                     horizon_us=ends[0] - run.t0), capped)
        assert ends[2] == ends[0]
        assert again.digest == outcome.digest
        assert list(capped.decisions) == list(quiet.decisions)


class TestScenarioRoundTrip:
    def test_to_dict_from_dict_round_trips(self):
        scenario = canonical_scenario(seed=3,
                                      mutation="skip_final_checkpoint")
        assert CheckScenario.from_dict(scenario.to_dict()) == scenario

    def test_known_mutations_registered(self):
        assert set(MUTATIONS) == {"skip_final_checkpoint",
                                  "forget_seen_cache",
                                  "watermarks_only",
                                  "minority_serves"}


class TestExploration:
    def test_small_clean_exploration_verifies(self):
        result = explore(_small_scenario(), budget=3)
        assert result.ok
        assert result.schedules_run == 3
        assert result.distinct_schedules >= 1
        assert all(r.decisions for r in result.reports)

    def test_truncated_journal_rings_are_surfaced(self, monkeypatch):
        """A journal that dropped events past ``max_events`` flags the
        verdict as incomplete."""
        import repro.experiments.run as run_module
        from repro.sim import JournalConfig

        def flags(journal_config):
            tiny = replace(run_module.default_calibration(),
                           journal=journal_config)
            monkeypatch.setattr(run_module, "default_calibration",
                                lambda: tiny)
            outcome = run_schedule(_small_scenario())
            return outcome, [v for v in
                             explorer_module.verify_outcome(outcome)
                             if v.invariant == "journal_truncated"]

        outcome, (flag,) = flags(JournalConfig(max_events=20))
        assert len(outcome.journal_events) == 20
        assert outcome.journal_dropped > 0
        assert flag.details == {"dropped": outcome.journal_dropped}

    def test_a_stalled_walk_reports_progress(self, monkeypatch):
        """A read whose reply never comes is legal for linearizability
        and breaks no invariant: only the progress verdict sees it."""
        from repro.orb.server import OrbServer
        finish = OrbServer._finish

        def drop_reads(self, request, send_reply, result, status):
            if request.operation != "read":
                finish(self, request, send_reply, result, status)

        monkeypatch.setattr(OrbServer, "_finish", drop_reads)
        outcome = run_schedule(canonical_scenario(seed=1))
        (violation,) = explorer_module.verify_outcome(outcome)
        (pending,) = [op for op in outcome.operations if op.pending]
        assert pending.operation == "read"
        assert violation.invariant == "progress"
        assert violation.details == {"pending": [pending.op_id]}
        assert pending.op_id in violation.message

    def test_skip_final_checkpoint_caught_within_default_budget(self):
        # The seeded protocol bug: the switch coordinator skips the
        # final state checkpoint, so the post-switch read loses acked
        # increments.  Must be found well inside the CI budget of 200.
        scenario = canonical_scenario(mutation="skip_final_checkpoint")
        result = explore(scenario, budget=10)
        assert not result.ok
        violating = result.violating[0]
        invariants = {v.invariant for v in violating.violations}
        assert invariants  # at least one checker fired
        assert violating.decisions

    def test_reports_replay_through_run_schedule(self):
        # A report's (scenario variant, walk seed) identifies its
        # schedule: running that pair again digests byte-identically —
        # the property repro artifacts rely on.
        result = explore(_small_scenario(), budget=3,
                         stop_on_violation=False)
        assert result.schedules_run == 3
        for report in result.reports:
            again = run_schedule(
                report.scenario,
                RandomWalkPolicy(seed=report.walk_seed, tie_choices=4,
                                 delay_bound_us=150.0))
            assert again.digest == report.digest

    @pytest.mark.parametrize("overrides", [
        {"budget": 0}, {"budget": -3}, {"tie_choices": 0},
        {"delay_bound_us": -1.0}, {"delay_bound_us": float("nan")},
        {"delay_bound_us": float("inf")},
        {"scenario": _small_scenario(n_replicas=0)},
        {"scenario": _small_scenario(heal_at_us=None,
                                     partition_at_us=8_000.0)},
        {"budget": 2.5}, {"budget": True}, {"budget": "4"},
        {"tie_choices": 2.5}, {"tie_choices": True},
        {"tie_choices": float("nan")}, {"tie_choices": float("inf")},
        {"tie_choices": 2 ** 64}])
    def test_unusable_parameters_rejected_before_any_walk(
            self, monkeypatch, overrides):
        # A budget of 0 would otherwise verify "clean" with no
        # schedule run at all.
        def no_walk(*_args):
            pytest.fail("a walk ran despite unusable parameters")

        monkeypatch.setattr(explorer_module, "run_schedule", no_walk)
        kwargs = {"scenario": _small_scenario(), "budget": 4, **overrides}
        with pytest.raises(VerificationError):
            explore(**kwargs)


class TestDecisionTraces:
    """Reports keep each walk's decisions as a compact
    :class:`~repro.check.policies.Decisions` trace."""

    def test_retained_bytes_per_decision(self):
        # A list held ~16 B a decision (a slot plus a boxed float per
        # delay); the two columns hold ~4 (1 B a tie-break, 9 B a delay).
        gc.collect()
        tracemalloc.start()
        try:
            # About 1,000 decisions a walk since walks end when quiet.
            result = explore(canonical_scenario(seed=1), budget=50,
                             stop_on_violation=False)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            decisions = sum(len(r.decisions) for r in result.reports)
            del result
            gc.collect()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert decisions > 20 * 1_000
        assert held / decisions <= 6.0

    @pytest.mark.parametrize("tie_choices", [4, 300])
    def test_report_decisions_replay_the_walk(self, tie_choices):
        result = explore(_small_scenario(), budget=2,
                         tie_choices=tie_choices, stop_on_violation=False)
        assert result.ok
        for report in result.reports:
            assert isinstance(report.decisions, Decisions)
            assert report.decisions.tie_choices == tie_choices
            policy = ReplayPolicy(report.decisions, delay_bound_us=150.0)
            again = run_schedule(report.scenario, policy)
            assert again.digest == report.digest
            assert policy.exhausted


class TestParallelExploration:
    """A walk is a pure function of (scenario, index) and results are
    consumed in walk order: one CPU and two give equal results."""

    @staticmethod
    def _explore_on(monkeypatch, cpus, scenario, **kwargs):
        _on_cpus(monkeypatch, cpus)
        calls = []
        result = explore(scenario, progress=lambda i, _r: calls.append(i),
                         **kwargs)
        return result, calls

    @staticmethod
    def _fields(report):
        return (report.walk_seed, report.scenario, report.digest,
                report.fresh, report.violations, report.decisions)

    def test_clean_exploration_identical(self, monkeypatch):
        runs = [self._explore_on(monkeypatch, cpus, _small_scenario(),
                                 budget=4, stop_on_violation=False)
                for cpus in (1, 2)]
        (serial, serial_calls), (pooled, pooled_calls) = runs
        assert serial.ok and pooled.ok
        assert serial_calls == pooled_calls == [0, 1, 2, 3]
        assert [self._fields(r) for r in serial.reports] \
            == [self._fields(r) for r in pooled.reports]
        assert (serial.schedules_run, serial.distinct_schedules) \
            == (pooled.schedules_run, pooled.distinct_schedules)

    def test_wide_token_column_identical(self, monkeypatch):
        # tie_choices 300 needs 2-byte tokens; they cross the pool pipe
        # pickled and must read back as the one-CPU run's values.
        (serial, _), (pooled, _) = [
            self._explore_on(monkeypatch, cpus, _small_scenario(),
                             budget=3, tie_choices=300,
                             stop_on_violation=False)
            for cpus in (1, 2)]
        assert [self._fields(r) for r in serial.reports] \
            == [self._fields(r) for r in pooled.reports]
        assert {memoryview(r.decisions.tokens).format
                for r in pooled.reports} == {"H"}

    def test_stop_on_violation_stops_at_the_same_walk(self, monkeypatch):
        scenario = canonical_scenario(mutation="skip_final_checkpoint")
        (serial, _), (pooled, _) = [
            self._explore_on(monkeypatch, cpus, scenario, budget=10)
            for cpus in (1, 2)]
        assert not serial.ok
        assert serial.schedules_run == pooled.schedules_run
        assert self._fields(serial.violating[0]) \
            == self._fields(pooled.violating[0])

    @pytest.mark.skipif(not HAVE_FORK, reason="workers must inherit "
                                              "the patched run_schedule")
    def test_a_raising_walk_surfaces_and_leaves_no_worker(self,
                                                          monkeypatch):
        real = explorer_module.run_schedule

        def walk_one_raises(variant, policy):
            if policy.seed == 1:
                raise ValueError("walk 1 failed")
            return real(variant, policy)

        monkeypatch.setattr(explorer_module, "run_schedule",
                            walk_one_raises)
        for cpus in (1, 2):
            _on_cpus(monkeypatch, cpus)
            calls = []
            with pytest.raises(ValueError, match="walk 1 failed"):
                explore(_small_scenario(), budget=4,
                        progress=lambda i, _r: calls.append(i))
            assert calls == [0]
            assert multiprocessing.active_children() == []

    @pytest.mark.skipif(not HAVE_FORK or not hasattr(signal, "SIGALRM"),
                        reason="workers must inherit the patched "
                               "run_schedule; the hang guard needs SIGALRM")
    def test_a_dying_worker_raises_instead_of_hanging(self, monkeypatch):
        real = explorer_module.run_schedule

        def walk_one_dies(variant, policy):
            if policy.seed == 1:
                os._exit(9)  # a worker killed mid-walk (signal, OOM)
            return real(variant, policy)

        def hung(_signum, _frame):
            raise TimeoutError("explore() hung on a dead worker")

        monkeypatch.setattr(explorer_module, "run_schedule", walk_one_dies)
        _on_cpus(monkeypatch, 2)
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                explore(_small_scenario(), budget=4)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []


class TestArtifacts:
    @pytest.fixture(scope="class")
    def violating_report(self):
        scenario = canonical_scenario(mutation="skip_final_checkpoint")
        result = explore(scenario, budget=10)
        assert not result.ok
        return result.violating[0]

    def test_artifact_replays_byte_identically(self, violating_report):
        artifact = artifact_from_report(violating_report,
                                        tie_choices=4,
                                        delay_bound_us=150.0)
        outcome = replay(artifact)
        assert outcome.identical
        assert outcome.reproduced
        assert outcome.digest == violating_report.digest

    def test_minimize_keeps_the_failure(self, violating_report):
        artifact = artifact_from_report(violating_report,
                                        tie_choices=4,
                                        delay_bound_us=150.0)
        small = minimize(artifact)
        assert small.minimized
        assert small.violations
        assert small.scenario.n_requests <= artifact.scenario.n_requests
        assert small.scenario.horizon_us <= artifact.scenario.horizon_us
        assert replay(small).reproduced

    def test_artifact_file_round_trip(self, violating_report, tmp_path):
        artifact = artifact_from_report(violating_report,
                                        tie_choices=4,
                                        delay_bound_us=150.0)
        path = tmp_path / "repro.json"
        write_artifact(artifact, str(path))
        assert load_artifact(str(path)) == artifact

    @pytest.mark.parametrize("field, bad", [
        ("decisions", -50_000.0), ("decisions", 150.5),
        ("decisions", -1), ("decisions", 4), ("decisions", "abc"),
        ("decisions", True), ("decisions", float("nan")),
        ("decisions", None),
        ("tie_choices", 0), ("delay_bound_us", -1.0),
        ("delay_bound_us", float("inf")),
        # The scenario section: built and run as it is, too.
        ("n_replicas", 0), ("n_replicas", 2.5), ("n_requests", "8"),
        ("horizon_us", "x"), ("seed", [1]),
        ("crash_primary_at_us", -1.0), ("retry_timeout_us", 0),
        ("checkpoint_interval", 0), ("settle_us", float("nan")),
        ("late_duplicate", "yes"), ("n_requests", True),
        ("mutation", ["skip_final_checkpoint"]),
        # Exact ints only: a float or a string is not silently cast.
        ("tie_choices", 2.5), ("tie_choices", "3"),
        ("tie_choices", True), ("tie_choices", 4.0), ("tie_choices", "4"),
        ("tie_choices", 2 ** 64), ("walk_seed", 2.5), ("walk_seed", "3"),
        ("walk_seed", True), ("walk_seed", None),
        # Only this format's version: a version-1 or version-2 trace
        # was recorded under other wait rules and cannot replay.
        ("version", 1), ("version", 2), ("version", 99), ("version", 0),
        ("version", "3"), ("version", 2.0), ("version", 3.0),
        ("version", None)])
    def test_tampered_policy_rejected_at_load(self, violating_report,
                                              tmp_path, field, bad):
        # Replay hands decisions to the kernel and the scenario to the
        # deploy helpers as they are, so a value no recorded walk could
        # contain must fail the load, typed.
        data = artifact_from_report(violating_report, tie_choices=4,
                                    delay_bound_us=150.0).to_dict()
        if field == "decisions":
            data["policy"]["decisions"][0] = bad
        elif field == "version":
            data["version"] = bad
        elif field in data["policy"]:
            data["policy"][field] = bad
        else:
            assert field in data["scenario"]
            data["scenario"][field] = bad
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        with pytest.raises(VerificationError, match="malformed"):
            load_artifact(str(path))


class TestPartitionScenario:
    def _scenario(self, **overrides):
        from repro.check import canonical_partition_scenario
        base = replace(canonical_partition_scenario(), n_requests=4,
                       horizon_us=4_000_000.0, settle_us=1_000_000.0)
        return replace(base, **overrides)

    def test_clean_partition_exploration_verifies(self):
        result = explore(self._scenario(), budget=2)
        assert result.ok
        assert result.schedules_run == 2
        # Ground truth made it into every schedule's journal.
        for report in result.reports:
            assert report.decisions

    def test_minority_serves_caught(self):
        result = explore(self._scenario(mutation="minority_serves"),
                         budget=10)
        assert not result.ok
        invariants = {v.invariant
                      for v in result.violating[0].violations}
        assert invariants & {"no_split_brain", "daemon_view_agreement"}

    def test_partition_scenario_requires_heal_after_split(self):
        with pytest.raises(VerificationError):
            run_schedule(self._scenario(heal_at_us=None))
        with pytest.raises(VerificationError):
            run_schedule(self._scenario(heal_at_us=8_000.0))


class TestCheckpointCrashScenario:
    """Restarted backups, then the primary dies at a checkpoint phase
    and a late duplicate of the first request arrives."""

    def _scenario(self, **overrides):
        from repro.check import canonical_checkpoint_crash_scenario
        base = replace(canonical_checkpoint_crash_scenario(),
                       horizon_us=2_000_000.0, settle_us=500_000.0)
        return replace(base, **overrides)

    def test_every_phase_verifies_clean(self):
        from repro.check import CHECKPOINT_PHASES
        result = explore(self._scenario(), budget=2 * len(CHECKPOINT_PHASES))
        assert result.ok
        assert [r.scenario.crash_primary_phase for r in result.reports] \
            == list(CHECKPOINT_PHASES) * 2
        # The arming instant is not varied: it must stay after the
        # backups' restart.
        assert {r.scenario.crash_primary_at_us for r in result.reports} \
            == {self._scenario().crash_primary_at_us}

    def test_the_promoted_replica_is_a_restarted_one(self):
        outcome = run_schedule(self._scenario(crash_primary_phase="publish"))
        takeovers = [e for e in outcome.journal_events
                     if e.kind == "failover"]
        assert len(takeovers) == 1
        assert takeovers[0].attrs["process"].endswith("+")
        assert outcome.survivor_values == [24, 24]

    @pytest.mark.parametrize("phase", ["capture", "publish", "stable"])
    def test_watermarks_only_caught_in_every_phase(self, phase):
        """Sessions shipped without their replies: nothing runs twice,
        but the late duplicate is never answered."""
        result = explore(self._scenario(mutation="watermarks_only",
                                        crash_primary_phase=phase),
                         budget=1)
        assert not result.ok
        (violation,) = result.violating[0].violations
        assert violation.invariant == "progress"
        assert violation.details["pending"][0].startswith(
            "late duplicate ")

    def test_the_late_duplicate_is_answered_from_the_sessions(self):
        outcome = run_schedule(self._scenario(crash_primary_phase="stable"))
        assert outcome.unanswered_duplicates == ()
        assert not explorer_module.verify_outcome(outcome)

    def test_phase_and_restart_parameters_validated(self):
        with pytest.raises(VerificationError):
            run_schedule(self._scenario(crash_primary_phase="commit"))
        with pytest.raises(VerificationError):
            run_schedule(self._scenario(crash_primary_at_us=None))
        with pytest.raises(VerificationError):
            # Primary down before the backups are back: total failure.
            run_schedule(self._scenario(crash_primary_at_us=12_000.0))
