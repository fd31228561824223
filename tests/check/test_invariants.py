"""Invariant monitors over hand-built journal event streams."""

from repro.check import (Operation, Violation, check_counter_consistency,
                         check_invariants)
from repro.check.invariants import departed_hosts
from repro.journal import JournalEvent


def _ev(kind, host, time_us=0.0, seq=0, **attrs):
    return JournalEvent(seq=seq, time_us=time_us, host=host,
                        component="test", kind=kind, attrs=attrs)


def _view(host, view_id, members, left=(), time_us=0.0, group="svc"):
    return _ev("membership.view", host, time_us=time_us, group=group,
               view_id=view_id, members=list(members), left=list(left))


def _names(violations):
    return [v.invariant for v in violations]


class TestViewAgreement:
    def test_matching_views_pass(self):
        events = [
            _view("s01", 1, ["a@s01", "b@s02"]),
            _view("s02", 1, ["a@s01", "b@s02"]),
        ]
        assert check_invariants(events) == []

    def test_conflicting_membership_flagged(self):
        events = [
            _view("s01", 1, ["a@s01", "b@s02"]),
            _view("s02", 1, ["a@s01"]),
        ]
        assert "view_agreement" in _names(check_invariants(events))


class TestUniquePrimary:
    def test_single_primary_passes(self):
        events = [
            _view("s01", 1, ["a@s01", "b@s02"]),
            _view("s02", 1, ["a@s01", "b@s02"]),
            _ev("checkpoint.publish", "s01", time_us=10.0, sync_for=None),
            _ev("checkpoint.publish", "s01", time_us=20.0, sync_for=None),
        ]
        assert check_invariants(events) == []

    def test_two_primaries_in_one_view_flagged(self):
        events = [
            _view("s01", 1, ["a@s01", "b@s02"]),
            _view("s02", 1, ["a@s01", "b@s02"]),
            _ev("checkpoint.publish", "s01", time_us=10.0, sync_for=None),
            _ev("checkpoint.publish", "s02", time_us=11.0, sync_for=None),
        ]
        assert "unique_primary" in _names(check_invariants(events))

    def test_sync_checkpoints_are_not_primary_acts(self):
        # A joiner-sync checkpoint carries sync_for and may come from
        # any member without claiming the primary role.
        events = [
            _view("s01", 1, ["a@s01", "b@s02"]),
            _view("s02", 1, ["a@s01", "b@s02"]),
            _ev("checkpoint.publish", "s01", time_us=10.0, sync_for=None),
            _ev("checkpoint.publish", "s02", time_us=11.0,
                sync_for="c@s03"),
        ]
        assert check_invariants(events) == []

    def test_failover_in_next_view_is_legal(self):
        events = [
            _view("s01", 1, ["a@s01", "b@s02"]),
            _view("s02", 1, ["a@s01", "b@s02"]),
            _ev("checkpoint.publish", "s01", time_us=10.0, sync_for=None),
            _view("s02", 2, ["b@s02"], left=["a@s01"], time_us=20.0),
            _ev("failover", "s02", time_us=21.0),
        ]
        assert check_invariants(events) == []

    @staticmethod
    def _sharded(kind, host, shard, time_us):
        return JournalEvent(seq=0, time_us=time_us, host=host,
                            component="replicator", kind=kind,
                            attrs={"sync_for": None}, shard=shard)

    def _two_shard_views(self):
        # s01 hosts sh0's primary and a backup of sh1; s02 the reverse.
        return [
            _view("s01", 1, ["a@s01", "b@s02"], group="sh0"),
            _view("s02", 1, ["a@s01", "b@s02"], group="sh0"),
            _view("s01", 1, ["d@s02", "c@s01"], group="sh1"),
            _view("s02", 1, ["d@s02", "c@s01"], group="sh1"),
        ]

    def test_one_primary_per_shard_on_shared_hosts_passes(self):
        events = self._two_shard_views() + [
            self._sharded("checkpoint.publish", "s01", "sh0", 10.0),
            self._sharded("checkpoint.publish", "s02", "sh1", 11.0),
            self._sharded("checkpoint.publish", "s01", "sh0", 12.0),
        ]
        assert check_invariants(events) == []

    def test_two_primaries_in_one_shards_view_flagged(self):
        events = self._two_shard_views() + [
            self._sharded("checkpoint.publish", "s01", "sh0", 10.0),
            self._sharded("checkpoint.publish", "s02", "sh0", 11.0),
        ]
        (violation,) = check_invariants(events)
        assert violation.invariant == "unique_primary"
        assert violation.details == {"group": "sh0", "view_id": 1,
                                     "hosts": ["s01", "s02"]}


class TestSwitchPhases:
    def _switch(self, kind, host, time_us, switch_id="sw1"):
        return _ev(kind, host, time_us=time_us, switch_id=switch_id,
                   from_style="warm_passive", to_style="active")

    def test_prepare_then_complete_passes(self):
        events = [
            self._switch("switch.prepare", "s01", 1.0),
            self._switch("switch.complete", "s01", 2.0),
        ]
        assert check_invariants(events) == []

    def test_complete_without_prepare_flagged(self):
        events = [self._switch("switch.complete", "s01", 2.0)]
        assert "switch_phase_order" in _names(check_invariants(events))

    def test_double_finish_flagged(self):
        events = [
            self._switch("switch.prepare", "s01", 1.0),
            self._switch("switch.complete", "s01", 2.0),
            self._switch("switch.rollback", "s01", 3.0),
        ]
        assert "switch_phase_once" in _names(check_invariants(events))

    def test_style_disagreement_flagged(self):
        events = [
            self._switch("switch.prepare", "s01", 1.0),
            _ev("switch.prepare", "s02", time_us=1.5, switch_id="sw1",
                from_style="warm_passive", to_style="cold_passive"),
        ]
        assert "switch_style_agreement" in _names(check_invariants(events))

    def test_wedged_host_flagged(self):
        events = [self._switch("switch.prepare", "s01", 1.0)]
        assert "switch_bounded_completion" in _names(
            check_invariants(events))

    def test_departed_host_exempt_from_bounded_completion(self):
        # s01 prepared, then its member left the view (crash or local
        # disconnect) — it cannot be held to finishing the switch.
        events = [
            self._switch("switch.prepare", "s01", 1.0),
            _view("s02", 2, ["b@s02"], left=["a@s01"], time_us=5.0),
        ]
        assert check_invariants(events) == []


class TestDepartedHosts:
    def test_collects_left_members_regardless_of_crash_flag(self):
        events = [
            _view("s02", 2, ["b@s02"], left=["a#7@s01"], time_us=5.0),
        ]
        assert departed_hosts(events) == {"s01"}


class TestCounterConsistency:
    def _add(self, op_id, result=None, completed=None):
        return Operation(op_id=op_id, object_key="counter",
                         operation="add", payload=1, invoked_at=0.0,
                         client="c1", result=result,
                         completed_at=completed)

    def test_consistent_state_passes(self):
        ops = [self._add("a", result=1, completed=1.0),
               self._add("b")]  # pending: may or may not have applied
        assert check_counter_consistency(ops, [2, 1]) == []

    def test_lost_acked_update_flagged(self):
        ops = [self._add("a", result=1, completed=1.0),
               self._add("b", result=2, completed=2.0)]
        violations = check_counter_consistency(ops, [1, 1])
        assert _names(violations) == ["no_lost_acked_updates"]

    def test_double_applied_update_flagged(self):
        ops = [self._add("a", result=1, completed=1.0)]
        violations = check_counter_consistency(ops, [2])
        assert _names(violations) == ["at_most_once"]

    def test_no_survivors_yields_no_verdict(self):
        ops = [self._add("a", result=1, completed=1.0)]
        assert check_counter_consistency(ops, []) == []

    def test_violation_serializes(self):
        violation = Violation(invariant="x", message="m", time_us=1.0,
                              details={"k": 1})
        assert violation.to_dict() == {
            "invariant": "x", "message": "m", "time_us": 1.0,
            "details": {"k": 1}}
