"""Unit tests for the journal recorder and its views."""

import pytest

from repro.errors import ConfigurationError
from repro.journal import ADAPTATION_DECISION, Journal, JournalEvent
from repro.sim import NULL_JOURNAL


def record_n(journal, n, host="h1", kind="membership.view"):
    for i in range(n):
        journal.record(float(i), host, "gcs", kind, index=i)


class TestJournalRecord:
    def test_events_carry_sequence_and_payload(self):
        journal = Journal()
        event = journal.record(42.0, "s01", "gcs", "detector.suspect",
                               newly=["s02"])
        assert event.seq == 0
        assert event.time_us == 42.0
        assert event.host == "s01"
        assert event.component == "gcs"
        assert event.kind == "detector.suspect"
        assert event.attrs == {"newly": ["s02"]}
        assert event.trace_id is None

    def test_sequence_increments_in_record_order(self):
        journal = Journal()
        record_n(journal, 5)
        assert [e.seq for e in journal.events] == [0, 1, 2, 3, 4]
        assert len(journal) == 5

    def test_trace_id_links_to_telemetry(self):
        journal = Journal()
        event = journal.record(1.0, "s01", "replicator",
                               "switch.prepare", trace_id=7)
        assert event.trace_id == 7

    def test_max_events_overflow_counts_drops(self):
        journal = Journal(max_events=3)
        record_n(journal, 5)
        assert len(journal) == 3
        assert journal.dropped == 2

    def test_validates_configuration(self):
        for kwargs in (dict(max_events=0), dict(max_events=2.5),
                       dict(max_events=float("nan")),
                       dict(max_events=float("inf"))):
            with pytest.raises(ConfigurationError):
                Journal(**kwargs)


class TestOfKind:
    def test_matches_exact_and_dotted_prefix(self):
        journal = Journal()
        journal.record(1.0, "s01", "replicator", "switch.prepare")
        journal.record(2.0, "s01", "replicator", "switch.complete")
        journal.record(3.0, "s01", "replicator", "switchboard")
        assert [e.kind for e in journal.of_kind("switch")] == [
            "switch.prepare", "switch.complete"]
        assert [e.kind for e in journal.of_kind("switch.prepare")] == [
            "switch.prepare"]


class TestDecisionDedup:
    def decide(self, journal, host, switch_id="svc:P->A:0"):
        return journal.record(
            10.0, host, "adaptation", ADAPTATION_DECISION,
            switch_id=switch_id, rate_per_s=500.0,
            from_style="warm_passive", to_style="active")

    def test_duplicate_decisions_merge_into_voters(self):
        journal = Journal()
        first = self.decide(journal, "s01")
        assert self.decide(journal, "s02") is None
        assert self.decide(journal, "s03") is None
        decisions = journal.of_kind(ADAPTATION_DECISION)
        assert len(decisions) == 1
        assert first.attrs["voters"] == 3
        assert first.attrs["voter_hosts"] == ["s01", "s02", "s03"]

    def test_distinct_switches_stay_distinct(self):
        journal = Journal()
        self.decide(journal, "s01", switch_id="svc:P->A:0")
        self.decide(journal, "s01", switch_id="svc:A->P:1")
        assert len(journal.of_kind(ADAPTATION_DECISION)) == 2

    def test_decision_without_switch_id_not_merged(self):
        journal = Journal()
        journal.record(1.0, "s01", "adaptation", ADAPTATION_DECISION)
        journal.record(1.0, "s02", "adaptation", ADAPTATION_DECISION)
        assert len(journal.of_kind(ADAPTATION_DECISION)) == 2


class TestJournalEvent:
    def test_round_trips_through_dict(self):
        event = JournalEvent(seq=3, time_us=12.5, host="s01",
                             component="gcs", kind="membership.view",
                             attrs={"view_id": 2}, trace_id=9)
        assert JournalEvent.from_dict(event.to_dict()) == event

    def test_to_dict_omits_absent_trace_id(self):
        event = JournalEvent(seq=0, time_us=0.0, host="h",
                             component="c", kind="k")
        assert "trace_id" not in event.to_dict()

    def test_shard_round_trips_and_is_omitted_when_absent(self):
        tagged = JournalEvent(seq=1, time_us=5.0, host="s01",
                              component="cluster", kind="shard.lost",
                              shard="shard2")
        assert tagged.to_dict()["shard"] == "shard2"
        assert JournalEvent.from_dict(tagged.to_dict()) == tagged
        bare = JournalEvent(seq=0, time_us=0.0, host="h",
                            component="c", kind="k")
        assert "shard" not in bare.to_dict()
        assert JournalEvent.from_dict(bare.to_dict()).shard is None

    def test_pre_shard_jsonl_line_still_parses(self):
        # A line captured before the shard field existed must load
        # byte-identically: same canonical serialization back out.
        import json
        line = ('{"attrs":{"a":1,"b":2},"component":"c","host":"h",'
                '"kind":"k","seq":0,"t_us":1.0}')
        event = JournalEvent.from_dict(json.loads(line))
        assert event.shard is None
        assert json.dumps(event.to_dict(), sort_keys=True,
                          separators=(",", ":")) == line

    def test_record_binds_shard_as_field_not_attr(self):
        journal = Journal()
        event = journal.record(1.0, "s01", "cluster", "migrate.start",
                               shard="shard0", dst="shard1")
        assert event.shard == "shard0"
        assert event.attrs == {"dst": "shard1"}

    def test_str_mentions_kind_and_attrs(self):
        event = JournalEvent(seq=0, time_us=1_000_000.0, host="s01",
                             component="gcs", kind="membership.view",
                             attrs={"view_id": 2})
        assert "membership.view" in str(event)
        assert "view_id=2" in str(event)


class TestNullJournal:
    def test_is_disabled_and_inert(self):
        assert NULL_JOURNAL.enabled is False
        assert NULL_JOURNAL.record(1.0, "h", "c", "k") is None
        assert NULL_JOURNAL.events == ()
        assert NULL_JOURNAL.of_kind("k") == ()
        assert len(NULL_JOURNAL) == 0
        assert NULL_JOURNAL.dropped == 0

    def test_bare_simulator_defaults_to_null_journal(self):
        from repro.sim import Simulator
        assert Simulator(seed=0).journal is NULL_JOURNAL
