"""JSONL serialization and the campaign digest."""

import pytest

from repro.errors import ConfigurationError
from repro.journal import (
    Journal,
    JournalEvent,
    event_to_line,
    events_to_jsonl,
    journal_digest,
    parse_jsonl,
    read_jsonl,
    write_jsonl,
)
from tests.support import NON_EVENT_JOURNAL_LINES


def small_journal():
    journal = Journal()
    journal.record(100.0, "s01", "injector", "fault.inject",
                   fault="process_crash", target="svc-r2",
                   at_us=100.0, until_us=None)
    journal.record(250.0, "s01", "gcs", "membership.view",
                   group="svc", view_id=2, members=["svc-r1#1@s01"],
                   joined=[], left=["svc-r2#2@s02"], crashed=False)
    journal.record(300.0, "s02", "replicator", "failover",
                   trace_id=4, member="svc-r1#1@s01", style="active")
    return journal


class TestJsonl:
    def test_line_is_canonical(self):
        event = JournalEvent(seq=0, time_us=1.0, host="h",
                             component="c", kind="k",
                             attrs={"b": 2, "a": 1})
        line = event_to_line(event)
        assert line == ('{"attrs":{"a":1,"b":2},"component":"c",'
                        '"host":"h","kind":"k","seq":0,"t_us":1.0}')

    def test_round_trip_preserves_events(self):
        journal = small_journal()
        text = events_to_jsonl(journal.events)
        assert parse_jsonl(text) == journal.events
        assert events_to_jsonl(parse_jsonl(text)) == text

    def test_file_round_trip(self, tmp_path):
        journal = small_journal()
        path = str(tmp_path / "run.journal.jsonl")
        assert write_jsonl(journal.events, path) == 3
        assert read_jsonl(path) == journal.events

    def test_empty_journal_writes_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        assert write_jsonl([], path) == 0
        assert read_jsonl(path) == []

    def test_blank_lines_skipped(self):
        journal = small_journal()
        text = events_to_jsonl(journal.events).replace("\n", "\n\n")
        assert parse_jsonl(text) == journal.events

    def test_corrupt_line_raises(self):
        with pytest.raises(ConfigurationError, match="line 2"):
            parse_jsonl('{"seq":0,"t_us":1.0,"host":"h",'
                        '"component":"c","kind":"k"}\nnot json\n')

    def test_non_object_line_raises(self):
        with pytest.raises(ConfigurationError, match="not an object"):
            parse_jsonl("[1,2,3]\n")

    @pytest.mark.parametrize("line", NON_EVENT_JOURNAL_LINES.values(),
                             ids=list(NON_EVENT_JOURNAL_LINES))
    def test_non_event_line_raises(self, line):
        with pytest.raises(ConfigurationError,
                           match="line 1 is not a journal event"):
            parse_jsonl(line + "\n")


class TestJournalDigest:
    def test_digest_counts_and_cross_check(self):
        digest = journal_digest(small_journal())
        assert digest["events"] == 3
        assert digest["dropped"] == 0
        assert digest["by_component"] == {
            "gcs": 1, "injector": 1, "replicator": 1}
        assert digest["faults_injected"] == 1
        assert digest["faults_matched"] == 1
        assert digest["faults_missed"] == 0
        # Crash at 100, failover marker... membership drop at 250 ends
        # the outage; detection latency is the membership event.
        assert digest["outages"] == 1
        assert digest["downtime_us"] == pytest.approx(150.0)
        assert digest["mttr_us"] == pytest.approx(150.0)
        assert digest["mean_detection_latency_us"] == pytest.approx(150.0)

    def test_digest_respects_explicit_window(self):
        digest = journal_digest(small_journal(),
                                window_start_us=0.0,
                                window_end_us=1_000.0)
        assert digest["availability"] == pytest.approx(1.0 - 150.0 / 1000.0)

    def test_empty_journal_digest_is_clean(self):
        digest = journal_digest(Journal())
        assert digest["events"] == 0
        assert digest["availability"] == 1.0
        assert digest["faults_injected"] == 0
        assert digest["false_positives"] == 0
