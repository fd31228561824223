"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.support import assert_cli_refuses_non_event_journals


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_breakdown_command(capsys):
    assert main(["--requests", "30", "breakdown"]) == 0
    out = capsys.readouterr().out
    assert "group_communication" in out
    assert "TOTAL" in out


def test_profile_command_with_csv(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    assert main(["--requests", "8", "profile", "--csv",
                 str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "A(2)" in out and "P(3)" in out
    assert csv_path.read_text().startswith("style,")


def test_policy_command(capsys):
    assert main(["--requests", "30", "policy"]) == 0
    out = capsys.readouterr().out
    assert "Ncli" in out
    # With 30-request sampling the exact pattern may wobble, but the
    # table renders and selects configurations.
    assert "(" in out


def test_policy_command_custom_constraints(capsys):
    assert main(["--requests", "8", "policy", "--max-latency", "900000",
                 "--max-bandwidth", "90"]) == 0
    out = capsys.readouterr().out
    # With absurdly loose constraints every load is feasible.
    assert out.count("\n") >= 5


def test_report_command(capsys):
    assert main(["--requests", "8", "report"]) == 0
    out = capsys.readouterr().out
    assert "# EXPERIMENTS" in out
    assert "Table 2" in out


def test_unknown_command_exits_2_with_listing(capsys):
    assert main(["definitely-not-a-command"]) == 2
    err = capsys.readouterr().err
    assert "unknown command 'definitely-not-a-command'" in err
    # The listing names every subcommand with its one-line summary.
    for name in ("breakdown", "profile", "policy", "adaptive",
                 "campaign", "trace", "observe", "check",
                 "cluster", "report", "verify"):
        assert name in err
    assert "sharded deployments" in err


def test_verify_command_passes(capsys):
    assert main(["--requests", "60", "verify"]) == 0
    out = capsys.readouterr().out
    assert "verify: PASS" in out
    assert "Table 2 pattern" in out


def _write_campaign_spec(tmp_path):
    import json

    spec = {
        "name": "cli-test", "styles": ["active"],
        "replica_counts": [2], "checkpoint_intervals": [1],
        "fault_loads": ["none", "process_crash"], "seeds": [0],
        "n_clients": 1, "duration_us": 200000.0, "rate_per_s": 100.0,
        "deadline_us": 7000.0, "settle_us": 400000.0,
        "base_seed": 0, "version": 1,
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return path


def test_campaign_command_runs_and_resumes(tmp_path, capsys):
    spec = _write_campaign_spec(tmp_path)
    results = tmp_path / "out.jsonl"
    csv_path = tmp_path / "scores.csv"

    assert main(["campaign", str(spec), "--results", str(results),
                 "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    assert "2 trial" in out or "ran 2" in out
    assert "Pareto" in out
    assert results.exists()
    assert len(results.read_text().splitlines()) == 2
    assert csv_path.read_text().startswith("config,")

    # Second invocation resumes: every trial is already recorded.
    assert main(["campaign", str(spec), "--results",
                 str(results)]) == 0
    out = capsys.readouterr().out
    assert "skipped 2" in out
    assert len(results.read_text().splitlines()) == 2


def test_campaign_command_fresh_rerun(tmp_path, capsys):
    spec = _write_campaign_spec(tmp_path)
    results = tmp_path / "out.jsonl"
    assert main(["campaign", str(spec), "--results",
                 str(results)]) == 0
    first = results.read_bytes()
    capsys.readouterr()
    assert main(["campaign", str(spec), "--results", str(results),
                 "--fresh", "--quiet"]) == 0
    assert results.read_bytes() == first


def test_campaign_command_rejects_bad_spec(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["campaign", str(bad)]) == 2
    assert "bad spec" in capsys.readouterr().err


def test_campaign_command_rejects_non_finite_rate(tmp_path, capsys):
    import json

    spec = _write_campaign_spec(tmp_path)
    data = json.loads(spec.read_text())
    data["rate_per_s"] = float("nan")
    spec.write_text(json.dumps(data))
    assert main(["campaign", str(spec), "--results",
                 str(tmp_path / "out.jsonl")]) == 2
    err = capsys.readouterr().err
    assert "bad spec" in err and "finite" in err
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("field, value", [
    ("n_clients", 2.5), ("n_clients", True), ("checkpoint_intervals", [2.5]),
    ("replica_counts", [True]), ("replica_counts", 3),
    ("shard_counts", [1.0]), ("seeds", ["a"]), ("seeds", [1.5]),
    ("styles", [["active"]]), ("base_seed", "x"), ("sample", 1.5),
    ("styles", ["hybrid"]), ("styles", ["semi_active"]),
])
def test_campaign_command_rejects_non_integer_counts(tmp_path, capsys,
                                                     field, value):
    """A fraction, string or bool where a count or seed belongs is one
    usage line, not trials that each fail or run mislabelled."""
    import json

    spec = _write_campaign_spec(tmp_path)
    data = json.loads(spec.read_text())
    data[field] = value
    spec.write_text(json.dumps(data))
    assert main(["campaign", str(spec), "--fresh", "--results",
                 str(tmp_path / "out.jsonl")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("campaign: bad spec ")
    assert not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("argv", [
    ["--base-rate", "-5"], ["--base-rate", "inf"],
    ["--spike-rate", "nan"], ["--high", "-1", "--low", "5"],
    ["--high", "nan"], ["--low=-inf"]], ids=[
    "negative-base", "inf-base", "nan-spike", "negative-high",
    "nan-high", "negative-inf-low"])
def test_adaptive_rejects_bad_rates(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(["adaptive", *argv])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    option = argv[0].split("=")[0]
    assert f"argument {option}: " in err
    assert "must be a finite number >= 0" in err
    assert "Traceback" not in err


def test_adaptive_low_above_high_is_a_one_line_usage_error(capsys):
    assert main(["adaptive", "--high", "100", "--low", "200"]) == 2
    err = capsys.readouterr().err
    assert err == "adaptive: low threshold must not exceed high\n"


def test_version_flag(capsys):
    from repro import __version__

    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert f"repro {__version__}" in capsys.readouterr().out


def test_trace_command_summary(capsys):
    assert main(["--requests", "15", "trace"]) == 0
    out = capsys.readouterr().out
    assert "traced 15 requests" in out
    assert "latency p50" in out
    assert "group_communication" in out


def test_trace_command_chrome_round_trips(tmp_path, capsys):
    from repro.telemetry import parse_chrome_trace

    out_path = tmp_path / "trace.json"
    assert main(["--requests", "10", "trace", "--format", "chrome",
                 "--out", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    events = parse_chrome_trace(out_path.read_text())
    assert events
    assert any(e["name"] == "request" for e in events)


def test_trace_command_prometheus_round_trips(capsys):
    from repro.telemetry import parse_prometheus_text

    assert main(["--requests", "10", "trace", "--format",
                 "prometheus"]) == 0
    series = parse_prometheus_text(capsys.readouterr().out)
    assert any(key.startswith("request_latency_us_bucket")
               for key in series)
    assert any(key.startswith("replicator_requests_total")
               for key in series)


def test_trace_command_csv(capsys):
    import csv
    import io

    assert main(["--requests", "5", "trace", "--format", "csv",
                 "--style", "warm_passive"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert rows
    assert {"trace_id", "span_id", "component"} <= set(rows[0])


@pytest.mark.parametrize("command", ["breakdown", "profile", "policy",
                                     "adaptive", "report", "verify",
                                     "trace"])
@pytest.mark.parametrize("requests", ["0", "-5", "x"])
def test_requests_must_be_a_positive_integer(capsys, command, requests):
    with pytest.raises(SystemExit) as excinfo:
        main(["--requests", requests, command])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "argument --requests" in err
    assert "Traceback" not in err


def test_breakdown_overflowing_the_span_cap_exits_2(capsys, monkeypatch):
    from dataclasses import replace

    import repro.experiments.run as run_module
    from repro.sim import TelemetryConfig

    # 30 requests need ~16 spans each; a 100-span recorder overflows.
    small = replace(run_module.default_calibration(),
                    telemetry=TelemetryConfig(max_spans=100))
    monkeypatch.setattr(run_module, "default_calibration", lambda: small)
    assert main(["--requests", "30", "breakdown"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("breakdown: the span recorder dropped")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,reason", [
    (["--out", "{missing}/x.txt"], "No such file or directory"),
    (["--format", "chrome", "--out", "{tmp}"], "Is a directory"),
])
def test_trace_bad_out_path_fails_before_the_run(tmp_path, capsys,
                                                  monkeypatch, argv, reason):
    import repro.experiments.scenarios as scenarios

    def never_run(*_args, **_kwargs):
        raise AssertionError("the traced run started")

    monkeypatch.setattr(scenarios, "run_replicated_load", never_run)
    argv = [arg.format(missing=tmp_path / "missing", tmp=tmp_path)
            for arg in argv]
    assert main(["trace", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("trace: cannot write ")
    assert captured.err.rstrip().endswith(reason)
    assert captured.err.count("\n") == 1


def test_trace_command_usage_errors_exit_2(capsys):
    assert main(["trace", "--replicas", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert main(["trace", "--clients", "-1"]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["trace", "--format", "yaml"])
    assert excinfo.value.code == 2
    for style in ("bogus", "hybrid", "semi_active"):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--style", style])
        assert excinfo.value.code == 2


def test_campaign_telemetry_flag_attaches_summaries(tmp_path, capsys):
    import json

    spec = _write_campaign_spec(tmp_path)
    results = tmp_path / "out.jsonl"
    assert main(["campaign", str(spec), "--results", str(results),
                 "--telemetry", "--quiet"]) == 0
    capsys.readouterr()
    records = [json.loads(line)
               for line in results.read_text().splitlines()]
    assert all("telemetry" in r["metrics"] for r in records
               if r["status"] == "ok")
    digest = records[0]["metrics"]["telemetry"]
    assert digest["dropped"] == 0
    assert "breakdown_us" in digest


def _write_journal(tmp_path):
    from repro.journal import Journal, write_jsonl

    journal = Journal()
    journal.record(100.0, "net", "injector", "fault.inject",
                   fault="process_crash", target="svc-r2",
                   at_us=100.0, until_us=None)
    journal.record(400.0, "s01", "gcs", "membership.view",
                   group="svc", view_id=2, members=["svc-r1#1@s01"],
                   joined=[], left=["svc-r2#2@s02"], crashed=False)
    path = tmp_path / "run.journal.jsonl"
    write_jsonl(journal.events, str(path))
    return path


def test_observe_command_renders_summary_and_timeline(tmp_path, capsys):
    path = _write_journal(tmp_path)
    assert main(["observe", str(path)]) == 0
    out = capsys.readouterr().out
    assert "availability" in out
    assert "MTTR" in out
    assert "process_crash" in out
    assert "GROUP" in out  # the membership.view timeline line


def test_observe_command_kind_filter_and_limit(tmp_path, capsys):
    path = _write_journal(tmp_path)
    assert main(["observe", str(path), "--kind", "fault.inject",
                 "--limit", "1"]) == 0
    out = capsys.readouterr().out
    assert "FAULT" in out
    assert "GROUP" not in out


def test_observe_command_writes_html(tmp_path, capsys):
    path = _write_journal(tmp_path)
    html_path = tmp_path / "report.html"
    assert main(["observe", str(path), "--no-timeline", "--html",
                 str(html_path)]) == 0
    text = html_path.read_text()
    assert text.startswith("<!DOCTYPE html>")
    assert "Injected faults vs detection" in text


def test_observe_command_rejects_missing_file(tmp_path, capsys):
    assert main(["observe", str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_observe_command_rejects_corrupt_file(tmp_path, capsys):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    assert main(["observe", str(path)]) == 2


def test_observe_command_empty_journal_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert main(["observe", str(path)]) == 1


def test_campaign_journal_flag_captures_per_trial_jsonl(tmp_path, capsys):
    import json

    from repro.journal import read_jsonl

    spec = _write_campaign_spec(tmp_path)
    results = tmp_path / "out.jsonl"
    journal_dir = tmp_path / "journals"
    assert main(["campaign", str(spec), "--results", str(results),
                 "--journal", str(journal_dir), "--quiet"]) == 0
    capsys.readouterr()
    records = [json.loads(line)
               for line in results.read_text().splitlines()]
    assert all("journal" in r["metrics"] for r in records
               if r["status"] == "ok")
    for record in records:
        events = read_jsonl(str(journal_dir /
                                f"{record['trial_id']}.journal.jsonl"))
        assert len(events) == record["metrics"]["journal"]["events"]
    crash = next(r for r in records if "process_crash" in r["trial_id"])
    digest = crash["metrics"]["journal"]
    assert digest["faults_injected"] == 1
    assert digest["faults_matched"] + digest["faults_missed"] == 1


def test_bench_is_not_a_command(capsys):
    assert main(["bench"]) == 2
    assert "unknown command 'bench'" in capsys.readouterr().err


def test_observe_usage_errors_exit_2(tmp_path, capsys):
    journal = _write_journal(tmp_path)
    assert main(["observe", str(journal), "--limit", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(["observe", str(journal), "--format", "yaml"])
    assert excinfo.value.code == 2
    assert_cli_refuses_non_event_journals(["observe"], tmp_path, capsys)


def test_check_usage_errors_exit_2(tmp_path, capsys):
    assert main(["check", "--budget", "0"]) == 2
    assert "must be >= 1" in capsys.readouterr().err
    assert main(["check", "--tie-choices", "0"]) == 2
    assert main(["check", "--tie-choices", str(2 ** 64)]) == 2
    assert main(["check", "--delay-bound", "-1"]) == 2
    assert main(["check", "--delay-bound", "nan"]) == 2
    assert main(["check", "--delay-bound", "inf"]) == 2
    assert "finite" in capsys.readouterr().err
    assert main(["check", "--mutation", "bogus"]) == 2
    assert "unknown --mutation" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["check", "--replay", str(missing)]) == 2
    assert "cannot load" in capsys.readouterr().err
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{not json")
    assert main(["check", "--replay", str(corrupt)]) == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["check", "--replay", str(missing), "--minimize",
              str(missing)])
    assert excinfo.value.code == 2  # mutually exclusive modes


def test_check_explore_clean_exits_0(capsys):
    assert main(["check", "--explore", "--budget", "2"]) == 0
    out = capsys.readouterr().out
    assert "explored 2 schedules" in out
    assert "verdict: PASS" in out


def test_check_explore_mutation_writes_replayable_artifact(tmp_path,
                                                          capsys):
    artifact = tmp_path / "viol" / "repro.json"
    assert main(["check", "--explore", "--budget", "10",
                 "--mutation", "skip_final_checkpoint",
                 "--artifact", str(artifact)]) == 1
    out = capsys.readouterr().out
    assert "verdict: FAIL" in out
    assert artifact.exists()

    assert main(["check", "--replay", str(artifact)]) == 0
    assert "REPRODUCED" in capsys.readouterr().out

    # Tampered decisions and scenario values, and another format
    # version, are refused at load (exit 2, one line), never replayed.
    import json
    for section, field, bad in (("policy", "decisions", [-50_000.0]),
                                ("policy", "decisions", ["abc"]),
                                ("scenario", "n_replicas", 0),
                                ("scenario", "horizon_us", "x"),
                                (None, "version", 1),
                                (None, "version", 2)):
        data = json.loads(artifact.read_text())
        (data if section is None else data[section])[field] = bad
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        for mode in ("--replay", "--minimize"):
            assert main(["check", mode, str(tampered)]) == 2
            err = capsys.readouterr().err
            assert "cannot load artifact" in err
            assert "Traceback" not in err and err.count("\n") == 1


def test_campaign_check_flag_attaches_verdicts(tmp_path, capsys):
    import json

    spec = _write_campaign_spec(tmp_path)
    results = tmp_path / "out.jsonl"
    assert main(["campaign", str(spec), "--results", str(results),
                 "--check", "--quiet"]) == 0
    capsys.readouterr()
    records = [json.loads(line)
               for line in results.read_text().splitlines()]
    assert records
    for record in records:
        if record["status"] != "ok":
            continue
        verdict = record["metrics"]["check"]
        assert verdict["ok"] is True
        assert verdict["operations"] > 0


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("breakdown", "profile", "policy", "adaptive",
                 "campaign", "trace", "observe", "check",
                 "cluster", "report", "verify"):
        assert name in out


def test_cluster_route_command(capsys):
    assert main(["cluster", "route", "counter", "payments",
                 "--shards", "3"]) == 0
    out = capsys.readouterr().out
    assert "counter" in out and "payments" in out
    assert "-> shard" in out


def test_cluster_route_rejects_bad_shards(capsys):
    assert main(["cluster", "route", "k", "--shards", "0"]) == 2
    assert "--shards must be >= 1" in capsys.readouterr().err


def test_cluster_summary_command(capsys):
    assert main(["cluster", "summary", "--shards", "2",
                 "--clients", "2", "--cycle", "5"]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "shard0" in out and "shard1" in out
    assert "active" in out and "warm_passive" in out


def test_cluster_rebalance_command(capsys):
    assert main(["cluster", "rebalance", "--cycle", "8"]) == 0
    out = capsys.readouterr().out
    assert "migration(s) committed" in out
    assert "verdict: OK" in out


def test_cluster_rebalance_rejects_single_shard(capsys):
    assert main(["cluster", "rebalance", "--shards", "1"]) == 2
    assert "--shards >= 2" in capsys.readouterr().err


def test_cluster_replay_command(tmp_path, capsys):
    from repro.cluster import run_cluster_rebalance_check
    from repro.journal.io import write_jsonl

    out_path = tmp_path / "cluster.journal.jsonl"
    outcome = run_cluster_rebalance_check(n_requests=8)
    write_jsonl(outcome.journal.events, str(out_path))
    assert main(["cluster", "replay", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "cluster event(s)" in out
    assert "migrate.start" in out
    assert "map" in out


def test_cluster_replay_rejects_missing_file(tmp_path, capsys):
    assert main(["cluster", "replay",
                 str(tmp_path / "nope.jsonl")]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert_cli_refuses_non_event_journals(["cluster", "replay"],
                                          tmp_path, capsys)


@pytest.mark.parametrize("text", [
    "[1]",
    '{"name": "x", "fast_window_us": null}',
    '{"name": "x", "burn_threshold": NaN}',
    '{"name": "x", "availability_target": "0.99"}',
    '{"name": "x", "no_such_field": 1}',
], ids=["list-of-scalars", "null-window", "nan-threshold",
        "string-target", "unknown-field"])
def test_slo_rejects_bad_spec_files(tmp_path, capsys, text):
    """Each spec is refused with one ``slo: bad spec`` line, exit 2:
    not a traceback, and not an ``ok`` verdict over a NaN threshold."""
    journal = _write_journal(tmp_path)
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    capsys.readouterr()
    assert main(["slo", "status", str(journal), "--spec", str(spec)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"slo: bad spec {spec}")
