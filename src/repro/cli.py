"""Command-line interface.

``python -m repro <command>``:

- ``breakdown`` — Fig. 3 round-trip component breakdown
- ``profile``   — run the Fig. 7 sweep; print (and optionally CSV-export)
- ``policy``    — synthesize and print the Table 2 scalability policy
- ``adaptive``  — run the Fig. 6 adaptive-replication scenario
- ``report``    — regenerate the full EXPERIMENTS.md report
- ``campaign``  — run a fault-injection campaign from a spec file
- ``trace``     — record a traced run; export spans/metrics
- ``observe``   — render a dependability journal (timeline/summary/HTML)
- ``check``     — explore schedule space; verify linearizability and
  protocol invariants; replay/minimize repro artifacts
- ``cluster``   — sharded deployments: summary, key routing, live
  rebalance check, journal replay
- ``slo``       — per-shard error budgets, burn-rate alerts, and the
  fault/alert cross-check over a captured journal
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import Constraints, CostFunction, ScalabilityPolicy, ThresholdSwitchPolicy
from repro.errors import (
    ClusterError,
    ConfigurationError,
    PolicyError,
    Rule,
    VerificationError,
)
from repro.experiments import (
    build_profile,
    run_adaptive_scenario,
    run_rtt_breakdown,
)
from repro.replication import ReplicationStyle
from repro.sim import PAPER_FIG3_BREAKDOWN
from repro.tools import policy_to_csv, profile_to_csv, render_series
from repro.workload import SpikeProfile


#: One-line summary per subcommand: the single source for the
#: ``--help`` listing and the unknown-command error listing.
_SUMMARIES = {
    "breakdown": "Fig. 3 round-trip breakdown",
    "profile": "Fig. 7 sweep",
    "policy": "Table 2 scalability policy",
    "adaptive": "Fig. 6 adaptive scenario",
    "campaign": "run a fault-injection campaign from a spec",
    "trace": "record a traced run and export spans/metrics",
    "observe": "render a dependability journal "
               "(timeline, availability, fault cross-check)",
    "check": "explore schedule space and verify linearizability + "
             "protocol invariants; replay/minimize repro artifacts",
    "cluster": "sharded deployments: summary, key routing, live "
               "rebalance check, journal replay",
    "slo": "per-shard SLO error budgets, burn-rate alerts, and the "
           "fault/alert cross-check over a captured journal",
    "report": "regenerate EXPERIMENTS.md on stdout",
    "verify": "self-check calibration + Table 2 pattern",
}


def _usage_error(command: str, message: str) -> int:
    """Report a usage error uniformly: one line on stderr, exit 2."""
    print(f"{command}: {message}", file=sys.stderr)
    return 2


def _argument(kind: type, **bounds: float):
    """argparse type: ``text`` read as ``kind`` and checked by the
    :class:`Rule` that ``bounds`` declare."""
    rule = Rule(("argument",), kind, **bounds)

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not {rule.expected}") from None
        if not rule.admits(value):
            raise argparse.ArgumentTypeError(
                f"must be {rule.expected}, got {text}")
        return value
    return parse


def _cmd_breakdown(args: argparse.Namespace) -> int:
    breakdown = run_rtt_breakdown(n_requests=args.requests, seed=args.seed)
    print(f"{'component':24s} {'measured [us]':>14s} {'paper [us]':>12s}")
    for component, paper_value in PAPER_FIG3_BREAKDOWN.items():
        print(f"{component:24s} {breakdown.get(component, 0.0):14.1f} "
              f"{paper_value:12.1f}")
    print(f"{'TOTAL':24s} {sum(breakdown.values()):14.1f} "
          f"{sum(PAPER_FIG3_BREAKDOWN.values()):12.1f}")
    return 0


def _sweep(args: argparse.Namespace):
    return build_profile(n_requests=args.requests, seed=args.seed)


def _cmd_profile(args: argparse.Namespace) -> int:
    profile, _ = _sweep(args)
    print(f"{'config':8s} {'clients':>8s} {'latency[us]':>12s} "
          f"{'jitter[us]':>11s} {'bw[MB/s]':>9s}")
    for m in sorted(profile, key=lambda m: (m.config.style.value,
                                            m.config.n_replicas,
                                            m.n_clients)):
        print(f"{m.config.label:8s} {m.n_clients:8d} "
              f"{m.latency_us:12.1f} {m.jitter_us:11.1f} "
              f"{m.bandwidth_mbps:9.3f}")
    if args.csv:
        with open(args.csv, "w") as handle:
            profile_to_csv(profile, out=handle)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_policy(args: argparse.Namespace) -> int:
    profile, _ = _sweep(args)
    policy = ScalabilityPolicy.synthesize(
        profile,
        Constraints(max_latency_us=args.max_latency,
                    max_bandwidth_mbps=args.max_bandwidth),
        CostFunction(latency_weight=args.weight,
                     latency_norm_us=args.max_latency,
                     bandwidth_norm_mbps=args.max_bandwidth))
    print(f"{'Ncli':>4s} {'config':>8s} {'latency[us]':>12s} "
          f"{'bw[MB/s]':>9s} {'faults':>7s} {'cost':>7s}")
    for entry in policy.table():
        print(f"{entry.n_clients:4d} {entry.config.label:>8s} "
              f"{entry.latency_us:12.1f} {entry.bandwidth_mbps:9.3f} "
              f"{entry.faults_tolerated:7d} {entry.cost:7.3f}")
    if args.csv:
        with open(args.csv, "w") as handle:
            policy_to_csv(policy, out=handle)
        print(f"\nwrote {args.csv}")
    return 0


def _cmd_adaptive(args: argparse.Namespace) -> int:
    profile = SpikeProfile(base_rate=args.base_rate,
                           spike_rate=args.spike_rate,
                           spike_start_us=1_500_000.0,
                           spike_end_us=5_500_000.0)
    policy = ThresholdSwitchPolicy(rate_high_per_s=args.high,
                                   rate_low_per_s=args.low)
    adaptive = run_adaptive_scenario(profile, 7_000_000.0, policy=policy,
                                     n_clients=2, seed=args.seed)
    static = run_adaptive_scenario(
        profile, 7_000_000.0, n_clients=2,
        static_style=ReplicationStyle.WARM_PASSIVE, seed=args.seed)
    print(render_series(adaptive.rate_series[::5], width=40,
                        label="request rate [req/s]"))
    print("\nswitches:")
    for record in adaptive.switch_events:
        print(f"  {record.switch_id}: {record.from_style.short} -> "
              f"{record.to_style.short} in {record.duration_us:.0f} us")
    gain = adaptive.throughput_per_s / static.throughput_per_s - 1.0
    print(f"\nobserved arrival rate gain over static passive: "
          f"{gain * 100:+.1f} % (paper: +4.1 %)")
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        CampaignSpec,
        ResultsStore,
        aggregate_scores,
        render_pareto,
        render_scores,
        run_campaign,
        write_markdown,
    )
    from repro.tools import scores_to_csv

    spec = CampaignSpec.from_file(args.spec)
    results_path = args.results or f"{args.spec}.results.jsonl"
    store = ResultsStore(results_path)
    if args.fresh:
        store.clear()

    def progress(done: int, total: int, record) -> None:
        if record is None or args.quiet:
            return
        marker = "ok" if record.ok else record.status.upper()
        print(f"  [{done:3d}/{total}] {record.trial_id:40s} {marker}")

    print(f"campaign {spec.name!r}: {spec.n_trials()} trials, "
          f"{args.workers} worker(s), results -> {results_path}")
    summary = run_campaign(spec, store, workers=args.workers,
                           trial_timeout_s=args.trial_timeout,
                           progress=progress, telemetry=args.telemetry,
                           journal_dir=args.journal, check=args.check,
                           slo=args.slo)
    print(f"ran {summary.ran}, skipped {summary.skipped} "
          f"(already recorded), failed {summary.failed}, "
          f"in {summary.elapsed_s:.1f}s")

    records = [r for r in store.records() if r.ok]
    if not records:
        print("no successful trials recorded; nothing to score")
        return 1
    check_failures = [r for r in records
                      if args.check
                      and not r.metrics.get("check", {}).get("ok", True)]
    for record in check_failures:
        verdict = record.metrics["check"]
        print(f"CHECK FAILED {record.trial_id}: "
              f"{len(verdict.get('violations', []))} violation(s), "
              f"linearizable={verdict.get('linearizable')}",
              file=sys.stderr)
    # SLO breaches are campaign *data* (a fault load exhausting a
    # budget is the expected outcome), but a fault/alert cross-check
    # inconsistency means the alerting itself misfired — that fails.
    slo_failures = []
    if args.slo:
        breached = 0
        for record in records:
            verdict = record.metrics.get("slo", {})
            breached += int(verdict.get("breached", 0))
            if not verdict.get("cross_check", {}).get("ok", True):
                slo_failures.append(record)
                print(f"SLO CROSS-CHECK FAILED {record.trial_id}: "
                      f"budget-exhausting fault without exactly one "
                      f"alert", file=sys.stderr)
        print(f"slo: {breached} budget breach(es) across "
              f"{len(records)} trial(s), "
              f"{len(slo_failures)} cross-check failure(s)")
    scores = aggregate_scores(records)
    print()
    print(render_scores(scores))
    print()
    print(render_pareto(scores))
    if args.csv:
        with open(args.csv, "w") as handle:
            scores_to_csv(scores, out=handle)
        print(f"\nwrote {args.csv}")
    if args.markdown:
        with open(args.markdown, "w") as handle:
            write_markdown(spec, scores, out=handle)
        print(f"wrote {args.markdown}")
    return (0 if summary.failed == 0 and not check_failures
            and not slo_failures else 1)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Record one traced run and export its spans/metrics."""
    from repro.experiments.scenarios import run_replicated_load
    from repro.telemetry import (
        breakdown_table,
        chrome_trace_json,
        component_breakdown,
        prometheus_text,
        spans_to_csv,
        telemetry_summary,
    )

    if args.replicas < 1 or args.clients < 1:
        return _usage_error("trace", "replicas and clients must be >= 1")
    if args.out:
        # Fail before the traced run, not after it; "a" leaves an
        # existing file as it is until the export overwrites it.
        try:
            open(args.out, "a").close()
        except OSError as exc:
            return _usage_error("trace",
                                f"cannot write {args.out}: {exc.strerror}")
    style = ReplicationStyle(args.style)
    result = run_replicated_load(
        style, n_replicas=args.replicas, n_clients=args.clients,
        n_requests=args.requests, seed=args.seed, telemetry=True)
    recorder = result.telemetry
    assert recorder is not None

    if args.format == "chrome":
        rendered = chrome_trace_json(recorder.spans)
    elif args.format == "prometheus":
        rendered = prometheus_text(recorder.metrics)
    elif args.format == "csv":
        rendered = spans_to_csv(recorder.spans)
    else:  # summary
        summary = telemetry_summary(recorder)
        lines = [f"traced {summary['traces']} requests "
                 f"({summary['spans']} spans, "
                 f"{summary['dropped']} dropped, "
                 f"{summary['open_spans']} left open)",
                 f"latency p50 {summary['latency_p50_us']:.0f} us, "
                 f"p99 {summary['latency_p99_us']:.0f} us", ""]
        lines.append(f"{'component':<22}{'measured us':>12}"
                     f"{'paper us':>10}")
        for component, measured, ref in breakdown_table(
                component_breakdown(recorder.spans),
                PAPER_FIG3_BREAKDOWN):
            paper = f"{ref:>10.1f}" if ref is not None else " " * 10
            lines.append(f"{component:<22}{measured:>12.1f}{paper}")
        rendered = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(rendered)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Explore schedule space; replay or minimize repro artifacts."""
    from repro.check import (
        MUTATIONS,
        canonical_checkpoint_crash_scenario,
        canonical_partition_scenario,
        canonical_scenario,
        explore,
        load_artifact,
        minimize,
        render_exploration,
        write_artifact,
    )
    from repro.check import replay as replay_artifact
    from repro.check.artifact import artifact_from_report

    if args.budget < 1:
        return _usage_error("check", "--budget must be >= 1")
    if args.mutation is not None and args.mutation not in MUTATIONS:
        return _usage_error(
            "check", f"unknown --mutation {args.mutation!r} "
                     f"(known: {', '.join(sorted(MUTATIONS))})")

    if args.replay or args.minimize:
        path = args.replay or args.minimize
        artifact = load_artifact(path)
        if args.minimize:
            artifact = minimize(artifact)
            out = args.artifact or path
            _write_check_artifact(artifact, out, write_artifact)
            print(f"minimized to {artifact.scenario.n_requests} "
                  f"request(s), horizon "
                  f"{artifact.scenario.horizon_us / 1e6:.1f} s, "
                  f"{len(artifact.decisions)} decision(s)")
            print(f"wrote {out}")
        try:
            result = replay_artifact(artifact)
        except VerificationError as exc:
            print(f"check: replay drifted off the recorded decision "
                  f"trace: {exc}", file=sys.stderr)
            return 1
        print(f"replay digest {result.digest[:16]} "
              f"{'==' if result.identical else '!='} recorded "
              f"{result.expected_digest[:16]}")
        for violation in result.violations:
            print(f"  [{violation.invariant}] {violation.message}")
        if result.reproduced:
            print("verdict: REPRODUCED — byte-identical replay, "
                  "violations reappear")
            return 0
        print("verdict: NOT REPRODUCED")
        return 1

    # Explore mode (the default).
    canonical = {"crash": canonical_scenario,
                 "partition": canonical_partition_scenario,
                 "checkpoint-crash": canonical_checkpoint_crash_scenario}
    scenario = canonical[args.scenario](seed=args.seed,
                                        mutation=args.mutation)
    result = explore(scenario, budget=args.budget,
                     base_walk_seed=args.walk_seed,
                     tie_choices=args.tie_choices,
                     delay_bound_us=args.delay_bound,
                     stop_on_violation=not args.keep_going)
    print(render_exploration(result))
    violating = result.violating
    if not violating:
        return 0
    artifact = artifact_from_report(violating[0], args.tie_choices,
                                    args.delay_bound)
    artifact = minimize(artifact)
    out = args.artifact or "repro_violation.json"
    _write_check_artifact(artifact, out, write_artifact)
    print(f"wrote minimized repro artifact {out} "
          f"(replay with: python -m repro check --replay {out})")
    return 1


def _write_check_artifact(artifact, out: str, write_artifact) -> None:
    """Write a repro artifact, creating its parent directory."""
    import os
    parent = os.path.dirname(out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_artifact(artifact, out)


def _cmd_observe(args: argparse.Namespace) -> int:
    """Render a dependability journal captured as JSONL."""
    from repro.journal import discover_shards, event_shard, read_jsonl
    from repro.tools import journal_html, journal_summary, render_journal

    if args.limit is not None and args.limit < 1:
        return _usage_error("observe", "--limit must be >= 1")
    events = read_jsonl(args.journal)
    if args.shard:
        shards = discover_shards(events)
        if args.shard not in shards:
            return _usage_error(
                "observe", f"unknown shard {args.shard!r} "
                           f"(journal has: {', '.join(shards) or 'none'})")
        events = [e for e in events
                  if event_shard(e, shards) == args.shard]
    if not events:
        print(f"observe: {args.journal} holds no events",
              file=sys.stderr)
        return 1

    print(journal_summary(events))
    if not args.no_timeline:
        print()
        print(render_journal(events, limit=args.limit, kind=args.kind))
    if args.html:
        with open(args.html, "w") as handle:
            handle.write(journal_html(events, title=args.journal))
        print(f"\nwrote {args.html}")
    return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Sharded-deployment operations (summary/route/rebalance/replay)."""
    from repro.cluster import (
        build_map,
        run_cluster_load,
        run_cluster_rebalance_check,
    )

    if args.action == "route":
        if args.shards < 1:
            return _usage_error("cluster", "--shards must be >= 1")
        pmap = build_map([f"shard{i}" for i in range(args.shards)])
        print(f"map of {args.shards} shard(s), "
              f"digest {pmap.digest()[:16]}")
        for key in args.keys:
            print(f"  {key:24s} -> {pmap.owner_of(key)}")
        return 0

    if args.action == "summary":
        if args.clients < 1 or args.cycle < 1:
            return _usage_error(
                "cluster", "--clients and --cycle must be >= 1")
        result = run_cluster_load(
            n_shards=args.shards, n_clients=args.clients,
            n_requests=args.cycle, seed=args.seed, journal=True)
        print(f"{args.shards} shard(s), {args.clients} client(s), "
              f"{result.completed}/{result.sent} completed")
        print(f"  throughput {result.throughput_per_s:10.1f} req/s")
        print(f"  latency    {result.latency_mean_us:10.1f} us "
              f"(jitter {result.jitter_us:.1f})")
        print(f"  map epoch {result.map_epoch}, routers agree: "
              f"{result.routers_agree}, rerouted {result.rerouted}")
        print(f"\n{'shard':10s} {'style':14s} {'processed':>10s} "
              f"{'replies':>8s} {'ckpts':>6s}")
        for name in sorted(result.per_shard):
            stats = result.per_shard[name]
            print(f"{name:10s} {stats['style']:14s} "
                  f"{stats['processed']:10d} {stats['replies']:8d} "
                  f"{stats['checkpoints']:6d}")
        return 0

    if args.action == "rebalance":
        if args.shards < 2:
            return _usage_error(
                "cluster", "a rebalance check needs --shards >= 2")
        out = run_cluster_rebalance_check(
            n_shards=args.shards, n_clients=args.clients,
            n_requests=args.cycle, seed=args.seed)
        print(f"live rebalance over {args.shards} shard(s): "
              f"{out.migrations_committed} migration(s) committed, "
              f"{out.rerouted} request(s) re-routed in flight")
        print(f"  {out.check['operations']} acked operation(s), survivors "
              f"{ {k: max(v) if v else 0 for k, v in sorted(out.survivor_values.items())} }")
        print(f"  digest {out.digest[:16]}")
        if out.check["ok"]:
            print("verdict: OK — no acked update lost, none "
                  "double-applied")
            return 0
        for violation in out.check["violations"]:
            print(f"  [{violation.get('invariant')}] "
                  f"{violation.get('message')}", file=sys.stderr)
        print("verdict: VIOLATED")
        return 1

    # replay: render the cluster events of a captured journal.
    from repro.journal import read_jsonl
    events = read_jsonl(args.journal)
    cluster_events = [e for e in events if e.component == "cluster"]
    if not cluster_events:
        print(f"cluster: {args.journal} holds no cluster events",
              file=sys.stderr)
        return 1
    print(f"{len(cluster_events)} cluster event(s) "
          f"of {len(events)} total:")
    for event in cluster_events:
        attrs = " ".join(f"{k}={v}" for k, v in sorted(event.attrs.items()))
        print(f"  {event.time_us / 1e6:10.6f}s  {event.host:8s} "
              f"{event.kind:18s} {attrs}")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    """Evaluate SLOs over a captured journal (status/alerts/report)."""
    from repro.journal import read_jsonl
    from repro.slo import (
        default_slo_specs,
        evaluate_slos,
        load_slo_specs,
        slo_alerts,
        slo_html,
        slo_report,
        slo_status,
    )

    events = read_jsonl(args.journal)
    if not events:
        print(f"slo: {args.journal} holds no events", file=sys.stderr)
        return 1
    specs = load_slo_specs(args.spec) if args.spec else default_slo_specs()
    outcome = evaluate_slos(events, specs)

    if args.action == "alerts":
        print(slo_alerts(outcome))
    elif args.action == "report":
        print(slo_report(events, outcome))
    else:  # status
        print(slo_status(outcome))
    html = getattr(args, "html", None)
    if html:
        with open(html, "w") as handle:
            handle.write(slo_html(outcome, title=args.journal))
        print(f"\nwrote {html}")
    return 0 if outcome.ok else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import write_report
    write_report(sys.stdout, n_requests=args.requests, seed=args.seed)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    """Self-check: calibration anchors + the Table 2 pattern."""
    failures = 0

    breakdown = run_rtt_breakdown(n_requests=max(args.requests, 150),
                                  seed=args.seed)
    print("calibration anchors (paper Fig. 3, tolerance 20 %):")
    from repro.sim import PAPER_FIG3_BREAKDOWN as anchors
    for component, paper_value in anchors.items():
        measured = breakdown.get(component, 0.0)
        drift = abs(measured - paper_value) / paper_value
        status = "ok" if drift <= 0.20 else "DRIFTED"
        if status != "ok":
            failures += 1
        print(f"  {component:22s} paper {paper_value:6.0f}  "
              f"measured {measured:6.0f}  ({drift * 100:4.1f} %)  {status}")

    print("\nTable 2 pattern (paper: A(3) A(3) P(3) P(3) P(2)):")
    profile, _ = _sweep(args)
    policy = ScalabilityPolicy.synthesize(profile, Constraints(),
                                          CostFunction())
    pattern = [policy.best_configuration(n).config.label
               for n in (1, 2, 3, 4, 5)]
    expected = ["A(3)", "A(3)", "P(3)", "P(3)", "P(2)"]
    status = "ok" if pattern == expected else "MISMATCH"
    if status != "ok":
        failures += 1
    print(f"  measured: {pattern}  {status}")

    print(f"\nverify: {'PASS' if failures == 0 else 'FAIL'} "
          f"({failures} problem(s))")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse CLI."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Versatile Dependability (DSN 2004) reproduction")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default 0)")
    parser.add_argument("--requests", type=_argument(int, ge=1),
                        default=150,
                        help="requests per client per configuration "
                             "(default 150; paper used 10000)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("breakdown", help=_SUMMARIES["breakdown"])

    profile_parser = sub.add_parser("profile", help=_SUMMARIES["profile"])
    profile_parser.add_argument("--csv", help="write the sweep as CSV")

    policy_parser = sub.add_parser("policy", help=_SUMMARIES["policy"])
    policy_parser.add_argument("--max-latency", type=float, default=7000.0)
    policy_parser.add_argument("--max-bandwidth", type=float, default=3.0)
    policy_parser.add_argument("--weight", type=float, default=0.5,
                               help="cost weight p (default 0.5)")
    policy_parser.add_argument("--csv", help="write the policy as CSV")

    adaptive_parser = sub.add_parser("adaptive",
                                     help=_SUMMARIES["adaptive"])
    rate = _argument(float, ge=0)
    adaptive_parser.add_argument("--base-rate", type=rate, default=100.0)
    adaptive_parser.add_argument("--spike-rate", type=rate, default=1100.0)
    adaptive_parser.add_argument("--high", type=rate, default=400.0,
                                 help="switch-up threshold [req/s]")
    adaptive_parser.add_argument("--low", type=rate, default=200.0,
                                 help="switch-down threshold [req/s]")

    campaign_parser = sub.add_parser(
        "campaign", help=_SUMMARIES["campaign"])
    campaign_parser.add_argument("spec", help="campaign spec JSON file")
    campaign_parser.add_argument("--workers", type=int, default=1,
                                 help="parallel worker processes "
                                      "(default 1 = serial)")
    campaign_parser.add_argument("--results",
                                 help="results JSONL path (default: "
                                      "<spec>.results.jsonl); an "
                                      "existing store resumes the "
                                      "campaign")
    campaign_parser.add_argument("--fresh", action="store_true",
                                 help="discard any existing results "
                                      "instead of resuming")
    campaign_parser.add_argument("--trial-timeout", type=float,
                                 default=300.0,
                                 help="per-trial wall-clock timeout [s]")
    campaign_parser.add_argument("--csv", help="export scores as CSV")
    campaign_parser.add_argument("--markdown",
                                 help="export a Markdown report")
    campaign_parser.add_argument("--quiet", action="store_true",
                                 help="suppress per-trial progress lines")
    campaign_parser.add_argument("--telemetry", action="store_true",
                                 help="record spans during trials and "
                                      "attach per-trial telemetry "
                                      "summaries to the records")
    campaign_parser.add_argument("--journal", metavar="DIR",
                                 help="capture each trial's dependability "
                                      "journal as DIR/<trial>.journal.jsonl "
                                      "and attach journal digests to the "
                                      "records")
    campaign_parser.add_argument("--check", action="store_true",
                                 help="verify each trial's operation "
                                      "history (linearizability) and "
                                      "protocol invariants; attach the "
                                      "verdict to the records and fail "
                                      "the campaign on violations")
    campaign_parser.add_argument("--slo", action="store_true",
                                 help="evaluate per-shard SLO error "
                                      "budgets and burn-rate alerts for "
                                      "each trial; attach the verdict to "
                                      "the records and fail the campaign "
                                      "on fault/alert inconsistency")

    trace_parser = sub.add_parser("trace", help=_SUMMARIES["trace"])
    trace_parser.add_argument(
        "--style", default=ReplicationStyle.ACTIVE.value,
        choices=[s.value for s in ReplicationStyle],
        help="replication style (default active)")
    trace_parser.add_argument("--replicas", type=int, default=1,
                              help="replica count (default 1)")
    trace_parser.add_argument("--clients", type=int, default=1,
                              help="client count (default 1)")
    trace_parser.add_argument(
        "--format", default="summary",
        choices=["summary", "chrome", "prometheus", "csv"],
        help="export format (default summary; chrome = Chrome "
             "trace-event JSON for chrome://tracing / Perfetto)")
    trace_parser.add_argument("--out",
                              help="write the export to a file "
                                   "instead of stdout")

    observe_parser = sub.add_parser("observe",
                                    help=_SUMMARIES["observe"])
    observe_parser.add_argument("journal",
                                help="journal JSONL file (from a "
                                     "campaign --journal run or "
                                     "write_jsonl)")
    observe_parser.add_argument("--kind",
                                help="only show events of this kind "
                                     "(exact or prefix, e.g. 'switch')")
    observe_parser.add_argument("--shard",
                                help="only show events attributed to "
                                     "this shard (replica group)")
    observe_parser.add_argument("--limit", type=int,
                                help="cap the timeline at N events")
    observe_parser.add_argument("--no-timeline", action="store_true",
                                help="print only the summary")
    observe_parser.add_argument("--html",
                                help="also write a self-contained HTML "
                                     "report to this path")

    check_parser = sub.add_parser("check", help=_SUMMARIES["check"])
    mode = check_parser.add_mutually_exclusive_group()
    mode.add_argument("--explore", action="store_true",
                      help="explore schedules of the canonical "
                           "crash/switch scenario (the default mode)")
    mode.add_argument("--replay", metavar="ARTIFACT",
                      help="replay a repro artifact byte-identically "
                           "and re-verify its violations")
    mode.add_argument("--minimize", metavar="ARTIFACT",
                      help="greedily shrink a repro artifact while it "
                           "still fails, then replay it")
    check_parser.add_argument("--scenario",
                              choices=("crash", "partition",
                                       "checkpoint-crash"),
                              default="crash",
                              help="canonical scenario to explore: "
                                   "the crash/switch default, the "
                                   "partition/heal/merge scenario "
                                   "under primary-partition "
                                   "membership, or restarted backups "
                                   "+ a primary crash at each "
                                   "checkpoint phase + a late "
                                   "duplicate (default crash)")
    check_parser.add_argument("--budget", type=int, default=200,
                              help="schedules to explore (default 200)")
    check_parser.add_argument("--walk-seed", type=int, default=0,
                              help="base random-walk seed (default 0)")
    check_parser.add_argument("--tie-choices", type=int, default=4,
                              help="tie-break fan-out per scheduling "
                                   "decision (default 4)")
    check_parser.add_argument("--delay-bound", type=float, default=150.0,
                              help="extra per-message delay bound [us] "
                                   "(default 150)")
    check_parser.add_argument("--mutation",
                              help="seed a named protocol mutation "
                                   "(checker self-test)")
    check_parser.add_argument("--keep-going", action="store_true",
                              help="explore the full budget instead of "
                                   "stopping at the first violation")
    check_parser.add_argument("--artifact", metavar="PATH",
                              help="where to write the repro artifact "
                                   "(default repro_violation.json)")

    cluster_parser = sub.add_parser("cluster",
                                    help=_SUMMARIES["cluster"])
    cluster_sub = cluster_parser.add_subparsers(dest="action",
                                                required=True)
    summary_parser = cluster_sub.add_parser(
        "summary", help="run a sharded closed-loop load and print "
                        "per-shard rollups")
    summary_parser.add_argument("--shards", type=int, default=4,
                                help="shard count (default 4)")
    summary_parser.add_argument("--clients", type=int, default=12,
                                help="closed-loop clients (default 12)")
    summary_parser.add_argument("--cycle", type=int, default=20,
                                help="requests per client (default 20)")
    route_parser = cluster_sub.add_parser(
        "route", help="show which shard owns each key under the "
                      "deterministic hash map")
    route_parser.add_argument("keys", nargs="+",
                              help="object key(s) to route")
    route_parser.add_argument("--shards", type=int, default=4,
                              help="shard count (default 4)")
    rebalance_parser = cluster_sub.add_parser(
        "rebalance", help="migrate keys under live traffic and verify "
                          "no acked update is lost")
    rebalance_parser.add_argument("--shards", type=int, default=2,
                                  help="shard count (default 2)")
    rebalance_parser.add_argument("--clients", type=int, default=2,
                                  help="closed-loop clients (default 2)")
    rebalance_parser.add_argument("--cycle", type=int, default=16,
                                  help="requests per client (default 16)")
    replay_parser = cluster_sub.add_parser(
        "replay", help="render the cluster events (map changes, "
                       "migrations) of a journal JSONL file")
    replay_parser.add_argument("journal", help="journal JSONL file")

    slo_parser = sub.add_parser("slo", help=_SUMMARIES["slo"])
    slo_sub = slo_parser.add_subparsers(dest="action", required=True)
    slo_status_parser = slo_sub.add_parser(
        "status", help="per-shard error-budget table")
    slo_alerts_parser = slo_sub.add_parser(
        "alerts", help="burn-rate alert log")
    slo_report_parser = slo_sub.add_parser(
        "report", help="status + alerts + fault/alert cross-check")
    for action_parser in (slo_status_parser, slo_alerts_parser,
                          slo_report_parser):
        action_parser.add_argument(
            "journal", help="journal JSONL file (from a campaign "
                            "--journal run or write_jsonl)")
        action_parser.add_argument(
            "--spec", help="SLO spec JSON file (default: the built-in "
                           "three-nines availability objective)")
    for action_parser in (slo_status_parser, slo_report_parser):
        action_parser.add_argument(
            "--html", help="also write the self-contained HTML fleet "
                           "panel to this path")

    sub.add_parser("report", help=_SUMMARIES["report"])
    sub.add_parser("verify", help=_SUMMARIES["verify"])
    return parser


_COMMANDS = {
    "breakdown": _cmd_breakdown,
    "check": _cmd_check,
    "cluster": _cmd_cluster,
    "profile": _cmd_profile,
    "policy": _cmd_policy,
    "adaptive": _cmd_adaptive,
    "campaign": _cmd_campaign,
    "observe": _cmd_observe,
    "report": _cmd_report,
    "slo": _cmd_slo,
    "trace": _cmd_trace,
    "verify": _cmd_verify,
}

#: Global options that consume a value; the unknown-command scan must
#: skip their arguments to find the subcommand token.
_VALUE_OPTIONS = ("--seed", "--requests")


def _find_command(argv: List[str]) -> Optional[str]:
    """The first positional token of ``argv`` (the subcommand), or
    None when only options are present."""
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token in _VALUE_OPTIONS:
            skip = True
            continue
        if token.startswith("-"):
            continue
        return token
    return None


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    command = _find_command(argv)
    if command is not None and command not in _COMMANDS:
        lines = [f"repro: unknown command {command!r}", "", "commands:"]
        for name in sorted(_COMMANDS):
            lines.append(f"  {name:10s} {_SUMMARIES[name]}")
        print("\n".join(lines), file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ClusterError, ConfigurationError, PolicyError,
            VerificationError, OSError) as exc:
        # Bad input or an unusable file: one line, exit 2.  A failed
        # verdict is a result, not an error: its handler returns 1.
        return _usage_error(args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
