#!/usr/bin/env python
"""Capture a journaled repro run for a failing CI build.

When the tier-1 suite fails, CI runs this script to produce a
dependability artifact an investigator can open without re-running
anything: a canonical fault trial (process crash under load) with the
journal on, exported as JSONL plus the self-contained HTML report.

Usage: python scripts/ci_failure_journal.py [OUT_DIR]   (default
``ci-artifacts``).  Exit code 0 even if the trial itself looks odd —
this script documents a failure, it must not mask it.
"""

from __future__ import annotations

import json
import os
import sys


def main(out_dir: str = "ci-artifacts") -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..",
                                    "src"))
    from repro.experiments import run_fault_trial
    from repro.journal import write_jsonl
    from repro.replication import ReplicationStyle
    from repro.tools import journal_html, journal_summary

    os.makedirs(out_dir, exist_ok=True)

    def crash(context):
        context.injector.crash_process_at(
            context.replicas[1].process, context.t0 + 300_000.0)

    result = run_fault_trial(
        ReplicationStyle.ACTIVE, n_replicas=3, n_clients=1,
        duration_us=800_000.0, rate_per_s=150.0, seed=0,
        inject=crash, journal=True)

    events = result.journal.events
    jsonl_path = os.path.join(out_dir, "failure.journal.jsonl")
    html_path = os.path.join(out_dir, "failure.report.html")
    digest_path = os.path.join(out_dir, "failure.digest.json")
    write_jsonl(events, jsonl_path)
    with open(html_path, "w") as handle:
        handle.write(journal_html(events, title="CI failure journal"))
    with open(digest_path, "w") as handle:
        json.dump(result.metrics()["journal"], handle, indent=2,
                  sort_keys=True)

    print(f"wrote {jsonl_path} ({len(events)} events), {html_path}, "
          f"{digest_path}")
    print()
    print(journal_summary(events))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:2]))
