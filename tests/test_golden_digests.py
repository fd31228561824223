"""Byte-identity across commits: literal digests, not relative ones.

Every other determinism test compares two runs of the *same* commit
(serial vs pooled, fast vs reference kernel).  ``golden_digests.json``
holds the literal sha256 of what every scenario pipeline produces, so
a refactor or optimization that moves a single journal byte fails here
even when it moves both sides of every relative comparison together.

Regenerate — only for a change that *declares* it alters simulated
behaviour (protocol or calibration) and says why::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import dataclasses
import hashlib
import json
import pathlib
import tempfile

import pytest

from repro.campaign import CampaignSpec, ResultsStore, run_campaign
from repro.check import (
    canonical_checkpoint_crash_scenario,
    canonical_partition_scenario,
    canonical_scenario,
    explore,
)
from repro.cluster import (
    run_cluster_load,
    run_cluster_rebalance_check,
    run_cluster_trial,
)
from repro.core.policies import ThresholdSwitchPolicy
from repro.experiments import (
    run_adaptive_scenario,
    run_overhead_modes,
    run_replicated_load,
    run_rtt_breakdown,
)
from repro.journal.io import events_to_jsonl
from repro.replication import ReplicationStyle
from repro.telemetry import (
    ALL_COMPONENTS,
    chrome_trace_json,
    prometheus_text,
)
from repro.workload import SpikeProfile

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden_digests.json"

#: Scenario factory and walk budget per ``repro check --scenario`` name.
EXPLORATIONS = {
    "crash": (canonical_scenario, 20),
    "partition": (canonical_partition_scenario, 10),
    "checkpoint-crash": (canonical_checkpoint_crash_scenario, 15),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def explore_digest(name: str) -> str:
    """sha256 over the concatenated outcome digests of every walk."""
    make_scenario, budget = EXPLORATIONS[name]
    result = explore(make_scenario(seed=1), budget=budget,
                     stop_on_violation=False)
    assert result.ok and result.schedules_run == budget
    return _sha256("".join(report.digest for report in result.reports))


def campaign_digests(directory: pathlib.Path, workers: int) -> dict:
    """sha256 of the results store and of every per-trial journal."""
    spec = CampaignSpec(
        name="golden", styles=["active", "warm_passive"],
        replica_counts=[2],
        fault_loads=["none", "process_crash", "partition"],
        seeds=[0], n_clients=1, duration_us=200_000.0,
        rate_per_s=100.0, settle_us=400_000.0)
    journal_dir = directory / f"journal-w{workers}"
    store = ResultsStore(str(directory / f"results-w{workers}.jsonl"))
    summary = run_campaign(spec, store, workers=workers,
                           journal_dir=str(journal_dir))
    assert summary.failed == 0 and summary.ran == 6
    digests = {"results": _sha256(pathlib.Path(store.path).read_text())}
    for path in sorted(journal_dir.iterdir()):
        digests[path.name] = _sha256(path.read_text())
    return digests


def load_digests() -> dict:
    """sha256 of the journal and the trace of one closed-loop run."""
    result = run_replicated_load(
        ReplicationStyle.WARM_PASSIVE, n_replicas=3, n_clients=2,
        n_requests=25, seed=5, telemetry=True, journal=True)
    assert result.completed == 50
    return {"journal": _sha256(events_to_jsonl(result.journal.events)),
            "telemetry": _sha256(chrome_trace_json(result.telemetry.spans))}


def all_spans_json(spans) -> str:
    """Canonical JSON of all eleven fields of every span.  Unlike the
    chrome export it keeps open spans, as ``"end_us": null``."""
    return json.dumps([dataclasses.asdict(span) for span in spans],
                      sort_keys=True, separators=(",", ":"))


def cluster_load_digests() -> dict:
    """sha256 of the journal, the trace, every span and the Prometheus
    export of one sharded closed-loop run with a live rebalance."""
    result = run_cluster_load(
        n_shards=3, n_clients=4, n_requests=20, seed=3, n_server_hosts=4,
        journal=True, telemetry=True, rebalance=("obj00", "shard2", 30_000.0))
    assert result.completed == 80 and result.migrations_committed == 1
    return {"journal": _sha256(events_to_jsonl(result.journal.events)),
            "telemetry": _sha256(chrome_trace_json(result.telemetry.spans)),
            "spans": _sha256(all_spans_json(result.telemetry.spans)),
            "metrics": _sha256(prometheus_text(result.telemetry.spans))}


def cluster_trial_digests() -> dict:
    """sha256 of the metric record and the journal of one sharded
    open-loop trial with every optional section on."""
    result = run_cluster_trial(
        ReplicationStyle.WARM_PASSIVE, n_shards=2, n_clients=2,
        duration_us=300_000.0, rate_per_s=150.0, seed=2,
        fault_load="process_crash", telemetry=True, check=True, slo=True)
    assert result.check["ok"] and len(result.injected) == 1
    return {"metrics": _sha256(json.dumps(result.metrics(), sort_keys=True)),
            "journal": _sha256(events_to_jsonl(result.journal.events))}


def rebalance_check_digest() -> str:
    """The outcome digest (journal + history + survivors) of one
    rebalance safety check."""
    outcome = run_cluster_rebalance_check(n_shards=2, n_clients=2,
                                          n_requests=12, seed=4)
    assert outcome.check["ok"] and outcome.check["operations"] == 24
    assert outcome.giveups == 0
    return outcome.digest


def adaptive_digests() -> dict:
    """Journal sha256 and request counts of one adaptive Fig. 6 run."""
    result = run_adaptive_scenario(
        SpikeProfile(100, 900, 300_000, 900_000), 1_200_000.0,
        policy=ThresholdSwitchPolicy(500, 300), n_clients=2, seed=3,
        journal=True)
    return {"journal": _sha256(events_to_jsonl(result.journal.events)),
            "sent_completed": [result.sent, result.completed]}


def fig3_breakdown() -> dict:
    """Fig. 3 per-component means, rounded to 1e-6 us: how the
    breakdown is summed may move the last bits, the value may not."""
    breakdown = run_rtt_breakdown(n_requests=500, seed=0)
    return {component: round(breakdown.get(component, 0.0), 6)
            for component in ALL_COMPONENTS}


def fig4_bars() -> dict:
    """Fig. 4 mean and jitter of every mode, as exact ``repr``s."""
    return {mode: [repr(bar.latency_mean_us), repr(bar.jitter_us)]
            for mode, bar in run_overhead_modes(n_requests=50,
                                                seed=0).items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(EXPLORATIONS))
def test_explore_digests_match_golden(golden, name):
    assert explore_digest(name) == golden["explore"][name]


@pytest.mark.parametrize("workers", [1, 3])
def test_campaign_journals_match_golden(golden, tmp_path, workers):
    assert campaign_digests(tmp_path, workers) == golden["campaign"]


def test_replicated_load_matches_golden(golden):
    assert load_digests() == golden["replicated_load"]


def test_cluster_load_matches_golden(golden):
    assert cluster_load_digests() == golden["cluster_load"]


def test_cluster_trial_matches_golden(golden):
    assert cluster_trial_digests() == golden["cluster_trial"]


def test_rebalance_check_matches_golden(golden):
    assert rebalance_check_digest() == golden["rebalance_check"]


def test_adaptive_scenario_matches_golden(golden):
    assert adaptive_digests() == golden["adaptive"]


def test_fig3_breakdown_matches_golden(golden):
    assert fig3_breakdown() == golden["fig3"]


def test_fig4_bars_match_golden(golden):
    assert fig4_bars() == golden["fig4"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN_PATH.write_text(json.dumps({
            "explore": {name: explore_digest(name)
                        for name in sorted(EXPLORATIONS)},
            "campaign": campaign_digests(pathlib.Path(scratch), 1),
            "replicated_load": load_digests(),
            "cluster_load": cluster_load_digests(),
            "cluster_trial": cluster_trial_digests(),
            "rebalance_check": rebalance_check_digest(),
            "adaptive": adaptive_digests(),
            "fig3": fig3_breakdown(),
            "fig4": fig4_bars(),
        }, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
