"""Golden-digest regression: the fast path is behavior-invariant.

The hot-path work (inlined kernel dispatch, heap compaction, GCS
routing caches, loopback loss skip, the persistent campaign pool) is
only admissible if it never changes simulation results.  These tests
pin that: the same seed must produce byte-identical journal and
telemetry exports whether the optimized kernel or the naive
:class:`ReferenceSimulator` drives the run, and whether a campaign
runs serially or across the worker pool.
"""

import hashlib

from repro.campaign import CampaignSpec, ResultsStore, run_campaign
from repro.experiments import testbed as testbed_module
from repro.experiments.scenarios import run_replicated_load
from repro.journal.io import events_to_jsonl
from repro.replication import ReplicationStyle
from repro.sim import Simulator
from repro.telemetry import chrome_trace_json
from tests.sim.reference_kernel import ReferenceSimulator


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _golden_run(monkeypatch, sim_cls, style):
    """One journaled + traced load run on the given kernel class."""
    monkeypatch.setattr(testbed_module, "Simulator", sim_cls)
    result = run_replicated_load(
        style, n_replicas=3, n_clients=2, n_requests=25,
        seed=5, telemetry=True, journal=True)
    assert result.completed == 50
    journal = events_to_jsonl(result.journal.events)
    telemetry = chrome_trace_json(result.telemetry.spans)
    assert journal and telemetry
    return _digest(journal), _digest(telemetry)


def test_fast_kernel_matches_reference_active(monkeypatch):
    reference = _golden_run(monkeypatch, ReferenceSimulator,
                            ReplicationStyle.ACTIVE)
    fast = _golden_run(monkeypatch, Simulator, ReplicationStyle.ACTIVE)
    assert fast == reference


def test_fast_kernel_matches_reference_warm_passive(monkeypatch):
    reference = _golden_run(monkeypatch, ReferenceSimulator,
                            ReplicationStyle.WARM_PASSIVE)
    fast = _golden_run(monkeypatch, Simulator,
                       ReplicationStyle.WARM_PASSIVE)
    assert fast == reference


def test_kernel_level_trace_identical():
    """Same seed, same stochastic workload: the two kernels dispatch
    the exact same (time, value) sequence."""
    def drive(sim):
        out = []

        def tick(n):
            out.append((sim.now, sim.rng.random()))
            if n:
                handle = sim.schedule(50.0, tick, 0)
                sim.cancel(handle)
                sim.schedule(sim.rng.uniform(1, 9), tick, n - 1)

        sim.schedule(0.0, tick, 400)
        sim.run()
        return out

    assert drive(Simulator(seed=13)) == drive(ReferenceSimulator(seed=13))


def _campaign_spec():
    return CampaignSpec(
        name="golden", styles=["active", "warm_passive"],
        replica_counts=[2], fault_loads=["none", "process_crash"],
        seeds=[0], n_clients=1, duration_us=200_000.0,
        rate_per_s=100.0, settle_us=400_000.0)


def _campaign_digests(tmp_path, tag, workers):
    journal_dir = tmp_path / f"{tag}-journal"
    store = ResultsStore(str(tmp_path / f"{tag}.jsonl"))
    summary = run_campaign(_campaign_spec(), store, workers=workers,
                           journal_dir=str(journal_dir))
    assert summary.failed == 0
    digests = {"results": _digest(open(store.path).read())}
    for path in sorted(journal_dir.iterdir()):
        digests[path.name] = _digest(path.read_text())
    assert len(digests) > 1  # the journals were actually captured
    return digests


def test_campaign_journals_identical_across_worker_counts(tmp_path):
    serial = _campaign_digests(tmp_path, "serial", 1)
    pooled = _campaign_digests(tmp_path, "pooled", 3)
    assert pooled == serial

