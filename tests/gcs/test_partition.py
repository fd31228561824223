"""Primary-partition membership: wedge, heal, merge."""

from repro.faults import FaultInjector
from repro.journal.events import Journal
from repro.sim import GcsCalibration, default_calibration
from tests.support import Cluster


def _cluster(seed=5, primary_partition=True):
    calibration = default_calibration().with_overrides(
        gcs=GcsCalibration(primary_partition=primary_partition))
    cluster = Cluster(["h1", "h2", "h3"], seed=seed,
                      calibration=calibration)
    cluster.sim.journal = Journal()
    cluster.run(500_000)  # let the full view stabilize
    return cluster


def _partition_h3(cluster, duration_us=2_500_000.0):
    injector = FaultInjector(cluster.sim, cluster.network)
    start = cluster.sim.now + 10_000
    injector.partition_at([["h3"]], start, start + duration_us)
    return start, start + duration_us


class TestMinorityWedge:
    def test_minority_wedges_and_majority_reconfigures(self):
        cluster = _cluster()
        start, heal = _partition_h3(cluster)
        cluster.run(1_500_000)  # inside the partition
        assert cluster.daemons["h1"].view.members == ("h1", "h2")
        assert cluster.daemons["h2"].view.members == ("h1", "h2")
        minority = cluster.daemons["h3"]
        assert minority._wedged
        # The wedged side never installs a minority view: its last
        # installed view is still the stale pre-partition one.
        assert minority.view.members == ("h1", "h2", "h3")
        wedges = [e for e in cluster.sim.journal.events
                  if e.kind == "partition.wedged"]
        assert [e.host for e in wedges] == ["h3"]

    def test_no_concurrent_serving_views_in_journal(self):
        cluster = _cluster()
        start, heal = _partition_h3(cluster)
        cluster.run(1_500_000)
        installs = [e for e in cluster.sim.journal.events
                    if e.kind == "daemon.install"
                    and start < e.time_us and e.host == "h3"]
        assert installs == []  # nothing installed on the minority side

    def test_legacy_mode_still_splits(self):
        """With primary_partition off (the pre-partition calibration),
        both sides install views — the behaviour every earlier
        experiment calibrated against must be untouched."""
        cluster = _cluster(primary_partition=False)
        _partition_h3(cluster)
        cluster.run(1_500_000)
        assert cluster.daemons["h1"].view.members == ("h1", "h2")
        minority = cluster.daemons["h3"]
        assert not getattr(minority, "_wedged", False)
        assert minority.view.members == ("h3",)


class TestHealAndMerge:
    def test_views_merge_after_heal(self):
        cluster = _cluster()
        _partition_h3(cluster)
        cluster.run(6_000_000)  # through the heal + rejoin probes
        views = {name: d.view for name, d in cluster.daemons.items()}
        assert all(v.members == ("h1", "h2", "h3")
                   for v in views.values())
        assert len({v.view_id for v in views.values()}) == 1
        assert not cluster.daemons["h3"]._wedged

    def test_heal_journaled_on_the_rejoiner(self):
        cluster = _cluster()
        _partition_h3(cluster)
        cluster.run(6_000_000)
        healed = [e for e in cluster.sim.journal.events
                  if e.kind == "partition.healed"]
        assert [e.host for e in healed] == ["h3"]
        wedged_at = [e.time_us for e in cluster.sim.journal.events
                     if e.kind == "partition.wedged"][0]
        assert healed[0].time_us > wedged_at

    def test_second_partition_wedges_and_merges_again(self):
        """A merge un-suspects the rejoiner's peers: suspicions it kept
        from its wedge would exempt them from every later failure
        check, so a second partition would neither wedge it nor let it
        rejoin."""
        calibration = default_calibration().with_overrides(
            gcs=GcsCalibration(primary_partition=True))
        cluster = Cluster(["s01", "s02", "s03", "w01"], seed=1,
                          calibration=calibration)
        cluster.sim.journal = Journal()
        injector = FaultInjector(cluster.sim, cluster.network)
        injector.partition_at([["s03"]], 100_000, 1_500_000)
        injector.partition_at([["s03"]], 3_000_000, 4_500_000)
        cluster.run(7_000_000)
        second = [e.kind for e in cluster.sim.journal.events
                  if e.time_us > 3_000_000 and e.host == "s03"]
        assert second == ["detector.suspect", "partition.detected",
                          "partition.wedged", "daemon.install",
                          "partition.healed"]
        views = {d.view for d in cluster.daemons.values()}
        assert len(views) == 1
        assert views.pop().members == ("s01", "s02", "s03", "w01")
        assert not cluster.daemons["s03"]._wedged
