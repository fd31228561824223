"""Failure detectors: fixed timeout vs adaptive (timing faults)."""

import pytest

from repro.errors import ConfigurationError
from repro.gcs import AdaptiveDetector, FixedTimeoutDetector
from repro.sim import GcsCalibration
from tests.support import Cluster, RecordingListener

FAILOVER_US = 1_500_000


class TestFixedDetector:
    def test_suspects_after_timeout(self):
        fd = FixedTimeoutDetector(timeout_us=1000.0)
        fd.heard_from("a", 0.0)
        assert fd.suspects(["a"], 500.0) == set()
        assert fd.suspects(["a"], 1500.0) == {"a"}

    def test_hearing_resets(self):
        fd = FixedTimeoutDetector(timeout_us=1000.0)
        fd.heard_from("a", 0.0)
        fd.heard_from("a", 900.0)
        assert fd.suspects(["a"], 1800.0) == set()

    def test_forget(self):
        fd = FixedTimeoutDetector(timeout_us=1000.0)
        fd.heard_from("a", 900.0)
        fd.forget("a")
        assert "a" not in fd.last_heard
        # Back to the epoch default: silent since time 0.
        assert fd.suspects(["a"], 1500.0) == {"a"}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FixedTimeoutDetector(timeout_us=0.0)

    def test_rejects_nan_timeout(self):
        with pytest.raises(ConfigurationError, match="timeout_us"):
            FixedTimeoutDetector(timeout_us=float("nan"))


class TestAdaptiveDetector:
    def _trained(self, gap_us=100.0, n=20):
        fd = AdaptiveDetector(floor_us=500.0, margin_us=50.0)
        t = 0.0
        for _ in range(n):
            fd.heard_from("a", t)
            t += gap_us
        return fd, t - gap_us

    def test_untrained_uses_floor(self):
        fd = AdaptiveDetector(floor_us=500.0)
        fd.heard_from("a", 0.0)
        assert fd.threshold_us("a") == 500.0

    def test_threshold_tracks_interarrival_mean(self):
        fd, last = self._trained(gap_us=100.0)
        # Regular 100 us heartbeats: threshold ~ 100 + margin, clamped
        # up to the floor.
        assert fd.threshold_us("a") == 500.0  # floor dominates here

        slow_fd, last = self._trained(gap_us=1000.0)
        threshold = slow_fd.threshold_us("a")
        assert 1000.0 < threshold < 2000.0

    def test_adapts_to_gradual_slowdown(self):
        """Heartbeat gaps that creep upward raise the threshold, so a
        live-but-slow peer is not suspected (the timing-fault case)."""
        fd = AdaptiveDetector(floor_us=500.0, margin_us=100.0)
        t = 0.0
        gap = 100.0
        fd.heard_from("a", t)
        for _ in range(40):
            gap *= 1.15  # gradual degradation
            t += gap
            fd.heard_from("a", t)
        # The peer is slow (next gap ~ 1.15x the last) but alive: at
        # 90 % of the expected next gap it must not be suspect.
        assert fd.suspects(["a"], t + gap * 1.15 * 0.9) == set()

    def test_detects_true_silence(self):
        fd, last = self._trained(gap_us=1000.0)
        # Dead silence far beyond the adapted threshold.
        assert fd.suspects(["a"], last + 50_000.0) == {"a"}

    def test_ceiling_clamps(self):
        fd = AdaptiveDetector(floor_us=500.0, ceiling_us=2_000.0)
        t = 0.0
        for _ in range(10):
            fd.heard_from("a", t)
            t += 10_000.0  # huge gaps
        assert fd.threshold_us("a") == 2_000.0

    def test_forget_clears_history(self):
        fd, _ = self._trained(gap_us=1000.0)
        fd.forget("a")
        assert fd.threshold_us("a") == 500.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AdaptiveDetector(safety_factor=0.0)
        with pytest.raises(ConfigurationError):
            AdaptiveDetector(floor_us=100.0, ceiling_us=50.0)

    def test_rejects_nan_ceiling_and_fractional_window(self):
        with pytest.raises(ConfigurationError, match="ceiling_us"):
            AdaptiveDetector(ceiling_us=float("nan"))
        with pytest.raises(ConfigurationError, match="window"):
            AdaptiveDetector(window=2.5)


class TestAdaptiveUnderDelaySpike:
    """Regression coverage for the timing-fault contract: a delay
    spike that keeps inter-arrivals below the adapted threshold must
    cause no false suspicion, and the threshold must re-tighten once
    the spike window ends (the window slides the spiked samples out).
    """

    BASE_GAP = 10_000.0

    def _train(self, fd, t, n=32, jitter=(0.0, 400.0, -300.0, 200.0)):
        for i in range(n):
            fd.heard_from("a", t)
            t += self.BASE_GAP + jitter[i % len(jitter)]
        return t

    def test_spike_below_adapted_threshold_no_false_suspicion(self):
        fd = AdaptiveDetector(safety_factor=4.0, margin_us=1_000.0,
                              window=32, floor_us=2_000.0)
        t = self._train(fd, 0.0)
        threshold = fd.threshold_us("a")
        # A spike that stretches gaps to 90 % of the adapted
        # threshold: late, but inside mean + safety_factor * std.
        spiked_gap = threshold * 0.9
        assert spiked_gap > self.BASE_GAP  # it *is* a degradation
        for _ in range(16):
            assert fd.suspects(["a"], t) == set()
            fd.heard_from("a", t)
            t += spiked_gap
        assert fd.suspects(["a"], t - spiked_gap * 0.05) == set()

    def test_threshold_retightens_after_spike_window(self):
        fd = AdaptiveDetector(safety_factor=4.0, margin_us=1_000.0,
                              window=32, floor_us=2_000.0)
        t = self._train(fd, 0.0)
        calm = fd.threshold_us("a")
        spiked_gap = calm * 0.9
        for _ in range(16):
            fd.heard_from("a", t)
            t += spiked_gap
        inflated = fd.threshold_us("a")
        assert inflated > calm  # the spike loosened the threshold
        # Spike over: regular heartbeats slide every spiked sample
        # out of the window and the threshold converges back down.
        t = self._train(fd, t)
        recovered = fd.threshold_us("a")
        assert recovered < inflated
        assert recovered < calm * 1.5

    def test_injected_delay_spike_does_not_collapse_membership(self):
        """End to end: an injector ``delay_spike`` below the adapted
        slack leaves the membership intact, and the detector's
        thresholds come back down after the window."""
        from repro.faults import FaultInjector
        from repro.sim import default_calibration
        calibration = default_calibration().with_overrides(
            gcs=GcsCalibration(adaptive_failure_detection=True))
        cluster = Cluster(["h1", "h2", "h3"], seed=7,
                          calibration=calibration,
                          deterministic_network=False)
        cluster.run(2_000_000)  # train on calm heartbeats
        injector = FaultInjector(cluster.sim, cluster.network)
        injector.delay_spike(cluster.sim.now,
                             cluster.sim.now + 3_000_000.0,
                             extra_us=150_000.0)
        cluster.run(3_000_000)
        for daemon in cluster.daemons.values():
            assert daemon.view.members == ("h1", "h2", "h3")
        inflated = max(
            d._detector.threshold_us(peer)
            for d in cluster.daemons.values()
            for peer in ("h1", "h2", "h3") if peer != d.host.name)
        cluster.run(8_000_000)  # calm again: window slides spike out
        for daemon in cluster.daemons.values():
            assert daemon.view.members == ("h1", "h2", "h3")
            for peer in ("h1", "h2", "h3"):
                if peer == daemon.host.name:
                    continue
                assert daemon._detector.threshold_us(peer) <= inflated


class TestDetectorsInTheDaemon:
    def _timing_fault(self, cluster, duration_us=8_000_000.0,
                      peak_us=900_000.0):
        """A gradually intensifying network-delay storm."""
        from repro.net import RampJitter
        cluster.network.add_loss_model(RampJitter(
            cluster.sim.now, cluster.sim.now + duration_us, peak_us))

    def test_fixed_detector_false_suspects_under_timing_fault(self):
        cluster = Cluster(["h1", "h2", "h3"], seed=41,
                          deterministic_network=False)
        cluster.run(100_000)
        self._timing_fault(cluster)
        cluster.run(10_000_000)
        # Delay variation exceeded the 350 ms fixed timeout: live
        # daemons were (falsely) removed from the membership.
        views = {d.view.members for d in cluster.daemons.values()}
        assert any(len(v) < 3 for v in views)

    def test_adaptive_detector_rides_out_timing_fault(self):
        calibration = None
        from repro.sim import default_calibration
        base = default_calibration()
        calibration = base.with_overrides(gcs=GcsCalibration(
            adaptive_failure_detection=True))
        cluster = Cluster(["h1", "h2", "h3"], seed=41,
                          calibration=calibration,
                          deterministic_network=False)
        cluster.run(100_000)
        self._timing_fault(cluster)
        cluster.run(10_000_000)
        for daemon in cluster.daemons.values():
            assert daemon.view.members == ("h1", "h2", "h3")

    def test_adaptive_detector_still_catches_real_crashes(self):
        from repro.sim import default_calibration
        calibration = default_calibration().with_overrides(
            gcs=GcsCalibration(adaptive_failure_detection=True))
        cluster = Cluster(["h1", "h2", "h3"], seed=42,
                          calibration=calibration)
        clients, listeners = [], []
        for host, name in (("h2", "b"), ("h3", "c")):
            _, c = cluster.client(host, name)
            listener = RecordingListener()
            c.join("grp", listener.on_message, listener.on_view)
            clients.append(c)
            listeners.append(listener)
        cluster.run(100_000)
        cluster.hosts["h1"].crash()
        cluster.run(3 * FAILOVER_US)
        assert cluster.daemons["h2"].view.members == ("h2", "h3")
        clients[0].multicast("grp", "post-crash", nbytes=16)
        cluster.run(300_000)
        assert "post-crash" in listeners[1].payloads
