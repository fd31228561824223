"""Tests for the ASCII-chart and export tools."""

from repro.core import ConfigPoint, Measurement, Profile, ScalabilityPolicy
from repro.replication import ReplicationStyle
from repro.tools import (
    policy_to_csv,
    profile_to_csv,
    render_series,
)


class TestSeries:
    def test_bars_scale_to_peak(self):
        text = render_series([(0.0, 10.0), (1e6, 100.0)], width=10)
        lines = text.splitlines()
        assert lines[0].startswith("value (peak 100.0)")
        assert lines[1].count("#") == 1
        assert lines[2].count("#") == 10

    def test_empty_series(self):
        assert render_series([]) == "(empty series)"

    def test_zero_peak(self):
        text = render_series([(0.0, 0.0)])
        assert "|" in text


class TestCsvExport:
    def _profile(self):
        return Profile([
            Measurement(config=ConfigPoint(ReplicationStyle.ACTIVE, 3),
                        n_clients=1, latency_us=1200.0, jitter_us=10.0,
                        bandwidth_mbps=1.5, throughput_per_s=800.0),
            Measurement(config=ConfigPoint(
                ReplicationStyle.WARM_PASSIVE, 2),
                n_clients=1, latency_us=2000.0, jitter_us=50.0,
                bandwidth_mbps=0.9, throughput_per_s=480.0),
        ])

    def test_profile_csv_roundtrippable(self):
        import csv as csv_module
        import io
        text = profile_to_csv(self._profile())
        rows = list(csv_module.reader(io.StringIO(text)))
        assert rows[0][0] == "style"
        assert len(rows) == 3
        assert rows[1][0] == "active"
        assert float(rows[1][3]) == 1200.0

    def test_profile_csv_writes_to_stream(self, tmp_path):
        target = tmp_path / "profile.csv"
        with open(target, "w") as handle:
            profile_to_csv(self._profile(), out=handle)
        assert target.read_text().startswith("style,")

    def test_policy_csv(self):
        policy = ScalabilityPolicy.synthesize(self._profile())
        text = policy_to_csv(policy)
        lines = text.strip().splitlines()
        assert lines[0].startswith("n_clients,")
        assert len(lines) == 2  # one feasible load profiled
        assert "A(3)" in lines[1]

class TestTelemetryCategories:
    def test_series_renders_telemetry_quantiles(self):
        # The ASCII chart is format-agnostic; feed it
        # ``(time, p99, queue depth)`` samples.
        samples = [(0.0, 200.0, 1.0), (1e6, 400.0, 3.0)]
        text = render_series([(t, p99) for t, p99, _ in samples],
                             label="service p99 [us]")
        assert "service p99" in text
        assert text.count("|") == 2
