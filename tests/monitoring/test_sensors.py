"""Tests for the arrival-rate sensor and contracts over snapshots."""

import pytest

from repro.errors import ConfigurationError
from repro.monitoring import (
    Contract,
    ContractMonitor,
    ContractStatus,
    MetricsSnapshot,
    SlidingWindow,
)
from repro.replication import ReplicationStyle
from tests.replication.helpers import build_rig, drive


def test_rate_sensor():
    """Each server replicator's arrival-rate sensor is a half-second
    window with one sample per request it receives."""
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    drive(testbed, clients[0], 10)
    for replica in replicas:
        arrivals = replica.replicator.arrivals
        assert isinstance(arrivals, SlidingWindow)
        assert arrivals.window_us == 500_000.0
        times = [t for t, _ in arrivals._samples]
        assert len(times) == 10
        span = testbed.now - times[0]
        assert arrivals.rate_per_second(testbed.now) \
            == pytest.approx(10 / span * 1e6)


class TestContracts:
    def _snap(self, latency):
        return MetricsSnapshot(time=0.0, latency_mean_us=latency)

    def test_honoured_warning_violated(self):
        contract = Contract("lat", "latency_mean_us", limit=1000.0,
                            warning_fraction=0.8)
        assert contract.evaluate(self._snap(500)) is ContractStatus.HONOURED
        assert contract.evaluate(self._snap(900)) is ContractStatus.WARNING
        assert contract.evaluate(self._snap(1500)) is ContractStatus.VIOLATED

    def test_monitor_emits_transitions_only(self):
        monitor = ContractMonitor([
            Contract("lat", "latency_mean_us", limit=1000.0)])
        monitor.evaluate(self._snap(100))   # honoured (no transition)
        monitor.evaluate(self._snap(2000))  # -> violated
        monitor.evaluate(self._snap(2100))  # still violated (no event)
        monitor.evaluate(self._snap(100))   # -> honoured
        assert [e.status for e in monitor.events] == [
            ContractStatus.VIOLATED, ContractStatus.HONOURED]

    def test_status_follows_the_last_evaluation(self):
        monitor = ContractMonitor([
            Contract("lat", "latency_mean_us", limit=1000.0)])
        monitor.evaluate(self._snap(100))
        assert monitor.status("lat") is ContractStatus.HONOURED
        monitor.evaluate(self._snap(5000))
        assert monitor.status("lat") is ContractStatus.VIOLATED

    def test_duplicate_contract_name_rejected(self):
        monitor = ContractMonitor([
            Contract("lat", "latency_mean_us", limit=1000.0)])
        with pytest.raises(ConfigurationError):
            monitor.add(Contract("lat", "latency_mean_us", limit=2000.0))

    def test_invalid_contract_params(self):
        with pytest.raises(ConfigurationError):
            Contract("x", "latency_mean_us", limit=0.0)
        with pytest.raises(ConfigurationError):
            Contract("x", "latency_mean_us", limit=10.0,
                     warning_fraction=0.0)
