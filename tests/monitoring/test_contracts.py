"""Behavioural contracts: bounds, warning margins, transitions."""

import pytest

from repro.errors import ConfigurationError
from repro.journal import Journal
from repro.monitoring import (
    Contract,
    ContractMonitor,
    ContractStatus,
    MetricsSnapshot,
)


def snap(time=0.0, latency=0.0, rate=0.0):
    return MetricsSnapshot(time=time, latency_mean_us=latency,
                           request_rate_per_s=rate)


class TestUpperBoundContract:
    contract = Contract("lat", "latency_mean_us", limit=1000.0,
                        warning_fraction=0.8)

    def test_warning_band_below_limit(self):
        assert self.contract.warning_threshold == pytest.approx(800.0)
        assert self.contract.evaluate(snap(latency=700.0)) is \
            ContractStatus.HONOURED
        assert self.contract.evaluate(snap(latency=900.0)) is \
            ContractStatus.WARNING
        assert self.contract.evaluate(snap(latency=1100.0)) is \
            ContractStatus.VIOLATED

    def test_limit_itself_is_warning_not_violation(self):
        assert self.contract.evaluate(snap(latency=1000.0)) is \
            ContractStatus.WARNING


class TestLowerBoundContract:
    contract = Contract("rate", "request_rate_per_s", limit=100.0,
                        warning_fraction=0.8, bound="lower")

    def test_warning_band_sits_above_the_floor(self):
        # Same relative band width as the upper bound, mirrored: the
        # metric must stay above 100; below 120 is the warning band.
        assert self.contract.warning_threshold == pytest.approx(120.0)
        assert self.contract.evaluate(snap(rate=150.0)) is \
            ContractStatus.HONOURED
        assert self.contract.evaluate(snap(rate=110.0)) is \
            ContractStatus.WARNING
        assert self.contract.evaluate(snap(rate=90.0)) is \
            ContractStatus.VIOLATED

    def test_floor_itself_is_warning_not_violation(self):
        assert self.contract.evaluate(snap(rate=100.0)) is \
            ContractStatus.WARNING

    def test_no_warning_band_when_fraction_is_one(self):
        tight = Contract("rate", "request_rate_per_s", limit=100.0,
                         warning_fraction=1.0, bound="lower")
        assert tight.warning_threshold == pytest.approx(100.0)
        assert tight.evaluate(snap(rate=100.5)) is \
            ContractStatus.HONOURED


class TestContractValidation:
    def test_rejects_bad_limit(self):
        with pytest.raises(ConfigurationError):
            Contract("c", "latency_mean_us", limit=0.0)

    def test_rejects_bad_warning_fraction(self):
        with pytest.raises(ConfigurationError):
            Contract("c", "latency_mean_us", limit=1.0,
                     warning_fraction=0.0)
        with pytest.raises(ConfigurationError):
            Contract("c", "latency_mean_us", limit=1.0,
                     warning_fraction=1.5)

    def test_rejects_bad_bound(self):
        with pytest.raises(ConfigurationError):
            Contract("c", "latency_mean_us", limit=1.0, bound="sideways")

    def test_rejects_unknown_metric_and_nan_limit(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            Contract("c", metric="bogus", limit=1.0)
        with pytest.raises(ConfigurationError, match="limit"):
            Contract("c", "latency_mean_us", limit=float("nan"))


class TestMonitorTransitions:
    def ramp_monitor(self, journal=None):
        return ContractMonitor(
            [Contract("lat", "latency_mean_us", limit=1000.0,
                      warning_fraction=0.8)],
            journal=journal, host="mon01")

    def test_ramp_walks_warning_violation_honoured(self):
        monitor = self.ramp_monitor()
        # A synthetic latency ramp up through both thresholds and back.
        ramp = [(1.0, 500.0), (2.0, 700.0), (3.0, 900.0),
                (4.0, 1200.0), (5.0, 1500.0), (6.0, 850.0),
                (7.0, 400.0)]
        for time, latency in ramp:
            monitor.evaluate(snap(time=time, latency=latency))
        assert [(e.time, e.status) for e in monitor.events] == [
            (3.0, ContractStatus.WARNING),
            (4.0, ContractStatus.VIOLATED),
            (6.0, ContractStatus.WARNING),
            (7.0, ContractStatus.HONOURED)]
        assert monitor.status("lat") is ContractStatus.HONOURED
        assert monitor.all_honoured

    def test_steady_state_emits_no_events(self):
        monitor = self.ramp_monitor()
        for time in (1.0, 2.0, 3.0):
            monitor.evaluate(snap(time=time, latency=500.0))
        assert monitor.events == []

    def test_transitions_land_in_the_journal(self):
        journal = Journal()
        monitor = self.ramp_monitor(journal=journal)
        monitor.evaluate(snap(time=1.0, latency=900.0))
        monitor.evaluate(snap(time=2.0, latency=1200.0))
        monitor.evaluate(snap(time=3.0, latency=500.0))
        kinds = [e.kind for e in journal.of_kind("contract")]
        assert kinds == ["contract.warning", "contract.violated",
                         "contract.honoured"]
        violated = journal.of_kind("contract.violated")[0]
        assert violated.host == "mon01"
        assert violated.attrs["contract"] == "lat"
        assert violated.attrs["value"] == pytest.approx(1200.0)
        assert violated.attrs["limit"] == pytest.approx(1000.0)
        assert violated.attrs["bound"] == "upper"

    def test_duplicate_contract_name_rejected(self):
        monitor = self.ramp_monitor()
        with pytest.raises(ConfigurationError):
            monitor.add(Contract("lat", "latency_mean_us", limit=5.0))
