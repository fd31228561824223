"""Tests for the substrate calibration configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    GcsCalibration,
    HostCalibration,
    InterposeCalibration,
    JournalConfig,
    NetworkCalibration,
    OrbCalibration,
    PAPER_FIG3_BREAKDOWN,
    ReplicationCalibration,
    SubstrateCalibration,
    TelemetryConfig,
    default_calibration,
)


def test_default_calibration_validates():
    cal = default_calibration()
    cal.validate()


def test_paper_anchor_constants():
    assert PAPER_FIG3_BREAKDOWN["application"] == 15.0
    assert PAPER_FIG3_BREAKDOWN["orb"] == 398.0
    assert PAPER_FIG3_BREAKDOWN["group_communication"] == 620.0
    assert PAPER_FIG3_BREAKDOWN["replicator"] == 154.0


def test_network_validation():
    with pytest.raises(ConfigurationError):
        NetworkCalibration(propagation_us=-1.0).validate()
    with pytest.raises(ConfigurationError):
        NetworkCalibration(bandwidth_bytes_per_us=0.0).validate()


def test_orb_validation():
    with pytest.raises(ConfigurationError):
        OrbCalibration(marshal_fixed_us=-1.0).validate()


def test_gcs_validation():
    with pytest.raises(ConfigurationError):
        GcsCalibration(heartbeat_interval_us=100.0,
                       failure_timeout_us=50.0).validate()
    with pytest.raises(ConfigurationError):
        GcsCalibration(history_limit=2).validate()


def test_interpose_validation():
    with pytest.raises(ConfigurationError):
        InterposeCalibration(intercept_us=-1.0).validate()


def test_replication_validation():
    with pytest.raises(ConfigurationError):
        ReplicationCalibration(checkpoint_per_byte_us=-0.1).validate()


def test_host_validation():
    with pytest.raises(ConfigurationError):
        HostCalibration(speed=0.0).validate()


def test_with_overrides_replaces_sections():
    cal = default_calibration()
    fast = cal.with_overrides(
        network=NetworkCalibration(bandwidth_bytes_per_us=125.0))
    assert fast.network.bandwidth_bytes_per_us == 125.0
    # Untouched sections are preserved, original unmodified.
    assert fast.orb == cal.orb
    assert cal.network.bandwidth_bytes_per_us == 12.5


def test_calibration_is_immutable():
    cal = default_calibration()
    with pytest.raises(Exception):
        cal.network.propagation_us = 1.0  # frozen dataclass


def test_substrate_validate_covers_all_sections():
    broken = SubstrateCalibration(
        host=HostCalibration(speed=-1.0))
    with pytest.raises(ConfigurationError):
        broken.validate()


@pytest.mark.parametrize("max_spans", [float("nan"), float("inf"), 2.5,
                                       True, 0, -3, "10", 2**32])
def test_telemetry_max_spans_must_be_a_positive_int(max_spans):
    with pytest.raises(ConfigurationError, match="max_spans"):
        TelemetryConfig(enabled=True, max_spans=max_spans).validate()


def test_telemetry_max_spans_accepts_positive_ints():
    TelemetryConfig(enabled=True, max_spans=1).validate()
    TelemetryConfig(max_spans=200_000).validate()
    TelemetryConfig(max_spans=2**32 - 1).validate()  # ids fit in 4 bytes


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 2.5,
                                   True, 0, -3, "10"])
@pytest.mark.parametrize("field", ["max_events"])
def test_journal_sizes_must_be_positive_ints(field, value):
    """A fraction used to pass and kill the run at the first record
    with a bare TypeError; NaN or inf never reached the cap."""
    with pytest.raises(ConfigurationError, match=field):
        JournalConfig(enabled=True, **{field: value}).validate()



NAN = float("nan")


@pytest.mark.parametrize("name, section, field, value", [
    ("network", NetworkCalibration, "propagation_us", NAN),
    ("host", HostCalibration, "speed", NAN),
    ("gcs", GcsCalibration, "history_limit", 16.5),
    ("gcs", GcsCalibration, "heartbeat_interval_us", NAN),
    ("replication", ReplicationCalibration, "checkpoint_fixed_us", -5),
    ("orb", OrbCalibration, "giop_header_bytes", -3),
])
def test_section_rules_close_the_holes(name, section, field, value):
    """Each of these passed the hand-written checks: no comparison
    with NaN is true, and a fraction or a negative size was never
    looked at.  Each is refused naming its field, alone and inside a
    whole calibration."""
    broken = section(**{field: value})
    with pytest.raises(ConfigurationError, match=field):
        broken.validate()
    with pytest.raises(ConfigurationError, match=field):
        SubstrateCalibration(**{name: broken}).validate()
