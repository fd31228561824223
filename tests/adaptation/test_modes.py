"""Tests for operating modes and degraded-contract negotiation."""

import pytest

from repro.adaptation import ModeManager, OperatingMode
from repro.errors import AdaptationError, ContractViolation
from repro.monitoring import Contract, ContractStatus, MetricsSnapshot
from repro.replication import ReplicationStyle

A = ReplicationStyle.ACTIVE
P = ReplicationStyle.WARM_PASSIVE


class _StubStyleKnob:
    def __init__(self):
        self.value = None
        self.sets = []

    def get(self):
        return self.value

    def set(self, value):
        self.value = value
        self.sets.append(value)


class _StubReplicasKnob:
    def __init__(self):
        self.value = 0

    def get(self):
        return self.value

    def set(self, value):
        self.value = value


def _modes():
    return [
        OperatingMode(
            name="encounter", style=A, n_replicas=3,
            contracts=(Contract("lat", "latency_mean_us", limit=2500.0),)),
        OperatingMode(
            name="cruise", style=P, n_replicas=3,
            contracts=(Contract("lat", "latency_mean_us", limit=20000.0),)),
        OperatingMode(
            name="safe", style=P, n_replicas=2,
            contracts=(Contract("lat", "latency_mean_us", limit=100000.0),)),
    ]


def _manager(tolerance=2):
    style = _StubStyleKnob()
    replicas = _StubReplicasKnob()
    manager = ModeManager(_modes(), style_knob=style,
                          replicas_knob=replicas,
                          violation_tolerance=tolerance)
    return manager, style, replicas


def _snap(t, latency):
    return MetricsSnapshot(time=t, latency_mean_us=latency)


def test_set_mode_drives_knobs():
    manager, style, replicas = _manager()
    manager.set_mode("encounter")
    assert style.value is A
    assert replicas.value == 3
    assert manager.current_mode.name == "encounter"


def test_unknown_mode_rejected():
    manager, *_ = _manager()
    with pytest.raises(AdaptationError):
        manager.set_mode("warp")


def test_evaluate_requires_mode():
    manager, *_ = _manager()
    with pytest.raises(AdaptationError):
        manager.evaluate(_snap(0, 100))


def test_honoured_contract_stays_put():
    manager, style, replicas = _manager()
    manager.set_mode("encounter")
    for t in range(10):
        status = manager.evaluate(_snap(t, 1000.0))
        assert status is ContractStatus.HONOURED
    assert manager.current_mode.name == "encounter"
    assert len(manager.transitions) == 1  # the initial mode only


def test_sustained_violation_degrades_one_step():
    manager, style, replicas = _manager(tolerance=2)
    manager.set_mode("encounter")
    manager.evaluate(_snap(1, 9000.0))
    assert manager.current_mode.name == "encounter"  # debounced
    manager.evaluate(_snap(2, 9000.0))
    assert manager.current_mode.name == "cruise"  # degraded
    assert style.value is P
    assert manager.transitions[-1].reason == "sustained contract violation"


def test_transient_spike_does_not_degrade():
    manager, *_ = _manager(tolerance=3)
    manager.set_mode("encounter")
    manager.evaluate(_snap(1, 9000.0))
    manager.evaluate(_snap(2, 9000.0))
    manager.evaluate(_snap(3, 1000.0))  # recovery resets the counter
    manager.evaluate(_snap(4, 9000.0))
    manager.evaluate(_snap(5, 9000.0))
    assert manager.current_mode.name == "encounter"


def test_degradation_cascades_to_the_end_then_raises():
    manager, *_ = _manager(tolerance=1)
    manager.set_mode("encounter")
    manager.evaluate(_snap(1, 1e6))  # -> cruise
    assert manager.current_mode.name == "cruise"
    manager.evaluate(_snap(2, 1e6))  # -> safe
    assert manager.current_mode.name == "safe"
    with pytest.raises(ContractViolation):
        manager.evaluate(_snap(3, 1e6))  # nothing left: operator call


def test_warning_is_reported_but_not_a_violation():
    manager, *_ = _manager(tolerance=1)
    manager.set_mode("encounter")
    status = manager.evaluate(_snap(1, 2200.0))  # 88 % of the limit
    assert status is ContractStatus.WARNING
    assert manager.current_mode.name == "encounter"


def test_transitions_recorded_with_reasons():
    manager, *_ = _manager(tolerance=1)
    manager.set_mode("encounter", time=10.0)
    manager.evaluate(_snap(20.0, 1e6))
    assert [t.to_mode for t in manager.transitions] == [
        "encounter", "cruise"]
    assert manager.transitions[0].reason == "operator request"
    assert manager.transitions[1].reason == "sustained contract violation"
    assert manager.transitions[1].from_mode == "encounter"


def test_transition_callback_invoked():
    seen = []
    style = _StubStyleKnob()
    manager = ModeManager(_modes(), style_knob=style,
                          on_transition=seen.append)
    manager.set_mode("cruise")
    assert len(seen) == 1 and seen[0].to_mode == "cruise"


def test_checkpoint_knob_only_driven_when_mode_specifies():
    class _StubCkptKnob:
        def __init__(self):
            self.value = None

        def set(self, value):
            self.value = value

    ckpt = _StubCkptKnob()
    modes = [OperatingMode(name="m1", style=P, n_replicas=2,
                           checkpoint_interval=5),
             OperatingMode(name="m2", style=P, n_replicas=2)]
    manager = ModeManager(modes, checkpoint_knob=ckpt)
    manager.set_mode("m1")
    assert ckpt.value == 5
    manager.set_mode("m2")
    assert ckpt.value == 5  # unchanged: m2 doesn't specify


def test_validation():
    with pytest.raises(AdaptationError):
        ModeManager([])
    with pytest.raises(AdaptationError):
        ModeManager(_modes(), violation_tolerance=0)
    with pytest.raises(AdaptationError):
        ModeManager([_modes()[0], _modes()[0]])  # duplicate names
    with pytest.raises(AdaptationError):
        OperatingMode(name="", style=A, n_replicas=1)
    with pytest.raises(AdaptationError):
        OperatingMode(name="x", style=A, n_replicas=0)



@pytest.mark.parametrize("n_replicas", [float("nan"), float("inf"), True,
                                        2.0])
def test_mode_replicas_reject_nan_inf_and_bool(n_replicas):
    with pytest.raises(AdaptationError, match="n_replicas"):
        OperatingMode(name="x", style=A, n_replicas=n_replicas)
