"""Unit tests for network traffic accounting.

:class:`NetworkStats` holds one counter, ``total_bytes``; the network
adds each frame's wire size to it when the frame goes on the wire.
"""

from dataclasses import fields

from repro.net import (
    BurstLoss,
    Endpoint,
    FRAME_OVERHEAD_BYTES,
    Network,
    NetworkStats,
)
from repro.sim import NetworkCalibration, Simulator


def _network():
    sim = Simulator(seed=7)
    net = Network(sim, NetworkCalibration(jitter_us=0.0))
    a = net.add_host("a")
    b = net.add_host("b")
    a.bind(7000, lambda frame: None)
    b.bind(7000, lambda frame: None)
    return sim, net


def test_record_transmit_updates_all_counters():
    assert [f.name for f in fields(NetworkStats)] == ["total_bytes"]
    assert NetworkStats().total_bytes == 0
    sim, net = _network()
    net.send(Endpoint("a", 1), Endpoint("b", 7000), "x", 1000)
    net.send(Endpoint("b", 1), Endpoint("a", 7000), "y", 24)
    sim.run()
    assert net.stats.total_bytes == 1000 + 24 + 2 * FRAME_OVERHEAD_BYTES


def test_drop_counter_separate():
    sim, net = _network()
    net.add_loss_model(BurstLoss(1000.0, 2000.0, rate=1.0))
    sim.schedule(1500.0, net.send, Endpoint("a", 1),
                 Endpoint("b", 7000), "lost", 1000)
    sim.schedule(3000.0, net.send, Endpoint("a", 1),
                 Endpoint("b", 7000), "sent", 10)
    sim.run()
    assert net.stats.total_bytes == 10 + FRAME_OVERHEAD_BYTES
