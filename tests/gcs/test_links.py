"""Unit tests for the reliable FIFO link layer."""

import pytest

from repro.gcs.links import ReliableLink
from repro.gcs.messages import LinkAck, LinkData
from repro.net import Endpoint, Network, RandomLoss
from repro.sim import GcsCalibration, NetworkCalibration, Simulator


@pytest.fixture
def rig():
    """Two hosts with raw links wired to each other's frame handlers."""
    sim = Simulator(seed=2)
    net = Network(sim, NetworkCalibration(jitter_us=0.0))
    a = net.add_host("a")
    b = net.add_host("b")
    cal = GcsCalibration()
    delivered = {"a": [], "b": []}

    links = {}
    links["a"] = ReliableLink(sim, net, cal, Endpoint("a", 1), Endpoint("b", 1),
                              lambda inner, n: delivered["a"].append(inner))
    links["b"] = ReliableLink(sim, net, cal, Endpoint("b", 1), Endpoint("a", 1),
                              lambda inner, n: delivered["b"].append(inner))

    def handler_for(name):
        def handle(frame):
            payload = frame.payload
            if isinstance(payload, LinkData):
                links[name].on_link_data(payload.link_seq, payload.inner,
                                         payload.inner_bytes)
            elif isinstance(payload, LinkAck):
                links[name].on_ack(payload.cum_seq)
        return handle

    a.bind(1, handler_for("a"))
    b.bind(1, handler_for("b"))
    return sim, net, links, delivered


def test_in_order_delivery(rig):
    sim, net, links, delivered = rig
    for i in range(5):
        links["a"].send(i, 10)
    sim.run(until=100_000)
    assert delivered["b"] == [0, 1, 2, 3, 4]


def test_acks_clear_sender_buffer(rig):
    sim, net, links, delivered = rig
    links["a"].send("x", 10)
    assert len(links["a"]._unacked) == 1
    sim.run(until=100_000)
    assert not links["a"]._unacked


def test_retransmission_recovers_from_loss(rig):
    sim, net, links, delivered = rig
    net.add_loss_model(RandomLoss(0.4))
    for i in range(30):
        links["a"].send(i, 10)
    sim.run(until=5_000_000)
    assert delivered["b"] == list(range(30))


def test_duplicate_frames_ignored(rig):
    sim, net, links, delivered = rig
    links["b"].on_link_data(1, "m", 10)
    links["b"].on_link_data(1, "m", 10)
    sim.run(until=100_000)
    assert delivered["b"] == ["m"]


def test_out_of_order_frames_reordered(rig):
    sim, net, links, delivered = rig
    links["b"].on_link_data(2, "second", 10)
    assert delivered["b"] == []
    links["b"].on_link_data(1, "first", 10)
    assert delivered["b"] == ["first", "second"]


def test_closed_link_sends_nothing(rig):
    sim, net, links, delivered = rig
    links["a"].close()
    links["a"].send("x", 10)
    sim.run(until=100_000)
    assert delivered["b"] == []
    assert links["a"].closed


def test_closed_link_ignores_incoming(rig):
    sim, net, links, delivered = rig
    links["b"].close()
    links["b"].on_link_data(1, "m", 10)
    assert delivered["b"] == []


def test_both_directions_independent(rig):
    sim, net, links, delivered = rig
    links["a"].send("to-b", 10)
    links["b"].send("to-a", 10)
    sim.run(until=100_000)
    assert delivered["b"] == ["to-b"]
    assert delivered["a"] == ["to-a"]


def test_gives_up_after_max_retransmits(rig):
    sim, net, links, delivered = rig
    net.add_loss_model(RandomLoss(1.0))  # peer unreachable
    links["a"].send("doomed", 10)
    sim.run(until=60_000_000)
    assert links["a"].closed
