"""Unit tests for the miniature ORB over plain TCP transports."""

import pytest

from repro.errors import OrbError
from repro.net import Network
from repro.orb import (
    CounterServant,
    EchoServant,
    OrbClient,
    OrbServer,
    ReplyStatus,
    ServiceAddress,
    TcpClientTransport,
    TcpServerTransport,
)
from repro.sim import NetworkCalibration, Process, Simulator
from repro.telemetry import (
    COMPONENT_APPLICATION,
    COMPONENT_NETWORK,
    COMPONENT_ORB,
    Telemetry,
    spans_by_trace,
    trace_component_us,
)


@pytest.fixture
def rig():
    sim = Simulator(seed=0)
    net = Network(sim, NetworkCalibration(jitter_us=0.0))
    server_host = net.add_host("server")
    client_host = net.add_host("client")
    server_proc = Process(server_host, "srv")
    client_proc = Process(client_host, "cli")

    server = OrbServer(server_proc, TcpServerTransport(server_proc, net, 9000))
    server.register("echo", EchoServant())
    server.register("counter", CounterServant())
    address = server.start()

    client = OrbClient(
        client_proc, TcpClientTransport(client_proc, net, address))
    return sim, net, server, client, server_proc, client_proc


def _call(sim, client, key, op, payload, nbytes=64):
    replies = []
    client.invoke(key, op, payload, nbytes, replies.append)
    sim.run(until=sim.now + 1_000_000)
    assert replies, "no reply received"
    return replies[0]


def test_echo_round_trip(rig):
    sim, net, server, client, *_ = rig
    reply = _call(sim, client, "echo", "ping", "hello")
    assert reply.status is ReplyStatus.OK
    assert reply.payload == "hello"


def test_stateful_servant(rig):
    sim, net, server, client, *_ = rig
    _call(sim, client, "counter", "add", 5)
    _call(sim, client, "counter", "add", 7)
    reply = _call(sim, client, "counter", "read", None)
    assert reply.payload == 12


def test_unknown_object_key(rig):
    sim, net, server, client, *_ = rig
    reply = _call(sim, client, "ghost", "op", None)
    assert reply.status is ReplyStatus.NO_SUCH_OBJECT


def test_unknown_operation_maps_to_exception(rig):
    sim, net, server, client, *_ = rig
    reply = _call(sim, client, "counter", "bogus", None)
    assert reply.status is ReplyStatus.EXCEPTION


def test_request_ids_unique(rig):
    sim, net, server, client, *_ = rig
    ids = {client.invoke("echo", "ping", None, 8, lambda r: None)
           for _ in range(50)}
    assert len(ids) == 50


def test_oneway_gets_no_reply(rig):
    sim, net, server, client, *_ = rig
    replies = []
    client.invoke("echo", "ping", None, 8, replies.append, oneway=True)
    sim.run(until=sim.now + 1_000_000)
    assert replies == []
    assert server.requests_served == 1


def test_concurrent_invocations_all_answered(rig):
    sim, net, server, client, *_ = rig
    replies = []
    for i in range(10):
        client.invoke("counter", "add", 1, 16, replies.append)
    sim.run(until=sim.now + 2_000_000)
    assert len(replies) == 10
    assert server.servant("counter").value == 10


def _components(sim, reply):
    """Per-component span time of the round trip that ``reply`` ends
    (the trace id is the request id)."""
    return trace_component_us(
        spans_by_trace(sim.telemetry.spans)[reply.request_id])


def _traced(rig):
    """The rig with a span recorder on its simulator."""
    rig[0].telemetry = Telemetry()
    return rig


def test_timeline_attributes_components(rig):
    sim, net, server, client, *_ = _traced(rig)
    reply = _call(sim, client, "echo", "ping", "x", nbytes=100)
    parts = _components(sim, reply)
    assert parts.get(COMPONENT_ORB, 0) > 0
    assert parts.get(COMPONENT_APPLICATION, 0) == pytest.approx(15.0)
    assert parts.get(COMPONENT_NETWORK, 0) > 0


def test_timeline_total_close_to_measured_latency(rig):
    sim, net, server, client, *_ = _traced(rig)
    sent_at = sim.now
    done = []
    client.invoke("echo", "ping", "x", 64,
                  lambda reply: done.append((reply, sim.now - sent_at)))
    sim.run(until=sim.now + 1_000_000)
    assert done, "no reply received"
    reply, rtt = done[0]
    # Attribution must cover most of the round trip (CPU queueing and
    # context switches account for the slack).
    assert sum(_components(sim, reply).values()) == pytest.approx(
        rtt, rel=0.15)


def test_larger_payloads_cost_more_orb_time(rig):
    sim, net, server, client, *_ = _traced(rig)
    small = _call(sim, client, "echo", "ping", "x", nbytes=10)
    big = _call(sim, client, "echo", "ping", "x", nbytes=10_000)
    assert (_components(sim, big)[COMPONENT_ORB]
            > _components(sim, small)[COMPONENT_ORB])


def test_negative_payload_rejected(rig):
    sim, net, server, client, *_ = rig
    with pytest.raises(OrbError):
        client.invoke("echo", "ping", None, -1, lambda r: None)


def test_duplicate_servant_key_rejected(rig):
    sim, net, server, client, *_ = rig
    with pytest.raises(OrbError):
        server.register("echo", EchoServant())


def test_server_without_servants_cannot_start():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("h")
    proc = Process(host, "srv")
    server = OrbServer(proc, TcpServerTransport(proc, net, 9000))
    with pytest.raises(OrbError):
        server.start()


def test_dead_client_stops_invoking(rig):
    sim, net, server, client, server_proc, client_proc = rig
    client_proc.kill()
    with pytest.raises(OrbError):
        client.invoke("echo", "ping", None, 8, lambda r: None)


def test_dead_server_never_replies(rig):
    sim, net, server, client, server_proc, client_proc = rig
    server_proc.kill()
    replies = []
    client.invoke("echo", "ping", None, 8, replies.append)
    sim.run(until=sim.now + 2_000_000)
    assert replies == []


def test_capture_and_restore_state(rig):
    sim, net, server, client, *_ = rig
    _call(sim, client, "counter", "add", 9)
    state, nbytes = server.capture_state()
    assert state["counter"] == {"value": 9}
    assert nbytes > 0
    server.servant("counter").value = 0
    server.restore_state(state)
    assert server.servant("counter").value == 9


def test_service_address_constructors():
    tcp = ServiceAddress.tcp("h", 9000)
    grp = ServiceAddress.replicated("grp")
    assert tcp.kind == "tcp" and tcp.host == "h"
    assert grp.kind == "group" and grp.group == "grp"


def test_tcp_client_rejects_group_address():
    sim = Simulator()
    net = Network(sim)
    host = net.add_host("h")
    proc = Process(host, "cli")
    with pytest.raises(OrbError):
        TcpClientTransport(proc, net, ServiceAddress.replicated("grp"))
