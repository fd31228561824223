"""Tests for the pass-through interposition layer (Fig. 4 modes)."""

import pytest

from repro.interpose import (
    InterceptedClientTransport,
    InterceptedServerTransport,
)
from repro.net import Network
from repro.orb import (
    EchoServant,
    OrbClient,
    OrbServer,
    TcpClientTransport,
    TcpServerTransport,
)
from repro.sim import NetworkCalibration, Process, Simulator
from repro.telemetry import (
    COMPONENT_REPLICATOR,
    Telemetry,
    spans_by_trace,
    trace_component_us,
)


def _build(intercept_client: bool, intercept_server: bool, seed=0):
    sim = Simulator(seed=seed)
    sim.telemetry = Telemetry()
    net = Network(sim, NetworkCalibration(jitter_us=0.0))
    server_host = net.add_host("server")
    client_host = net.add_host("client")
    server_proc = Process(server_host, "srv")
    client_proc = Process(client_host, "cli")

    server_transport = TcpServerTransport(server_proc, net, 9000)
    if intercept_server:
        server_transport = InterceptedServerTransport(server_proc,
                                                      server_transport)
    server = OrbServer(server_proc, server_transport)
    server.register("echo", EchoServant())
    address = server.start()

    client_transport = TcpClientTransport(client_proc, net, address)
    if intercept_client:
        client_transport = InterceptedClientTransport(client_proc,
                                                      client_transport)
    client = OrbClient(client_proc, client_transport)
    return sim, client, client_transport, server_transport


def _round_trip(sim, client):
    """One call; returns the reply and its round-trip time."""
    replies = []
    sent_at = sim.now
    client.invoke("echo", "ping", None, 64,
                  lambda reply: replies.append((reply, sim.now - sent_at)))
    sim.run(until=sim.now + 1_000_000)
    assert replies
    return replies[0]


def _replicator_us(sim, reply):
    """Replicator-component span time of the reply's round trip."""
    trace = spans_by_trace(sim.telemetry.spans)[reply.request_id]
    return trace_component_us(trace).get(COMPONENT_REPLICATOR, 0.0)


def test_pass_through_preserves_semantics():
    sim, client, *_ = _build(True, True)
    reply, _ = _round_trip(sim, client)
    assert reply.payload is None or reply.payload == reply.payload


def test_client_interception_adds_replicator_component():
    sim, client, *_ = _build(True, False)
    reply, _ = _round_trip(sim, client)
    assert _replicator_us(sim, reply) > 0


def test_no_interception_has_no_replicator_component():
    sim, client, *_ = _build(False, False)
    reply, _ = _round_trip(sim, client)
    assert _replicator_us(sim, reply) == 0


def test_both_sides_cost_more_than_one_side():
    def replicator_cost(intercept_client, intercept_server):
        sim, client, *_ = _build(intercept_client, intercept_server)
        return _replicator_us(sim, _round_trip(sim, client)[0])

    client_only = replicator_cost(True, False)
    server_only = replicator_cost(False, True)
    both = replicator_cost(True, True)
    assert both == pytest.approx(client_only + server_only)


def test_latency_ordering_matches_fig4():
    """Fig. 4: baseline < one side intercepted < both intercepted."""
    def latency(ic, is_):
        sim, client, *_ = _build(ic, is_)
        return _round_trip(sim, client)[1]

    baseline = latency(False, False)
    client_only = latency(True, False)
    both = latency(True, True)
    assert baseline < client_only < both


def test_interception_counters():
    sim, client, client_transport, server_transport = _build(True, True)
    _round_trip(sim, client)
    # Request + reply on each side.
    assert client_transport.calls_intercepted == 2
    assert server_transport.calls_intercepted == 2


def test_interception_overhead_is_small():
    """The paper reports ~154 us of replicator overhead against ~1200
    us round trips; interception alone (no redirection) is cheaper
    still.  Against the bare-TCP baseline it must stay a small
    fraction of the round trip."""
    sim, client, *_ = _build(True, True)
    reply, total = _round_trip(sim, client)
    assert _replicator_us(sim, reply) < 0.2 * total
