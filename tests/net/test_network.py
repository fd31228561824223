"""Unit tests for the switched-LAN network model."""

import pytest

from repro.errors import ConfigurationError, NetworkError, SimulationError
from repro.check.policies import RandomWalkPolicy
from repro.net import (
    BurstLoss,
    DelaySpike,
    Endpoint,
    FRAME_OVERHEAD_BYTES,
    FlakyLink,
    Frame,
    Network,
    PartitionFilter,
    RandomLoss,
)
from repro.sim import Host, NetworkCalibration, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=42)


@pytest.fixture
def net(sim):
    # Zero jitter for deterministic latency assertions.
    return Network(sim, NetworkCalibration(jitter_us=0.0))


@pytest.fixture
def pair(net):
    a = net.add_host("a")
    b = net.add_host("b")
    return a, b


def _recv(host, port):
    inbox = []
    host.bind(port, inbox.append)
    return inbox


class TestTopology:
    def test_attach_and_lookup(self, net):
        host = net.add_host("x")
        assert net.host("x") is host
        assert host.network is net

    def test_duplicate_name_rejected(self, net):
        net.add_host("x")
        with pytest.raises(NetworkError):
            net.add_host("x")

    def test_attach_twice_rejected(self, sim, net):
        host = net.add_host("x")
        other = Network(sim)
        with pytest.raises(NetworkError):
            other.attach(host)

    def test_unknown_host_lookup(self, net):
        with pytest.raises(NetworkError):
            net.host("ghost")


class TestDelivery:
    def test_frame_arrives_with_payload(self, sim, net, pair):
        a, b = pair
        inbox = _recv(b, 7000)
        net.send(Endpoint("a", 1), Endpoint("b", 7000), "hi", 100)
        sim.run()
        assert len(inbox) == 1
        assert inbox[0].payload == "hi"

    def test_delay_is_propagation_plus_transmission(self, sim, net, pair):
        a, b = pair
        times = []
        b.bind(7000, lambda f: times.append(sim.now))
        nbytes = 1000
        net.send(Endpoint("a", 1), Endpoint("b", 7000), "x", nbytes)
        sim.run()
        cal = net.calibration
        expected = cal.propagation_us + (
            nbytes + FRAME_OVERHEAD_BYTES) / cal.bandwidth_bytes_per_us
        assert times[0] == pytest.approx(expected)

    def test_local_loopback_is_cheap(self, sim, net):
        a = net.add_host("a")
        times = []
        a.bind(7000, lambda f: times.append(sim.now))
        net.send(Endpoint("a", 1), Endpoint("a", 7000), "x", 10_000)
        sim.run()
        assert times[0] == pytest.approx(net.calibration.local_loopback_us)

    def test_send_to_unknown_host_is_dropped(self, sim, net, pair):
        net.send(Endpoint("a", 1), Endpoint("ghost", 1), "x", 10)
        sim.run()
        assert net.stats.dropped_frames == 1

    def test_send_to_dead_host_is_dropped(self, sim, net, pair):
        a, b = pair
        inbox = _recv(b, 7000)
        b.crash()
        net.send(Endpoint("a", 1), Endpoint("b", 7000), "x", 10)
        sim.run()
        assert inbox == []
        assert net.stats.dropped_frames == 1

    def test_send_from_dead_host_is_dropped(self, sim, net, pair):
        a, b = pair
        inbox = _recv(b, 7000)
        a.crash()
        net.send(Endpoint("a", 1), Endpoint("b", 7000), "x", 10)
        sim.run()
        assert inbox == []

    def test_send_from_unknown_host_raises(self, sim, net, pair):
        with pytest.raises(NetworkError):
            net.send(Endpoint("ghost", 1), Endpoint("a", 1), "x", 10)

    def test_jitter_bounded(self, sim):
        cal = NetworkCalibration(jitter_us=50.0)
        net = Network(sim, cal)
        net.add_host("a")
        b = net.add_host("b")
        times = []
        b.bind(7000, lambda f: times.append(sim.now))
        base = sim.now
        for _ in range(50):
            net.send(Endpoint("a", 1), Endpoint("b", 7000), "x", 0)
        sim.run()
        lo = cal.propagation_us + FRAME_OVERHEAD_BYTES / cal.bandwidth_bytes_per_us
        assert all(lo <= t - base <= lo + 50.0 for t in times)
        # With 50 samples the jitter should actually vary.
        assert len(set(times)) > 1

    def test_negative_payload_size_rejected(self):
        with pytest.raises(NetworkError):
            Frame(Endpoint("a", 1), Endpoint("b", 2), "x", payload_bytes=-5)

    def test_negative_policy_delay_cannot_rewind_the_clock(self, sim, net,
                                                           pair):
        """A scheduler policy handing back a negative frame delay
        fails the transmit; it never delivers the frame in the past."""

        class EarlyPolicy:
            def tie_break(self):
                return 0

            def message_delay(self, wire_bytes):
                return -50_000.0

        sim.set_scheduler_policy(EarlyPolicy())
        _, b = pair
        arrivals = []
        b.bind(7000, lambda frame: arrivals.append(sim.now))
        sim.schedule(60_000.0, net.send, Endpoint("a", 1),
                     Endpoint("b", 7000), "x", 0)
        with pytest.raises(SimulationError):
            sim.run()
        assert arrivals == []
        assert sim.now == 60_000.0


class TestAccounting:
    def test_bytes_accounted_with_overhead(self, sim, net, pair):
        a, b = pair
        _recv(b, 7000)
        net.send(Endpoint("a", 1), Endpoint("b", 7000), "x", 100)
        sim.run()
        assert net.stats.total_bytes == 100 + FRAME_OVERHEAD_BYTES
        assert net.stats.per_host["a"].tx_bytes == 100 + FRAME_OVERHEAD_BYTES
        assert net.stats.per_host["b"].rx_bytes == 100 + FRAME_OVERHEAD_BYTES


class TestLossModels:
    def test_random_loss_drops_roughly_at_rate(self, sim, net, pair):
        a, b = pair
        inbox = _recv(b, 7000)
        net.add_loss_model(RandomLoss(0.5))
        for _ in range(400):
            net.send(Endpoint("a", 1), Endpoint("b", 7000), "x", 10)
        sim.run()
        assert 120 < len(inbox) < 280

    def test_random_loss_rate_validated(self):
        with pytest.raises(ConfigurationError):
            RandomLoss(1.5)

    def test_burst_loss_only_in_window(self, sim, net, pair):
        a, b = pair
        inbox = _recv(b, 7000)
        net.add_loss_model(BurstLoss(1000.0, 2000.0, rate=1.0))
        net.send(Endpoint("a", 1), Endpoint("b", 7000), "before", 10)
        sim.schedule(1500.0, net.send, Endpoint("a", 1),
                     Endpoint("b", 7000), "during", 10)
        sim.schedule(3000.0, net.send, Endpoint("a", 1),
                     Endpoint("b", 7000), "after", 10)
        sim.run()
        assert [f.payload for f in inbox] == ["before", "after"]

    def test_delay_spike_delays_but_delivers(self, sim, net, pair):
        a, b = pair
        times = []
        b.bind(7000, lambda f: times.append(sim.now))
        net.add_loss_model(DelaySpike(0.0, 10_000.0, extra_us=5000.0))
        net.send(Endpoint("a", 1), Endpoint("b", 7000), "x", 0)
        sim.run()
        assert times[0] > 5000.0

    def test_remove_loss_model(self, sim, net, pair):
        a, b = pair
        inbox = _recv(b, 7000)
        model = RandomLoss(1.0)
        net.add_loss_model(model)
        net.remove_loss_model(model)
        net.send(Endpoint("a", 1), Endpoint("b", 7000), "x", 10)
        sim.run()
        assert len(inbox) == 1

    def test_burst_loss_validates_window(self):
        with pytest.raises(ConfigurationError):
            BurstLoss(10.0, 5.0)

    def test_delay_spike_validates(self):
        with pytest.raises(ConfigurationError):
            DelaySpike(0.0, 10.0, extra_us=-1.0)


class TestSendEach:
    """``send_each`` is exactly N ``send`` calls: same frame ids, same
    rng draws, same policy decisions, same deliveries and counters."""

    PORT = 4803
    TARGETS = ("b", "a", "dead", "ghost", "c")  # peer, loopback, dead,
    # unknown, partitioned away

    def _run(self, fan_out):
        sim = Simulator(seed=5)
        policy = RandomWalkPolicy(seed=9, delay_bound_us=150.0)
        sim.set_scheduler_policy(policy)
        net = Network(sim)
        deliveries = []
        for name in ("a", "b", "c", "dead"):
            host = net.add_host(name)
            host.bind(self.PORT, lambda frame, name=name: deliveries.append(
                (sim.now, name, self.PORT, frame.src, frame.dst,
                 frame.payload, frame.payload_bytes, frame.kind,
                 frame.frame_id)))
        net.host("dead").crash()
        net.add_loss_model(RandomLoss(0.3))
        net.add_link_filter(FlakyLink("a", "b", 0.5, 0.0, 1e9))
        net.add_link_filter(PartitionFilter(
            (frozenset({"a", "b"}), frozenset({"c"})), 0.0, 1e9))
        src = Endpoint("a", self.PORT)
        dsts = [Endpoint(name, self.PORT) for name in self.TARGETS]
        for round_ in range(25):
            sim.schedule(100.0 * round_, fan_out, net, src, dsts,
                         ("beat", round_))
        sim.run()
        stats = net.stats
        return dict(
            deliveries=deliveries, next_frame_id=next(net._frame_ids),
            counters=(stats.total_frames, stats.total_bytes,
                      stats.dropped_frames),
            per_host=stats.per_host, rng=sim.rng.getstate(),
            decisions=policy.decisions)

    def test_fan_out_equals_n_sends(self):
        def fan_out(net, src, dsts, payload):
            net.send_each(src, dsts, payload, 16, "gcs.heartbeat")

        def n_sends(net, src, dsts, payload):
            for dst in dsts:
                net.send(src, dst, payload, 16, kind="gcs.heartbeat")

        each = self._run(fan_out)
        sends = self._run(n_sends)
        assert each == sends
        # The rig exercises every path: deliveries to the peer and to
        # loopback only, and drops beyond the dead/unknown/partitioned.
        assert {name for _, name, *_ in each["deliveries"]} == {"a", "b"}
        assert each["next_frame_id"] == 25 * len(self.TARGETS) + 1
        assert each["counters"][2] > 25 * 3
