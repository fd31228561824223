"""Partition-aware client resilience: deadlines, backoff, breaker."""

import zlib

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultInjector
from repro.journal.events import Journal
from repro.orb import ReplyStatus
from repro.replication import ReplicationStyle
from repro.replication.styles import ResiliencePolicy
from tests.replication.helpers import (
    FAILOVER_US,
    build_rig,
    call,
    fire,
)


class TestResiliencePolicy:
    def test_defaults_validate(self):
        ResiliencePolicy()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(jitter_frac=1.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(deadline_us=0.0)
        with pytest.raises(ConfigurationError):
            ResiliencePolicy(breaker_threshold=0)


class TestBackoff:
    def policy(self):
        return ResiliencePolicy(backoff_factor=2.0,
                                backoff_cap_us=1_000_000.0,
                                jitter_frac=0.1)

    def test_exponential_growth_capped(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, resilience=self.policy())
        client = clients[0].replicator
        base = client.config.retry_timeout_us
        d1 = client._retry_delay_us("rid", 1)
        d2 = client._retry_delay_us("rid", 2)
        d9 = client._retry_delay_us("rid", 9)
        assert base * 0.9 <= d1 <= base * 1.1
        assert base * 2 * 0.9 <= d2 <= base * 2 * 1.1
        assert d9 <= 1_000_000.0 * 1.1  # cap (plus jitter headroom)

    def test_jitter_is_deterministic_per_request_and_attempt(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.ACTIVE, resilience=self.policy())
        client = clients[0].replicator
        assert client._retry_delay_us("r1", 1) \
            == client._retry_delay_us("r1", 1)
        # Different requests (or attempts) land on different offsets.
        spread = {round(client._retry_delay_us(f"r{i}", 1), 3)
                  for i in range(16)}
        assert len(spread) > 1
        # The offset is pure crc32 — no simulator RNG involved.
        rid, attempt = "r1", 1
        unit = (zlib.crc32(f"{rid}:{attempt}".encode()) % 1024) / 1023.0
        base = client.config.retry_timeout_us
        expected = base * (1.0 + 0.1 * (2.0 * unit - 1.0))
        assert client._retry_delay_us(rid, attempt) \
            == pytest.approx(expected)

    def test_no_policy_keeps_fixed_rearm(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        client = clients[0].replicator
        base = client.config.retry_timeout_us
        assert client._retry_delay_us("rid", 1) == base
        assert client._retry_delay_us("rid", 7) == base


class TestDeadlines:
    def test_deadline_giveup_is_journaled_with_reason(self):
        policy = ResiliencePolicy(deadline_us=50_000.0)
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, resilience=policy)
        testbed.sim.journal = Journal()
        for replica in replicas:
            replica.process.kill()
        replies = fire(clients[0], "add", 1)
        testbed.run(2_000_000)
        assert not replies or replies[0].status is not ReplyStatus.OK
        assert clients[0].replicator.deadline_giveups >= 1
        giveups = [e for e in testbed.sim.journal.events
                   if e.kind == "client.giveup"]
        assert giveups and giveups[0].attrs["reason"] == "deadline"

    def test_generous_deadline_does_not_bite(self):
        policy = ResiliencePolicy(deadline_us=5_000_000.0)
        testbed, replicas, clients = build_rig(
            ReplicationStyle.ACTIVE, resilience=policy)
        reply = call(testbed, clients[0], "add", 2)
        assert reply.payload == 2
        assert clients[0].replicator.deadline_giveups == 0


class TestBreaker:
    def test_breaker_opens_on_partitioned_primary_and_reroutes(self):
        policy = ResiliencePolicy(breaker_threshold=1,
                                  breaker_cooldown_us=3_000_000.0)
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, resilience=policy, seed=7)
        testbed.sim.journal = Journal()
        client = clients[0].replicator
        # One successful call teaches the client the primary endpoint.
        reply = call(testbed, clients[0], "add", 1)
        assert reply.status is ReplyStatus.OK
        assert client.primary is not None
        old_primary = client.primary
        # Cut the primary's host off; the client still routes its next
        # first attempt point-to-point at the stale primary.
        injector = FaultInjector(testbed.sim, testbed.network)
        injector.partition_at([[old_primary.host]],
                              testbed.now + 1_000,
                              testbed.now + 4 * FAILOVER_US)
        testbed.run(5_000)
        replies = fire(clients[0], "add", 2)
        testbed.run(250_000)  # just past the first retry timeout
        assert client.breaker_trips >= 1
        opens = [e for e in testbed.sim.journal.events
                 if e.kind == "client.breaker_open"]
        assert opens
        assert opens[0].attrs["endpoint"] == str(old_primary)
        # With the breaker open (and failover not yet through), a fresh
        # request skips the dead endpoint and multicasts straight to
        # the reachable majority.
        assert client.primary == old_primary
        more = fire(clients[0], "add", 3)
        testbed.run(2 * FAILOVER_US)
        assert client.breaker_rerouted >= 1
        assert replies and replies[0].status is ReplyStatus.OK
        assert more and more[0].status is ReplyStatus.OK

    def test_healthy_group_never_trips(self):
        policy = ResiliencePolicy()
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, resilience=policy)
        for i in range(4):
            call(testbed, clients[0], "add", 1)
        assert clients[0].replicator.breaker_trips == 0
