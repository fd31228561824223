"""Partition-aware client: capped backoff with hashed jitter, and a
per-endpoint circuit breaker."""

import zlib

import pytest

from repro.faults import FaultInjector
from repro.journal.events import Journal
from repro.orb import ReplyStatus
from repro.replication import ReplicationStyle
from repro.replication.client import (
    BACKOFF_CAP_US,
    BACKOFF_FACTOR,
    BREAKER_COOLDOWN_US,
    BREAKER_THRESHOLD,
    JITTER_FRAC,
)
from tests.replication.helpers import (
    FAILOVER_US,
    build_rig,
    call,
    fire,
)


class TestBackoff:
    def test_exponential_growth_capped(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
        client = clients[0].replicator
        base = client.config.retry_timeout_us
        low, high = 1.0 - JITTER_FRAC, 1.0 + JITTER_FRAC
        d1 = client._retry_delay_us("rid", 1)
        d2 = client._retry_delay_us("rid", 2)
        d9 = client._retry_delay_us("rid", 9)
        assert base * low <= d1 <= base * high
        assert base * BACKOFF_FACTOR * low <= d2 \
            <= base * BACKOFF_FACTOR * high
        assert BACKOFF_CAP_US * low <= d9 <= BACKOFF_CAP_US * high

    def test_jitter_is_deterministic_per_request_and_attempt(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
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
        expected = base * (1.0 + JITTER_FRAC * (2.0 * unit - 1.0))
        assert client._retry_delay_us(rid, attempt) \
            == pytest.approx(expected)

    def test_retries_back_off_on_the_wire(self):
        """An unanswerable request is retransmitted at the backed-off
        instants, not at a fixed interval."""
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        client = clients[0].replicator
        for replica in replicas:
            replica.process.kill()
        sent_at = []
        transmit = client._transmit
        client._transmit = lambda entry, first_attempt: (
            sent_at.append(testbed.now), transmit(entry, first_attempt))
        fire(clients[0], "add", 1)
        testbed.run(4_000_000)
        (request_id,) = client._outstanding
        gaps = [b - a for a, b in zip(sent_at, sent_at[1:])]
        assert len(gaps) >= 4
        assert gaps == pytest.approx(
            [client._retry_delay_us(request_id, n)
             for n in range(1, len(gaps) + 1)])
        assert gaps[3] > 6 * client.config.retry_timeout_us


class TestBreaker:
    def test_breaker_opens_on_partitioned_primary_and_reroutes(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, seed=7)
        testbed.sim.journal = Journal()
        client = clients[0].replicator
        # One successful call teaches the client the primary endpoint.
        reply = call(testbed, clients[0], "add", 1)
        assert reply.status is ReplyStatus.OK
        assert client.primary is not None
        old_primary = client.primary
        # Cut the primary's host off; the client still routes its next
        # first attempts point-to-point at the stale primary.
        injector = FaultInjector(testbed.sim, testbed.network)
        injector.partition_at([[old_primary.host]],
                              testbed.now + 1_000,
                              testbed.now + 4 * FAILOVER_US)
        testbed.run(5_000)
        replies = [fire(clients[0], "add", 2)
                   for _ in range(BREAKER_THRESHOLD)]
        testbed.run(250_000)  # just past the first retry timeout
        assert client.breaker_trips == 1
        opens = [e for e in testbed.sim.journal.events
                 if e.kind == "client.breaker_open"]
        assert len(opens) == 1
        assert opens[0].attrs["endpoint"] == str(old_primary)
        assert opens[0].attrs["timeouts"] == BREAKER_THRESHOLD
        assert opens[0].attrs["until_us"] \
            == pytest.approx(opens[0].time_us + BREAKER_COOLDOWN_US)
        # With the breaker open (and failover not yet through), a fresh
        # request skips the dead endpoint and multicasts straight to
        # the reachable majority.
        assert client.primary == old_primary
        more = fire(clients[0], "add", 3)
        testbed.run(2 * FAILOVER_US)
        assert client.breaker_rerouted >= 1
        assert all(r and r[0].status is ReplyStatus.OK for r in replies)
        assert more and more[0].status is ReplyStatus.OK

    def test_healthy_group_never_trips(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
        for i in range(4):
            call(testbed, clients[0], "add", 1)
        assert clients[0].replicator.breaker_trips == 0
