"""Shared builders for replication tests."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.experiments.testbed import (
    ClientStack,
    Replica,
    Testbed,
    deploy_client,
    deploy_replica_group,
)
from repro.orb import CounterServant, GiopRequest, Servant
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
    RepRequest,
)

#: Long enough for heartbeat-based failure detection + flush.
FAILOVER_US = 1_500_000


def build_rig(style: ReplicationStyle, n_replicas: int = 3,
              n_clients: int = 1, seed: int = 0,
              servant_factory: Optional[Callable[[], Servant]] = None,
              broadcast_requests: bool = False,
              checkpoint_interval: int = 1,
              voting: bool = False,
              sync_checkpoints: bool = True,
              calibration=None):
    """Standard rig: N replicas + M clients on the paper's testbed."""
    testbed = Testbed.paper_testbed(max(n_replicas, 1), max(n_clients, 1),
                                    seed=seed, calibration=calibration)
    config = ReplicationConfig(
        style=style, group="svc",
        checkpoint_interval_requests=checkpoint_interval,
        broadcast_requests=broadcast_requests)
    servants = {"counter": servant_factory or CounterServant}
    replicas = deploy_replica_group(
        testbed, [f"s{i:02d}" for i in range(1, n_replicas + 1)],
        config, servants, sync_checkpoints=sync_checkpoints)
    clients = [
        deploy_client(testbed, f"w{i:02d}", ClientReplicationConfig(
            group="svc", expected_style=style, voting=voting))
        for i in range(1, n_clients + 1)
    ]
    testbed.run(100_000)
    return testbed, replicas, clients


def call(testbed: Testbed, client: ClientStack, operation: str,
         payload, nbytes: int = 32, timeout_us: float = 2_000_000):
    """Synchronous-style invocation helper."""
    return timed_call(testbed, client, operation, payload, nbytes,
                      timeout_us)[0]


def timed_call(testbed: Testbed, client: ClientStack, operation: str,
               payload, nbytes: int = 32, timeout_us: float = 2_000_000):
    """:func:`call` that also returns the round-trip time:
    ``(reply, rtt_us)``, measured from the invocation to the reply's
    delivery."""
    replies: List = []
    sent_at = testbed.now
    client.orb_client.invoke(
        "counter", operation, payload, nbytes,
        lambda reply: replies.append((reply, testbed.now - sent_at)))
    testbed.run(timeout_us)
    assert replies, f"no reply for {operation}({payload})"
    return replies[0]


def fire(client: ClientStack, operation: str, payload, nbytes: int = 32):
    """Asynchronous invocation; returns the reply list to inspect later."""
    replies: List = []
    client.orb_client.invoke("counter", operation, payload, nbytes,
                             replies.append)
    return replies


def drive(testbed: Testbed, client: ClientStack, n_requests: int) -> None:
    """Closed loop: ``n_requests`` sequential ``add(1)`` calls, each
    issued when the previous one is acknowledged; returns once all are."""
    done = start_load(client, n_requests)
    deadline = testbed.now + 60_000_000
    while not done and testbed.now < deadline:
        testbed.run(50_000)
    assert done, f"closed loop of {n_requests} requests did not finish"


def start_load(client: ClientStack, n_requests: int) -> List[bool]:
    """Start the :func:`drive` loop without running the testbed; the
    returned list becomes non-empty when the last request is acked."""
    done: List[bool] = []

    def next_request(remaining: int) -> None:
        if remaining == 0:
            done.append(True)
            return
        client.orb_client.invoke("counter", "add", 1, 32,
                                 lambda _reply: next_request(remaining - 1))

    next_request(n_requests)
    return done


def request_id(client: ClientStack, number: int) -> str:
    """Id of the ``number``-th request ``client``'s ORB issued."""
    process = client.process
    return f"{process.host.name}/{process.pid}-{number}"


def sessions_of(replica: Replica) -> Dict:
    """``replica``'s session table as plain values: client ->
    (watermark, numbers above it, numbers of the replies kept)."""
    return {client: (session.floor, sorted(session.above),
                     list(session.kept()))
            for client, session in replica.replicator._sessions.items()}


def resend(client, request_id: str, group: str = "svc",
           object_key: str = "counter", payload_bytes: int = 32) -> None:
    """Multicast a duplicate of an already-sent ``add(1)`` request, as a
    late client retransmission would arrive (``client``: any stack with
    a ``gcs`` connection)."""
    dup = RepRequest(
        request=GiopRequest(request_id=request_id, object_key=object_key,
                            operation="add", payload=1,
                            payload_bytes=payload_bytes),
        client=client.gcs.member)
    client.gcs.multicast(group, dup, dup.wire_bytes)


def record_checkpoints(replica: Replica) -> List:
    """Every checkpoint delivered to ``replica`` from now on."""
    received: List = []
    deliver = replica.replicator._receive_checkpoint

    def spy(ckpt) -> None:
        received.append(ckpt)
        deliver(ckpt)

    replica.replicator._receive_checkpoint = spy
    return received


def counter_values(replicas: List[Replica]) -> List[int]:
    return [r.servants["counter"].value for r in replicas if r.alive]
