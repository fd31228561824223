#!/usr/bin/env python
"""Quickstart: transparently replicate an unmodified service.

Builds the paper's testbed (simulated hosts + Spread-like group
communication + mini-ORB), deploys a counter service with three
active replicas, invokes it from a replication-unaware client, then
crashes a replica mid-stream and shows that the client never notices
— the transparency goal of Section 3.1.

Run:  python examples/quickstart.py
"""

from dataclasses import replace

from repro.experiments import (
    Testbed,
    deploy_client,
    deploy_replica_group,
)
from repro.orb import CounterServant
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
)
from repro.sim import TelemetryConfig, default_calibration
from repro.telemetry import spans_by_trace, trace_component_us


def main() -> None:
    # 1. A simulated LAN: three server hosts, one client host, each
    #    running a group-communication daemon.  Telemetry records a
    #    span per layer hop, so any request's latency can be split by
    #    layer afterwards (it never changes the simulated outcome).
    calibration = replace(default_calibration(),
                          telemetry=TelemetryConfig(enabled=True))
    testbed = Testbed.paper_testbed(n_server_hosts=3, n_client_hosts=1,
                                    seed=42, calibration=calibration)

    # 2. Three active replicas of an ordinary CounterServant.  The
    #    servant knows nothing about replication; the replicator sits
    #    under the ORB at the transport seam.
    config = ReplicationConfig(style=ReplicationStyle.ACTIVE, group="svc")
    replicas = deploy_replica_group(testbed, ["s01", "s02", "s03"],
                                    config, {"counter": CounterServant})

    # 3. An ordinary client; its ORB talks to the replicated transport
    #    exactly as it would to a single TCP server.
    client = deploy_client(testbed, "w01", ClientReplicationConfig(
        group="svc", expected_style=ReplicationStyle.ACTIVE))
    testbed.run(100_000)

    def invoke(operation, payload):
        replies = []
        sent_at = testbed.now
        client.orb_client.invoke(
            "counter", operation, payload, 32,
            lambda reply: replies.append((reply, testbed.now - sent_at)))
        testbed.run(2_000_000)
        reply, rtt = replies[0]
        print(f"  {operation}({payload}) -> {reply.payload}   "
              f"[{rtt:.0f} us]")
        return reply

    print("invoking the replicated counter:")
    invoke("add", 10)
    invoke("add", 5)

    print("\nreplica states (all identical — state-machine replication):")
    for replica in replicas:
        print(f"  {replica.process.name}: "
              f"value={replica.servants['counter'].value}")

    print("\ncrashing replica svc-r2 ...")
    replicas[1].crash()

    print("client keeps working, no retries needed:")
    invoke("add", 7)
    invoke("read", None)
    print(f"  client retries so far: {client.replicator.retries}")

    print("\nsurviving replica states:")
    for replica in replicas:
        if replica.alive:
            print(f"  {replica.process.name}: "
                  f"value={replica.servants['counter'].value}")

    print("\none more read:")
    reply = invoke("read", None)
    print("its per-component time from the spans (paper Fig. 3); with "
          "active\nreplication each sum covers every live replica's work:")
    trace = spans_by_trace(testbed.sim.telemetry.spans)[reply.request_id]
    for component, micros in sorted(trace_component_us(trace).items()):
        print(f"  {component:22s} {micros:8.1f} us")


if __name__ == "__main__":
    main()
