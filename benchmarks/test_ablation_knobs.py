"""Ablation benches for the design choices DESIGN.md calls out.

Not figures from the paper, but quantified support for its qualitative
claims:

- Section 3.1/4.2: the checkpointing-frequency knob trades latency
  against the recovery window;
- Section 4.2: "active replication is faster in responding to
  requests and in recovering from faults ... passive replication uses
  more efficiently the resources";
- Section 3.1: client-side majority voting (the Byzantine option)
  costs latency over first-response;
- cold passive is the cheapest steady state and the slowest recovery.
"""

import pytest

from conftest import BENCH_REQUESTS, print_header

from repro.experiments import (
    deploy_client,
    deploy_replica_group,
    run_replicated_load,
    Testbed,
)
from repro.orb import BusyServant
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
)

N = max(BENCH_REQUESTS // 2, 75)


def test_ablation_checkpoint_interval(benchmark):
    """Less frequent checkpoints shed passive latency (amortized
    quiescence) at the price of a longer vulnerability window."""
    def run():
        out = {}
        for interval in (1, 5, 20):
            result = run_replicated_load(
                ReplicationStyle.WARM_PASSIVE, n_replicas=3, n_clients=4,
                n_requests=N, checkpoint_interval=interval, seed=0)
            out[interval] = result
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — checkpoint interval (warm passive, 4 clients)")
    print(f"{'interval':>8s} {'latency[us]':>12s} {'bw[MB/s]':>10s}")
    for interval, result in sorted(results.items()):
        print(f"{interval:8d} {result.latency_mean_us:12.1f} "
              f"{result.bandwidth_mbps:10.3f}")
    latencies = [results[k].latency_mean_us for k in (1, 5, 20)]
    assert latencies[0] > latencies[1] > latencies[2]
    # Amortized checkpoints also shed checkpoint bandwidth.
    assert results[20].bandwidth_mbps < results[1].bandwidth_mbps * 1.05


def test_ablation_state_size(benchmark):
    """Bigger application state makes passive checkpointing costlier
    (Table 1 lists state size among the availability knob's inputs)."""
    def run():
        out = {}
        for state_bytes in (256, 4096, 16384):
            result = run_replicated_load(
                ReplicationStyle.WARM_PASSIVE, n_replicas=3, n_clients=3,
                n_requests=N, state_bytes=state_bytes, seed=0)
            out[state_bytes] = result
        return out

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — state size (warm passive, 3 clients)")
    print(f"{'state[B]':>9s} {'latency[us]':>12s} {'bw[MB/s]':>10s}")
    for state_bytes, result in sorted(results.items()):
        print(f"{state_bytes:9d} {result.latency_mean_us:12.1f} "
              f"{result.bandwidth_mbps:10.3f}")
    assert results[16384].latency_mean_us > results[256].latency_mean_us
    assert results[16384].bandwidth_mbps > results[256].bandwidth_mbps


def test_ablation_voting_costs_latency(benchmark):
    """Majority voting waits for 2-of-3 matching replies instead of
    the first response."""
    def run():
        testbeds = {}
        for voting in (False, True):
            testbed = Testbed.paper_testbed(3, 1, seed=0)
            config = ReplicationConfig(style=ReplicationStyle.ACTIVE,
                                       group="svc")
            deploy_replica_group(
                testbed, ["s01", "s02", "s03"], config,
                {"bench": lambda: BusyServant(processing_us=15,
                                              reply_bytes=128)})
            stack = deploy_client(testbed, "w01", ClientReplicationConfig(
                group="svc", expected_style=ReplicationStyle.ACTIVE,
                voting=voting))
            testbed.run(150_000)
            from repro.workload import ClosedLoopClient
            loader = ClosedLoopClient(stack, N, object_key="bench",
                                      payload_bytes=128)
            loader.start()
            while not loader.done:
                testbed.run(500_000)
            testbeds[voting] = loader.stats.mean_latency_us
        return testbeds

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — first-response vs majority voting (active)")
    print(f"first response: {results[False]:10.1f} us")
    print(f"majority vote:  {results[True]:10.1f} us")
    assert results[True] > results[False]


def test_ablation_recovery_time_by_style(benchmark):
    """Section 4.2: active recovers fastest (no rollback), warm
    passive pays detection + promotion, cold passive pays detection +
    spawn + state restore."""
    def measure(style):
        testbed = Testbed.paper_testbed(3, 1, seed=0)
        config = ReplicationConfig(style=style, group="svc")
        n_replicas = 1 if style is ReplicationStyle.COLD_PASSIVE else 3
        replicas = deploy_replica_group(
            testbed, [f"s{i:02d}" for i in range(1, n_replicas + 1)],
            config,
            {"bench": lambda: BusyServant(processing_us=15,
                                          reply_bytes=128)})
        stack = deploy_client(testbed, "w01", ClientReplicationConfig(
            group="svc", expected_style=style, retry_timeout_us=100_000))
        if style is ReplicationStyle.COLD_PASSIVE:
            from repro.replication import ReplicaFactory
            from repro.experiments import deploy_replica
            manager = testbed.connect(testbed.spawn("w01", "mgr"))
            hosts = [testbed.hosts[f"s{i:02d}"] for i in range(1, 4)]
            ReplicaFactory(
                manager, "svc", hosts,
                lambda host: deploy_replica(
                    testbed, host.name, config,
                    {"bench": lambda: BusyServant(processing_us=15,
                                                  reply_bytes=128)},
                    process_name=f"svc@{host.name}-respawn"),
                target=1, calibration=testbed.calibration.replication)
        testbed.run(200_000)
        # Warm up with one request, then kill the primary.
        replies = []
        stack.orb_client.invoke("bench", "op", 1, 128, replies.append)
        testbed.run(2_000_000)
        assert replies
        replicas[0].crash()
        crash_at = testbed.now
        after = []
        # Record the exact reply instant (the polling loop below is
        # coarse).
        stack.orb_client.invoke("bench", "op", 1, 128,
                                lambda reply: after.append(testbed.now))
        guard = 0
        while not after and guard < 60:
            testbed.run(500_000)
            guard += 1
        assert after, f"no recovery for {style.value}"
        return after[0] - crash_at

    def run():
        return {style: measure(style)
                for style in (ReplicationStyle.ACTIVE,
                              ReplicationStyle.WARM_PASSIVE,
                              ReplicationStyle.COLD_PASSIVE)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — recovery time after primary crash")
    for style, recovery_us in results.items():
        print(f"{style.value:14s} {recovery_us / 1000.0:10.1f} ms")
    active = results[ReplicationStyle.ACTIVE]
    warm = results[ReplicationStyle.WARM_PASSIVE]
    cold = results[ReplicationStyle.COLD_PASSIVE]
    assert active < warm < cold
    # Active recovery is essentially a normal round trip.
    assert active < 50_000.0


def test_ablation_incremental_checkpoints(benchmark):
    """`checkpoint_delta_fraction`: shipping state deltas instead of
    full snapshots sheds checkpoint bandwidth without touching the
    capture cost (latency roughly unchanged)."""
    from repro.experiments import Testbed, deploy_client, deploy_replica_group
    from repro.workload import ClosedLoopClient

    def run_with_delta(delta):
        testbed = Testbed.paper_testbed(3, 3, seed=0)
        config = ReplicationConfig(
            style=ReplicationStyle.WARM_PASSIVE, group="svc",
            checkpoint_delta_fraction=delta)
        deploy_replica_group(
            testbed, ["s01", "s02", "s03"], config,
            {"bench": lambda: BusyServant(processing_us=15,
                                          reply_bytes=128,
                                          state_bytes=4096)})
        stacks = [deploy_client(testbed, f"w{i:02d}",
                                ClientReplicationConfig(
                                    group="svc",
                                    expected_style=ReplicationStyle
                                    .WARM_PASSIVE))
                  for i in (1, 2, 3)]
        testbed.run(150_000)
        loaders = [ClosedLoopClient(s, N, object_key="bench",
                                    payload_bytes=128) for s in stacks]
        b0, t0 = testbed.network.stats.total_bytes, testbed.now
        for loader in loaders:
            loader.start()
        while not all(l.done for l in loaders):
            testbed.run(500_000)
        duration = max(l.stats.completion_times[-1] for l in loaders) - t0
        bw = (testbed.network.stats.total_bytes - b0) / duration
        lat = sum(l.stats.mean_latency_us for l in loaders) / 3
        return lat, bw

    def run():
        return {delta: run_with_delta(delta) for delta in (1.0, 0.25)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — incremental checkpoints (state 4 KB)")
    for delta, (lat, bw) in sorted(results.items()):
        print(f"delta={delta:4.2f}: latency={lat:8.1f} us  "
              f"bandwidth={bw:.3f} MB/s")
    full_lat, full_bw = results[1.0]
    delta_lat, delta_bw = results[0.25]
    assert delta_bw < full_bw            # deltas shed bandwidth
    assert delta_lat == pytest.approx(full_lat, rel=0.10)  # capture same


def test_ablation_broadcast_mode_trades_bandwidth_for_recovery(benchmark):
    """`broadcast_requests`: multicasting client requests to the
    backups costs bandwidth in steady state but buys log-replay
    recovery (state restored without client retransmissions)."""
    def run_mode(broadcast):
        # run_replicated_load has no broadcast knob; measure directly.
        from repro.experiments import (Testbed, deploy_client,
                                       deploy_replica_group)
        from repro.workload import ClosedLoopClient
        testbed = Testbed.paper_testbed(3, 3, seed=0)
        config = ReplicationConfig(
            style=ReplicationStyle.WARM_PASSIVE, group="svc",
            broadcast_requests=broadcast, checkpoint_interval_requests=50)
        deploy_replica_group(
            testbed, ["s01", "s02", "s03"], config,
            {"bench": lambda: BusyServant(processing_us=15,
                                          reply_bytes=128)})
        stacks = [deploy_client(testbed, f"w{i:02d}",
                                ClientReplicationConfig(
                                    group="svc",
                                    expected_style=ReplicationStyle
                                    .WARM_PASSIVE))
                  for i in (1, 2, 3)]
        testbed.run(150_000)
        loaders = [ClosedLoopClient(s, N, object_key="bench",
                                    payload_bytes=128) for s in stacks]
        b0, t0 = testbed.network.stats.total_bytes, testbed.now
        for loader in loaders:
            loader.start()
        while not all(l.done for l in loaders):
            testbed.run(500_000)
        duration = max(l.stats.completion_times[-1] for l in loaders) - t0
        return (testbed.network.stats.total_bytes - b0) / duration

    def run():
        return {mode: run_mode(mode) for mode in (False, True)}

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print_header("Ablation — direct-to-primary vs broadcast requests")
    print(f"direct to primary: {results[False]:.3f} MB/s")
    print(f"broadcast + log:   {results[True]:.3f} MB/s")
    assert results[True] > results[False]
