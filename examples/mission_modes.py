#!/usr/bin/env python
"""Mission modes: the paper's Section 5 motivating scenario.

"Versatile dependability is essential for long-running applications
that cannot be stopped (e.g., during a space flight), but that have
several modes of operation with different resource and performance
requirements."

A spacecraft-style telemetry service runs a long simulated mission
driven by a :class:`ModeManager` over three declared operating modes:

- **encounter** — active replication, tight latency contract (the
  "limited window of opportunity" where data is critical);
- **cruise** — resource-conservative warm passive with a relaxed
  contract;
- **safe** — degraded fallback the manager may step down to when a
  mode's contracts keep failing (Section 3.1's "alternative (possibly
  degraded) behavioral contracts").

During the mission two replica hosts fail (hardware crash faults):
one mid-encounter, masked by active replication, and the primary
during cruise, where a warm-passive backup takes over.  The service
keeps answering throughout, and the dependability journal records
what happened.

Run:  python examples/mission_modes.py
"""

from repro.adaptation import ModeManager, OperatingMode
from repro.core import NumReplicasKnob, ReplicationStyleKnob
from repro.experiments import Testbed, deploy_client, deploy_replica
from repro.faults import FaultInjector
from repro.monitoring import Contract, MetricsSnapshot
from repro.orb import BusyServant
from repro.replication import (
    ClientReplicationConfig,
    ReplicaFactory,
    ReplicationConfig,
    ReplicationStyle,
)
from dataclasses import replace

from repro.sim import JournalConfig, default_calibration
from repro.tools import render_journal
from repro.workload import ClosedLoopClient

#: Journal kinds the annotated timeline shows: faults, detection,
#: daemon views, Fig. 5 switch steps and failovers.
TIMELINE_KINDS = ("fault.inject", "detector.suspect", "daemon.install",
                  "switch", "failover")


def main() -> None:
    calibration = replace(default_calibration(),
                          journal=JournalConfig(enabled=True))
    testbed = Testbed.paper_testbed(4, 1, seed=7, calibration=calibration)
    config = ReplicationConfig(style=ReplicationStyle.WARM_PASSIVE,
                               group="telemetry")
    style_knob = ReplicationStyleKnob([])

    def spawn(host):
        replica = deploy_replica(
            testbed, host.name, config,
            {"telemetry": lambda: BusyServant(processing_us=40,
                                              reply_bytes=512,
                                              state_bytes=2048)},
            process_name=f"telemetry@{host.name}")
        style_knob.add_replica(replica.replicator)
        return replica

    manager_gcs = testbed.connect(testbed.spawn("w01", "mgr"))
    hosts = [testbed.hosts[f"s{i:02d}"] for i in range(1, 5)]
    factory = ReplicaFactory(manager_gcs, "telemetry", hosts, spawn,
                             target=3,
                             calibration=testbed.calibration.replication)
    client = deploy_client(testbed, "w01", ClientReplicationConfig(
        group="telemetry", expected_style=ReplicationStyle.WARM_PASSIVE))
    injector = FaultInjector(testbed.sim, testbed.network)
    testbed.run(3_000_000)

    modes = ModeManager(
        [
            OperatingMode(name="encounter",
                          style=ReplicationStyle.ACTIVE, n_replicas=3,
                          contracts=(Contract("latency",
                                              "latency_mean_us",
                                              limit=2_500.0),)),
            OperatingMode(name="cruise",
                          style=ReplicationStyle.WARM_PASSIVE,
                          n_replicas=3,
                          contracts=(Contract("latency",
                                              "latency_mean_us",
                                              limit=20_000.0),)),
            OperatingMode(name="safe",
                          style=ReplicationStyle.WARM_PASSIVE,
                          n_replicas=2, checkpoint_interval=10,
                          contracts=(Contract("latency",
                                              "latency_mean_us",
                                              limit=100_000.0),)),
        ],
        style_knob=style_knob, replicas_knob=NumReplicasKnob(factory))

    def run_phase(n_requests):
        loader = ClosedLoopClient(client, n_requests,
                                  object_key="telemetry",
                                  payload_bytes=256)
        loader.start()
        while not loader.done:
            testbed.run(500_000)
        snapshot = MetricsSnapshot(
            time=testbed.now,
            latency_mean_us=loader.stats.mean_latency_us)
        status = modes.evaluate(snapshot)
        print(f"  mode={modes.current_mode.name:10s} "
              f"{n_requests:4d} requests  "
              f"mean={loader.stats.mean_latency_us:7.0f} us  "
              f"contract: {status.value}")

    print("phase 1 — cruise (warm passive, resources conserved):")
    modes.set_mode("cruise", time=testbed.now)
    testbed.run(2_000_000)
    run_phase(60)

    print("\nencounter window opens (operator sets the mode):")
    modes.set_mode("encounter", time=testbed.now)
    testbed.run(2_000_000)
    run_phase(120)

    print("\nhardware fault: host s02 dies mid-encounter ...")
    injector.crash_host_at(testbed.hosts["s02"], testbed.now + 1000)
    testbed.run(1_700_000)
    run_phase(80)
    print(f"  (the factory respawned a replica: "
          f"{factory.live_count} live)")

    print("\nencounter window closes:")
    modes.set_mode("cruise", time=testbed.now)
    testbed.run(2_000_000)
    run_phase(60)

    print("\nhardware fault: primary host s01 dies during cruise ...")
    injector.crash_host_at(testbed.hosts["s01"], testbed.now + 1000)
    testbed.run(1_700_000)
    run_phase(60)

    print("\nmission transitions:")
    for transition in modes.transitions:
        print(f"  t={transition.time / 1e6:6.1f}s  "
              f"{transition.from_mode or '-':10s} -> "
              f"{transition.to_mode:10s} ({transition.reason})")

    journal = testbed.sim.journal
    print("\nannotated run timeline (faults, switches, view changes):")
    print(render_journal(
        [event for kind in TIMELINE_KINDS
         for event in journal.of_kind(kind)], limit=30))

    switches = (len(journal.of_kind("switch.complete"))
                + len(journal.of_kind("switch.rollback")))
    print(f"\nrun summary: {switches} style switches, "
          f"{len(journal.of_kind('fault.inject'))} host crash(es), "
          f"{len(journal.of_kind('daemon.install'))} daemon view change(s), "
          f"{len(journal.of_kind('failover'))} failover(s)")


if __name__ == "__main__":
    main()
