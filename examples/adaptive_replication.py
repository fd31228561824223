#!/usr/bin/env python
"""Runtime adaptive replication (paper Section 4.2, Fig. 6).

A three-replica service starts in resource-frugal warm passive
replication.  Two closed-loop clients drive a load that spikes past
the adaptation threshold; the replicated-state-driven policy switches
the group to active replication for the duration of the burst, then
back — the "low-level knob: adaptive replication" of Fig. 6.

Run:  python examples/adaptive_replication.py
"""

from repro.core import ThresholdSwitchPolicy
from repro.experiments import run_adaptive_scenario
from repro.replication import ReplicationStyle
from repro.workload import SpikeProfile


def main() -> None:
    profile = SpikeProfile(base_rate=100.0, spike_rate=1100.0,
                           spike_start_us=1_500_000.0,
                           spike_end_us=5_500_000.0)
    policy = ThresholdSwitchPolicy(rate_high_per_s=400.0,
                                   rate_low_per_s=200.0)

    print("running the adaptive configuration (threshold policy) ...")
    adaptive = run_adaptive_scenario(profile, duration_us=7_000_000.0,
                                     policy=policy, n_clients=2, seed=0)
    print("running the static warm-passive baseline ...")
    static = run_adaptive_scenario(
        profile, duration_us=7_000_000.0, n_clients=2,
        static_style=ReplicationStyle.WARM_PASSIVE, seed=0)

    print("\nrequest rate observed by the adaptation managers "
          "(10 samples/s):")
    previous_style = None
    style_iter = iter(adaptive.style_series)
    current = next(style_iter, (0.0, "?"))
    upcoming = next(style_iter, None)
    for time_us, rate in adaptive.rate_series[::5]:
        while upcoming is not None and upcoming[0] <= time_us:
            current = upcoming
            upcoming = next(style_iter, None)
        bar = "#" * int(rate / 25)
        marker = f"  <{current[1]}>" if current[1] != previous_style else ""
        previous_style = current[1]
        print(f"  {time_us / 1e6:5.2f}s {rate:7.0f} req/s |{bar}{marker}")

    print("\nstyle switches (Fig. 5 protocol):")
    for record in adaptive.switch_events:
        print(f"  t={record.started_at / 1e6:.2f}s  "
              f"{record.from_style.value} -> {record.to_style.value}  "
              f"(completed in {record.duration_us:.0f} us, "
              f"{record.queued_requests} requests queued)")

    print("\nadaptive vs static warm passive under the same load:")
    gain = adaptive.throughput_per_s / static.throughput_per_s - 1.0
    print(f"  observed arrival rate: adaptive "
          f"{adaptive.throughput_per_s:7.1f}/s   "
          f"static {static.throughput_per_s:7.1f}/s   "
          f"(gain {gain * 100:+.1f} %; the paper measured +4.1 %)")
    print(f"  mean latency:          adaptive "
          f"{adaptive.latency_mean_us:7.0f} us  "
          f"static {static.latency_mean_us:7.0f} us")
    print("\nwhy: active replication answers faster under load, so the"
          "\nclosed-loop clients can send their next requests sooner —"
          "\nexactly the speed-up effect Section 4.2 describes.")


if __name__ == "__main__":
    main()
