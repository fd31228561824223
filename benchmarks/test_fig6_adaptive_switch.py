"""Paper Fig. 6 — the adaptive-replication low-level knob.

Closed-loop think-time clients drive a time-varying request rate
against a three-replica group starting in warm passive.  A threshold
policy
switches the group to active when the rate climbs and back when it
falls.  Paper claims:

- the group switches when the rate crosses the threshold;
- switch delays are "comparable to the average response time" and
  negligible at high load;
- the observed request arrival rate is ~4.1 % *higher* with adaptive
  replication than with static passive under the same workload (the
  speed-up lets clients send sooner).
"""

import pytest

from conftest import print_header

from repro.core import ThresholdSwitchPolicy
from repro.experiments import run_adaptive_scenario
from repro.replication import ReplicationStyle
from repro.workload import SpikeProfile

#: Fig. 6-style load: quiet, then a burst past the threshold, then quiet.
PROFILE = SpikeProfile(base_rate=100.0, spike_rate=1100.0,
                       spike_start_us=1_500_000.0,
                       spike_end_us=5_500_000.0)
POLICY = ThresholdSwitchPolicy(rate_high_per_s=400.0,
                               rate_low_per_s=200.0)
DURATION_US = 7_000_000.0

#: The closed-feedback effect of Fig. 6: the paper measured +4.1 %.
PAPER_RATE_GAIN = 0.041


N_CLIENTS = 2


@pytest.fixture(scope="module")
def runs():
    adaptive = run_adaptive_scenario(PROFILE, DURATION_US, policy=POLICY,
                                     n_clients=N_CLIENTS, seed=0)
    static = run_adaptive_scenario(
        PROFILE, DURATION_US, n_clients=N_CLIENTS,
        static_style=ReplicationStyle.WARM_PASSIVE, seed=0)
    return adaptive, static


def test_fig6_rate_triggered_switching(benchmark, runs):
    adaptive, _ = benchmark.pedantic(lambda: runs, rounds=1, iterations=1)
    print_header("Fig. 6 — adaptive replication under a rate spike")
    print("style timeline (time [s] -> style):")
    for time_us, style in adaptive.style_series:
        print(f"  {time_us / 1e6:6.2f}s  {style}")
    print("switches:")
    for record in adaptive.switch_events:
        print(f"  {record.switch_id}: {record.from_style.short} -> "
              f"{record.to_style.short} in {record.duration_us:.0f} us")

    styles = [style for _, style in adaptive.style_series]
    # Starts passive, goes active during the spike, returns passive.
    assert styles[0] == "warm_passive"
    assert "active" in styles
    assert styles[-1] == "warm_passive"
    assert len(adaptive.switch_events) >= 2


def test_fig6_switch_delay_comparable_to_response_time(benchmark, runs):
    """Section 4.2: switch-completion delays are "comparable to the
    average response time" — bounded by the worst response time the
    same run produced, and well under the adaptation time scale."""
    adaptive, _ = benchmark.pedantic(lambda: runs, rounds=1, iterations=1)
    for record in adaptive.switch_events:
        assert record.duration_us < max(5 * adaptive.latency_mean_us,
                                        adaptive.max_latency_us)
        assert record.duration_us < 100_000.0


def test_fig6_adaptive_beats_static_passive(benchmark, runs):
    """The headline: higher observed arrival rate (and lower latency)
    than static passive under the identical offered load."""
    adaptive, static = benchmark.pedantic(lambda: runs, rounds=1,
                                          iterations=1)
    print_header("Fig. 6 — adaptive vs static warm passive")
    adaptive_rate = adaptive.throughput_per_s
    static_rate = static.throughput_per_s
    gain = adaptive_rate / static_rate - 1.0
    print(f"observed arrival rate: adaptive {adaptive_rate:.1f}/s, "
          f"static passive {static_rate:.1f}/s  (gain {gain * 100:+.1f} %, "
          f"paper {PAPER_RATE_GAIN * 100:+.1f} %)")
    print(f"mean latency: adaptive {adaptive.latency_mean_us:.0f} us, "
          f"static {static.latency_mean_us:.0f} us")
    print(f"completions: adaptive {adaptive.completed}/{adaptive.sent}, "
          f"static {static.completed}/{static.sent}")

    assert adaptive.latency_mean_us < static.latency_mean_us
    # The observed-rate gain is positive, like the paper's +4.1 %.
    assert gain > 0.0


def test_fig6_journal_agrees_with_scenario_accounting(benchmark):
    """The dependability journal's derived accounting reproduces the
    scenario's own bookkeeping: every completed switch appears with
    the same duration (within 5 %), availability is 1.0 in this
    faultless run, and the switch windows land as degraded time."""
    from repro.journal import availability_report, switch_windows

    def run():
        return run_adaptive_scenario(PROFILE, DURATION_US, policy=POLICY,
                                     n_clients=N_CLIENTS, seed=0,
                                     journal=True)

    adaptive = benchmark.pedantic(run, rounds=1, iterations=1)
    journal = adaptive.journal
    assert journal is not None and journal.dropped == 0

    report = availability_report(journal.events)
    windows = switch_windows(journal.events)
    print_header("Fig. 6 — journal vs scenario accounting")
    print(f"availability {report.availability * 100:.3f} %  "
          f"degraded {report.degraded_fraction * 100:.2f} %  "
          f"switch windows {len(windows)}")

    assert report.availability == 1.0
    assert report.downtime_us == 0.0
    assert report.degraded_us > 0.0
    assert set(windows) == {r.switch_id
                            for r in adaptive.switch_events}
    completes = journal.of_kind("switch.complete")
    for record in adaptive.switch_events:
        durations = [e.attrs["duration_us"] for e in completes
                     if e.attrs["switch_id"] == record.switch_id]
        closest = min(durations,
                      key=lambda d: abs(d - record.duration_us))
        assert abs(closest - record.duration_us) <= \
            max(0.05 * record.duration_us, 1.0)


def test_fig6_static_active_needs_no_switch(benchmark):
    """Sanity arm: static active under the same profile never
    switches and handles the spike easily."""
    def run():
        return run_adaptive_scenario(
            PROFILE, DURATION_US, n_clients=N_CLIENTS,
            static_style=ReplicationStyle.ACTIVE, seed=0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.switch_events == []
    assert result.completed == result.sent
