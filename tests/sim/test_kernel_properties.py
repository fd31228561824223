"""Property-based tests for the simulation kernel (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.sim import Simulator

delays = st.lists(st.floats(min_value=0.0, max_value=1e6,
                            allow_nan=False), min_size=1, max_size=60)


@given(delays)
def test_events_fire_in_nondecreasing_time_order(delay_list):
    sim = Simulator()
    fired = []
    for delay in delay_list:
        sim.schedule(delay, lambda d=delay: fired.append(sim.now))
    sim.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delay_list)


@given(delays)
def test_clock_never_goes_backwards(delay_list):
    sim = Simulator()
    observed = []
    for delay in delay_list:
        sim.schedule(delay, lambda: observed.append(sim.now))
    last = [0.0]

    def check():
        assert sim.now >= last[0]
        last[0] = sim.now

    for delay in delay_list:
        sim.schedule(delay, check)
    sim.run()


@given(delays, st.integers(min_value=0, max_value=59))
def test_cancel_removes_exactly_one_event(delay_list, cancel_index):
    sim = Simulator()
    handles = []
    fired = []
    for i, delay in enumerate(delay_list):
        handles.append(sim.schedule(delay, fired.append, i))
    victim = cancel_index % len(handles)
    sim.cancel(handles[victim])
    sim.run()
    assert len(fired) == len(delay_list) - 1
    assert victim not in fired


@given(delays)
def test_same_delays_fire_in_submission_order(delay_list):
    """Ties break deterministically by scheduling order."""
    sim = Simulator()
    fired = []
    for i in range(len(delay_list)):
        sim.schedule(5.0, fired.append, i)
    sim.run()
    assert fired == list(range(len(delay_list)))


@given(st.lists(st.floats(min_value=0.1, max_value=1000.0),
                min_size=1, max_size=30))
@settings(max_examples=50)
def test_cpu_serialization_preserves_submission_order(demands):
    """Jobs on one CPU complete in submission order regardless of
    individual demands (FIFO, no preemption)."""
    from repro.sim import Host
    sim = Simulator()
    host = Host(sim, "h")
    completed = []
    for i, demand in enumerate(demands):
        host.cpu.execute(demand, completed.append, ) if False else \
            host.cpu.execute(demand, lambda i=i: completed.append(i))
    sim.run()
    assert completed == list(range(len(demands)))


@given(st.lists(st.floats(min_value=0.1, max_value=1000.0),
                min_size=1, max_size=30))
@settings(max_examples=50)
def test_cpu_busy_time_at_least_total_demand(demands):
    from repro.sim import Host
    sim = Simulator()
    host = Host(sim, "h")
    for demand in demands:
        host.cpu.execute(demand, lambda: None)
    sim.run()
    assert host.cpu.busy_us >= sum(demands) - 1e-6
