"""Unit tests for hosts, CPUs and processes."""

import pytest

from repro.errors import SimulationError
from repro.sim import Host, Process, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=1)


@pytest.fixture
def host(sim):
    return Host(sim, "node1")


class TestCpu:
    def test_single_job_completes_after_demand(self, sim, host):
        done = []
        host.cpu.execute(100.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [100.0]

    def test_jobs_serialize_fifo(self, sim, host):
        done = []
        host.cpu.execute(100.0, lambda: done.append(("a", sim.now)))
        host.cpu.execute(50.0, lambda: done.append(("b", sim.now)))
        sim.run()
        assert done[0][0] == "a"
        assert done[1][0] == "b"
        # Second job starts only after the first finishes.
        assert done[1][1] >= 150.0

    def test_queued_job_pays_context_switch(self, sim, host):
        host.cpu.execute(100.0, lambda: None)
        host.cpu.execute(50.0, lambda: None)
        done = []
        sim.schedule(0.0, lambda: None)
        sim.run()
        # 100 + 50 + one context switch (5 us default).
        assert host.cpu.busy_us == pytest.approx(155.0)

    def test_faster_cpu_finishes_sooner(self, sim):
        from repro.sim import HostCalibration
        fast = Host(sim, "fast", calibration=HostCalibration(speed=2.0))
        done = []
        fast.cpu.execute(100.0, lambda: done.append(sim.now))
        sim.run()
        assert done == [50.0]

    def test_negative_demand_rejected(self, sim, host):
        with pytest.raises(SimulationError):
            host.cpu.execute(-1.0, lambda: None)

    @pytest.mark.parametrize("demand", [float("nan"), float("inf"),
                                        float("-inf"), -1.0])
    def test_non_finite_or_negative_demand_leaves_cpu_untouched(
            self, sim, host, demand):
        """A NaN demand passes a ``< 0`` check; had it reached the
        bookkeeping, busy time (and utilization) would stay NaN."""
        host.cpu.execute(100.0, lambda: None)
        before = (host.cpu.busy_us, host.cpu.jobs_run,
                  host.cpu.queue_delay_us)
        with pytest.raises(SimulationError, match=str(demand)):
            host.cpu.execute(demand, lambda: None)
        assert (host.cpu.busy_us, host.cpu.jobs_run,
                host.cpu.queue_delay_us) == before
        sim.run()
        assert host.cpu.busy_us == 100.0
        assert host.cpu.utilization(0.0) == 1.0

    def test_execute_passes_args_to_the_callback(self, sim, host):
        done = []
        host.cpu.execute(10.0, done.append, "job")
        sim.run()
        assert done == ["job"]

    def test_queue_delay_reflects_backlog(self, sim, host):
        host.cpu.execute(200.0, lambda: None)
        assert host.cpu.queue_delay_us == pytest.approx(200.0)

    def test_utilization_bounded(self, sim, host):
        host.cpu.execute(100.0, lambda: None)
        sim.run(until=200.0)
        util = host.cpu.utilization(window_start=0.0)
        assert 0.0 < util <= 1.0

    def test_jobs_run_counter(self, sim, host):
        for _ in range(3):
            host.cpu.execute(1.0, lambda: None)
        sim.run()
        assert host.cpu.jobs_run == 3


class TestHostPorts:
    def test_bind_and_deliver(self, sim, host):
        got = []
        host.bind(5000, got.append)
        host.deliver(5000, "hello")
        assert got == ["hello"]

    def test_deliver_to_unbound_port_dropped(self, sim, host):
        host.deliver(9999, "lost")  # must not raise

    def test_double_bind_rejected(self, sim, host):
        host.bind(5000, lambda p: None)
        with pytest.raises(SimulationError):
            host.bind(5000, lambda p: None)

    def test_unbind_then_rebind(self, sim, host):
        host.bind(5000, lambda p: None)
        host.unbind(5000)
        host.bind(5000, lambda p: None)

    def test_ephemeral_ports_unique(self, sim, host):
        ports = {host.allocate_port() for _ in range(100)}
        assert len(ports) == 100

    def test_dead_host_drops_frames(self, sim, host):
        got = []
        host.bind(5000, got.append)
        host.crash()
        host.deliver(5000, "late")
        assert got == []


class TestCrashSemantics:
    def test_crash_kills_all_processes(self, sim, host):
        p1 = Process(host, "server")
        p2 = Process(host, "client")
        host.crash()
        assert not host.alive and not p1.alive and not p2.alive

    def test_crash_is_idempotent(self, sim, host):
        host.crash()
        host.crash()
        assert not host.alive

    def test_process_crash_leaves_host_alive(self, sim, host):
        proc = Process(host, "server")
        proc.kill()
        assert host.alive and not proc.alive

    def test_on_kill_callbacks_fire_once(self, sim, host):
        proc = Process(host, "server")
        calls = []
        proc.on_kill(lambda: calls.append(1))
        proc.kill()
        proc.kill()
        assert calls == [1]

    def test_cannot_start_process_on_dead_host(self, sim, host):
        host.crash()
        with pytest.raises(SimulationError):
            Process(host, "zombie")

    def test_restart_gives_fresh_cpu(self, sim, host):
        host.cpu.execute(100.0, lambda: None)
        sim.run()
        host.crash()
        host.restart()
        assert host.alive
        assert host.cpu.busy_us == 0.0

    def test_pids_unique(self, sim, host):
        p1 = Process(host, "a")
        p2 = Process(host, "b")
        assert p1.pid != p2.pid
