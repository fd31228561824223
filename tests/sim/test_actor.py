"""Unit tests for the Actor timer/lifecycle base class."""

import pytest

from repro.sim import Actor, Host, Process, Simulator


@pytest.fixture
def sim():
    return Simulator(seed=0)


@pytest.fixture
def process(sim):
    return Process(Host(sim, "h1"), "proc")


def test_one_shot_timer_fires(sim, process):
    actor = Actor(process)
    fired = []
    actor.set_timer("t", 10.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]


def test_rearming_timer_cancels_previous(sim, process):
    actor = Actor(process)
    fired = []
    actor.set_timer("t", 10.0, fired.append, "old")
    actor.set_timer("t", 20.0, fired.append, "new")
    sim.run()
    assert fired == ["new"]


def test_cancel_timer(sim, process):
    actor = Actor(process)
    fired = []
    actor.set_timer("t", 10.0, fired.append, "x")
    actor.cancel_timer("t")
    sim.run()
    assert fired == []


def test_cancel_unknown_timer_is_noop(sim, process):
    Actor(process).cancel_timer("nothing")


def test_timer_pending(sim, process):
    actor = Actor(process)
    actor.set_timer("t", 10.0, lambda: None)
    assert "t" in actor._timers
    sim.run()
    assert "t" not in actor._timers


def test_periodic_timer_refires(sim, process):
    actor = Actor(process)
    ticks = []
    actor.set_periodic_timer("hb", 100.0, lambda: ticks.append(sim.now))
    sim.run(until=450.0)
    assert ticks == [100.0, 200.0, 300.0, 400.0]


def test_periodic_timer_stops_on_cancel(sim, process):
    actor = Actor(process)
    ticks = []
    actor.set_periodic_timer("hb", 100.0, lambda: ticks.append(sim.now))
    sim.schedule(250.0, lambda: actor.cancel_timer("hb"))
    sim.run(until=1000.0)
    assert ticks == [100.0, 200.0]


def test_timers_die_with_process(sim, process):
    actor = Actor(process)
    fired = []
    actor.set_timer("t", 100.0, fired.append, "x")
    actor.set_periodic_timer("hb", 50.0, lambda: fired.append("hb"))
    sim.schedule(10.0, process.kill)
    sim.run(until=1000.0)
    assert fired == []


def test_on_stop_hook_called_once(sim, process):
    stops = []

    class Stoppable(Actor):
        def on_stop(self):
            stops.append(1)

    Stoppable(process)
    process.kill()
    process.kill()
    assert stops == [1]


def test_set_timer_on_dead_actor_is_noop(sim, process):
    actor = Actor(process)
    process.kill()
    actor.set_timer("t", 1.0, lambda: None)
    actor.set_periodic_timer("p", 1.0, lambda: None)
    sim.run()
    assert not actor._timers


def test_alive_tracks_process(sim, process):
    actor = Actor(process)
    assert actor.alive
    process.kill()
    assert not actor.alive
