"""Memory gate: a pending event costs its heap entry and little more.

An event is the plain list ``[time, seq, callback, args]`` in the heap:
with the entry's float time and int sequence number that is ~148 B per
pending zero-argument event under tracemalloc (64-bit CPython), against
~204 B when each event also built a slotted handle object wrapped in a
``(time, seq, handle)`` tuple.
"""

import gc
import tracemalloc

from repro.sim import Simulator

N_EVENTS = 20_000


def _tick() -> None:
    """A zero-argument callback shared by every event."""


def test_retained_bytes_per_pending_event():
    sim = Simulator()
    sim.schedule(1.0, _tick)  # warm the heap and the counters
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(N_EVENTS):
            sim.schedule(float(i % 97) + 0.5, _tick)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sim.pending_events == N_EVENTS + 1
    assert retained / N_EVENTS <= 160
