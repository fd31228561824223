"""Discrete-event simulation kernel.

The kernel is a classic event-heap scheduler with a simulated clock
measured in **microseconds** (the unit the paper reports all latencies
in).  Everything else in the library — the network substrate, the group
communication system, the replicator — is built as callbacks scheduled
on a :class:`Simulator`.

Determinism
-----------
A simulation run is fully determined by its seed: the kernel owns a
single :class:`random.Random` instance and ties are broken by a
monotonically increasing sequence number, so two runs with the same
seed and the same scenario produce identical traces.  This property is
load-bearing for the paper's architecture: adaptation decisions are
"made in a distributed manner by a deterministic algorithm" over
replicated state (Section 3.1), and the tests assert reproducibility.

Events
------
An event is its heap entry, the list ``[time, seq, callback, args]``.
:meth:`Simulator.schedule` returns that list as an opaque handle, and
:meth:`Simulator.cancel` empties its callback slot; dispatch puts the
:func:`_fired` sentinel there.  No object is built per event beyond
the list itself.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError


def _fired(*_args: Any) -> None:
    """Sentinel in an entry's callback slot: the event was dispatched."""


class NullTelemetry:
    """Disabled trace recorder: the default for every simulator.

    Mirrors the interface of :class:`repro.telemetry.spans.Telemetry`
    as pure no-ops.  It lives here — dependency-free — so the kernel
    never imports the telemetry package; instrumented code guards on
    ``sim.telemetry.enabled`` and pays one attribute load plus one
    branch when telemetry is off.
    """

    enabled = False
    spans: tuple = ()
    dropped = 0
    open_spans = 0

    def site(self, *_args: Any, **_kwargs: Any) -> int:
        """No-op; a real recorder would intern a span site."""
        return 0

    def open_trace(self, *_args: Any, **_kwargs: Any) -> None:
        """No-op; a real recorder would open a root span."""
        return None

    def open(self, *_args: Any, **_kwargs: Any) -> None:
        """No-op; a real recorder would open a child span."""
        return None

    def end(self, *_args: Any, **_kwargs: Any) -> None:
        """No-op; a real recorder would close the span."""
        return None

    def finish_inflight(self, *_args: Any, **_kwargs: Any) -> None:
        """No-op; a real recorder would close the transit span."""
        return None

    def finish_trace(self, *_args: Any, **_kwargs: Any) -> None:
        """No-op; a real recorder would close the root span."""
        return None

    def traces(self) -> dict:
        """Return an empty mapping: nothing is ever recorded."""
        return {}

    def __len__(self) -> int:
        return 0


#: Shared stateless no-op recorder.
NULL_TELEMETRY = NullTelemetry()


class NullJournal:
    """Disabled dependability-event journal: the default recorder.

    Mirrors the interface of :class:`repro.journal.events.Journal` as
    pure no-ops, the same arrangement as :class:`NullTelemetry`: it
    lives here — dependency-free — so the kernel never imports the
    journal package, and instrumented code pays one attribute load
    plus one ``.enabled`` branch when journaling is off.
    """

    enabled = False
    events: tuple = ()
    dropped = 0

    def record(self, *_args: Any, **_kwargs: Any) -> None:
        """No-op; a real journal would append a JournalEvent."""
        return None

    def of_kind(self, _prefix: str) -> tuple:
        """Return no events: nothing is ever recorded."""
        return ()

    def __len__(self) -> int:
        return 0


#: Shared stateless no-op journal.
NULL_JOURNAL = NullJournal()


class NullHistory:
    """Disabled operation-history recorder: the default for every
    simulator.

    Mirrors the interface of
    :class:`repro.check.history.HistoryRecorder` as pure no-ops, the
    same arrangement as :class:`NullTelemetry`: it lives here —
    dependency-free — so the kernel never imports the checker package,
    and the ORB client pays one attribute load plus one ``.enabled``
    branch per invocation when history capture is off.
    """

    enabled = False
    operations: tuple = ()

    def invoked(self, *_args: Any, **_kwargs: Any) -> None:
        """No-op; a real recorder would open an operation interval."""
        return None

    def completed(self, *_args: Any, **_kwargs: Any) -> None:
        """No-op; a real recorder would close the operation interval."""
        return None

    def __len__(self) -> int:
        return 0


#: Shared stateless no-op history recorder.
NULL_HISTORY = NullHistory()


#: Heap compaction trigger: once at least this many cancelled entries
#: sit in the heap *and* they outnumber the live ones, the heap is
#: rebuilt without them.  Timer-heavy protocols (failure detectors
#: rearming on every heartbeat) otherwise let cancelled timers
#: dominate the heap and tax every push/pop with dead weight.
COMPACT_MIN_CANCELLED = 512


class Simulator:
    """Event-heap simulator with a microsecond clock.

    Parameters
    ----------
    seed:
        Seed for the kernel's random number generator.  All stochastic
        behaviour in the library (network jitter, loss, workload
        arrivals) draws from :attr:`rng`, so a run is reproducible from
        its seed alone.
    """

    def __init__(self, seed: int = 0):
        self.now: float = 0.0
        self.rng = random.Random(seed)
        self.seed = seed
        #: Trace recorder; the no-op by default.  The testbed swaps in
        #: a :class:`repro.telemetry.Telemetry` when calibration says
        #: so.  Recording is observation-only (never schedules events),
        #: so results are identical whichever recorder is attached.
        self.telemetry: Any = NULL_TELEMETRY
        #: Dependability-event journal; the no-op by default.  The
        #: testbed swaps in a :class:`repro.journal.Journal` when
        #: calibration says so.  Journaling is observation-only (never
        #: schedules events), so results are identical either way.
        self.journal: Any = NULL_JOURNAL
        #: Client-observed operation history; the no-op by default.
        #: The checker attaches a
        #: :class:`repro.check.history.HistoryRecorder` for
        #: linearizability verification.  Recording is
        #: observation-only, so results are identical either way.
        self.history: Any = NULL_HISTORY
        #: Scheduling policy installed via :meth:`set_scheduler_policy`
        #: (None by default).  The network layer consults it for
        #: bounded extra message delays; same-timestamp tie-breaking
        #: goes through :attr:`_tie_break` below.
        self.scheduler_policy: Any = None
        #: The installed policy's bound ``tie_break`` (None without a
        #: policy): with one, every ``seq`` is ``(tie_break(), n)``.
        self._tie_break: Optional[Callable[[], Any]] = None
        #: ``[time, seq, callback, args]`` entries, each one event and
        #: its handle.  ``seq`` is unique, so the heap orders by a C
        #: list compare of ``(time, seq)`` and never reaches the
        #: callback.
        self._heap: List[list] = []
        self._seq = itertools.count()
        self._pids = itertools.count(1)
        self._running = False
        self._events_dispatched = 0
        # Live bookkeeping: pending (scheduled, neither fired nor
        # cancelled) and cancelled-but-still-heaped counts, so
        # ``pending_events`` is O(1) and compaction knows when the
        # heap is mostly dead weight.
        self._pending = 0
        self._cancelled = 0

    def allocate_pid(self) -> int:
        """Next process id.  Per-simulator (not interpreter-global) so
        two same-seed runs name their processes identically — member
        ids embed the pid, and the journal's byte-identical-JSONL
        guarantee depends on it."""
        return next(self._pids)

    def set_scheduler_policy(self, policy: Any) -> None:
        """Install a scheduling policy that perturbs same-timestamp
        event ordering (and, via the network layer, message delays).

        The policy is duck-typed (see
        :class:`repro.check.policies.SchedulerPolicy`): it must expose
        ``tie_break() -> int`` — consulted once per scheduled event —
        and ``message_delay(wire_bytes) -> float``.  The hook works by
        turning each sequence number into ``(tie_break(), n)``, with
        ``n`` from the kernel's plain counter: events at equal
        simulated times sort by the policy's tie-break value first,
        with the monotone counter still guaranteeing a total order.
        With no policy installed ``seq`` is the plain ``n``, so
        default-policy runs stay identical to pre-hook kernels.

        Must be called before any event is scheduled: mixing plain-int
        and tuple sequence numbers in one heap would make heap entries
        incomparable.
        """
        if self._heap:
            raise SimulationError(
                "scheduler policy must be installed before any event "
                "is scheduled")
        self.scheduler_policy = policy
        self._tie_break = policy.tie_break

    def swap_scheduler_policy(self, policy: Any) -> None:
        """Replace the installed scheduling policy mid-run, keeping
        the monotone half of the sequence counter.

        This is how a checked schedule arms its walk policy: the
        warm-up runs under the identity policy (tie-break 0 for every
        event, so it is byte-identical no matter which walk follows)
        and the walk policy takes over where the load window opens.
        Only valid when a policy was installed via
        :meth:`set_scheduler_policy` before any event — the heap must
        already be ordered by ``(tie, n)`` tuples.
        """
        if self._tie_break is None:
            raise SimulationError(
                "swap_scheduler_policy requires a policy installed "
                "via set_scheduler_policy before any event")
        self.scheduler_policy = policy
        self._tie_break = policy.tie_break

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None],
                 *args: Any) -> list:
        """Schedule ``callback(*args)`` to run ``delay`` µs from now.

        Returns the event's heap entry as an opaque handle for
        :meth:`cancel`.
        """
        if not delay >= 0:  # NaN fails too: it would break heap order
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        if not callable(callback):
            raise SimulationError(f"callback is not callable: {callback!r}")
        # Inlined schedule_at: delay >= 0 already implies time >= now.
        time = self.now + delay
        tie_break = self._tie_break
        seq = next(self._seq) if tie_break is None \
            else (tie_break(), next(self._seq))
        entry = [time, seq, callback, args]
        heapq.heappush(self._heap, entry)
        self._pending += 1
        return entry

    def schedule_at(self, time: float, callback: Callable[..., None],
                    *args: Any) -> list:
        """Schedule ``callback(*args)`` at absolute simulated time
        ``time``; returns the handle, as :meth:`schedule` does."""
        if not time >= self.now:  # NaN fails too: it would break heap order
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        if not callable(callback):
            raise SimulationError(f"callback is not callable: {callback!r}")
        tie_break = self._tie_break
        seq = next(self._seq) if tie_break is None \
            else (tie_break(), next(self._seq))
        entry = [time, seq, callback, args]
        heapq.heappush(self._heap, entry)
        self._pending += 1
        return entry

    def cancel(self, handle: list) -> None:
        """Prevent a scheduled event from firing; a no-op on one that
        already fired or was already cancelled.

        The entry stays in the heap with an empty callback slot until
        it reaches the head or a compaction drops it; its arguments
        are dropped now, so a cancelled timer pins no payload.
        """
        callback = handle[2]
        if callback is None or callback is _fired:
            return
        handle[2] = None
        handle[3] = ()
        self._pending -= 1
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        heap = self._heap
        if cancelled >= COMPACT_MIN_CANCELLED and 2 * cancelled > len(heap):
            # Rebuild in place (run() holds an alias to the list) with
            # only live entries.  heapify restores the invariant; the
            # dispatch order is unchanged because the (time, seq)
            # ordering is total.
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapq.heapify(heap)
            self._cancelled = 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float = math.inf, max_events: Optional[int] = None) -> float:
        """Run until the queue drains, ``until`` is reached, or
        ``max_events`` events have been dispatched.

        Returns the simulated time at which the run stopped.  When no
        event at or before ``until`` is left, the clock is advanced to
        ``until`` even if no event fired exactly there, so that
        consecutive ``run`` calls see a monotone clock; a run stopped
        by ``max_events`` short of ``until`` leaves it at the last
        event dispatched.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        # The dispatch loop is the simulator's hottest code: locals are
        # hoisted and one event costs one heap pop plus the callback.
        heap = self._heap
        pop = heapq.heappop
        limitless = max_events is None
        dispatched = 0
        try:
            while heap:
                head = heap[0]
                callback = head[2]
                if callback is None:  # cancelled: drop it, spend nothing
                    pop(heap)
                    self._cancelled -= 1
                    continue
                time = head[0]
                if time > until:
                    break
                # The budget is checked with a live head at or before
                # ``until`` in hand: that event stays queued, so the
                # clock must not move past it.
                if not limitless and dispatched >= max_events:
                    return self.now
                pop(heap)
                self.now = time
                head[2] = _fired
                self._pending -= 1
                self._events_dispatched += 1
                dispatched += 1
                callback(*head[3])
        finally:
            self._running = False
        if until is not math.inf and until > self.now:
            self.now = until
        return self.now

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1):
        maintained live on schedule/cancel/dispatch rather than by
        scanning the heap)."""
        return self._pending

    @property
    def events_dispatched(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_dispatched

    def __repr__(self) -> str:
        return (f"<Simulator now={self.now:.1f}us "
                f"pending={self.pending_events} seed={self.seed}>")
