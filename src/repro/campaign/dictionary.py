"""The fault-load dictionary: named, composable fault loads.

DAVOS-style: a campaign references fault loads *by name*; each name
maps to a tuple of :class:`FaultEntry` instances that compile
themselves into concrete :class:`FaultInjector` schedules against a
live trial (crash the primary 30 % into the window, drop frames for a
fifth of it, ...).  Entries parameterize by *fractions* of the trial
window, so one dictionary serves every workload duration.

Loads compose: a load is just a tuple of entries, and
:func:`register_load` admits project-specific combinations at runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.errors import ConfigurationError, Rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.experiments.run import ScenarioRun


#: The declared rule of every ``*_fraction`` field of an entry: a share
#: of the trial's load window, checked when the load is compiled.
FRACTION_RULE = Rule(("*_fraction",), float, ge=0, le=1)


@dataclass(frozen=True)
class FaultEntry:
    """One dictionary entry: knows how to schedule itself on a trial."""

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Compile this entry into injector calls against ``ctx``."""
        raise NotImplementedError

    def _replica(self, ctx: "ScenarioRun", index: int):
        """Target replica, clamped to the deployed group size."""
        return ctx.replicas[min(index, len(ctx.replicas) - 1)]


@dataclass(frozen=True)
class ProcessCrash(FaultEntry):
    """Software crash fault on one replica (default: the primary, so
    failover — not just redundancy — is what gets measured)."""

    at_fraction: float = 0.3
    replica_index: int = 0

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Kill the target replica's process mid-window."""
        ctx.injector.crash_process_at(
            self._replica(ctx, self.replica_index).process,
            ctx.t0 + self.at_fraction * ctx.duration_us)


@dataclass(frozen=True)
class HostCrash(FaultEntry):
    """Hardware crash fault: the whole machine under a replica dies
    (default: the last replica's host, which never carries the GCS
    sequencer)."""

    at_fraction: float = 0.3
    replica_index: int = -1

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Crash the target replica's whole host mid-window."""
        index = (len(ctx.replicas) - 1 if self.replica_index < 0
                 else self.replica_index)
        ctx.injector.crash_host_at(
            self._replica(ctx, index).process.host,
            ctx.t0 + self.at_fraction * ctx.duration_us)


@dataclass(frozen=True)
class CrashAndRestart(FaultEntry):
    """Recovery fault: crash a replica, then redeploy it on the same
    host after a delay — the fault the re-integration path (state
    sync for a joining member) is measured by."""

    at_fraction: float = 0.3
    restart_after_fraction: float = 0.2
    replica_index: int = 0

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Crash the replica, then respawn it after the delay."""
        index = min(self.replica_index, len(ctx.replicas) - 1)
        ctx.injector.crash_and_restart_at(
            ctx.replicas[index].process,
            ctx.t0 + self.at_fraction * ctx.duration_us,
            max(self.restart_after_fraction * ctx.duration_us, 1.0),
            restart=lambda: ctx.respawn_replica(index))


@dataclass(frozen=True)
class LossBurst(FaultEntry):
    """Transient communication fault: a frame-loss window."""

    start_fraction: float = 0.3
    duration_fraction: float = 0.2
    rate: float = 1.0

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Drop frames at ``rate`` for the configured window."""
        start = ctx.t0 + self.start_fraction * ctx.duration_us
        ctx.injector.loss_burst(
            start, start + max(self.duration_fraction * ctx.duration_us,
                               1.0),
            rate=self.rate)


@dataclass(frozen=True)
class DelaySpike(FaultEntry):
    """Timing fault: messages arrive, but late."""

    start_fraction: float = 0.3
    duration_fraction: float = 0.2
    extra_us: float = 5_000.0

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Add ``extra_us`` to every frame in the window."""
        start = ctx.t0 + self.start_fraction * ctx.duration_us
        ctx.injector.delay_spike(
            start, start + max(self.duration_fraction * ctx.duration_us,
                               1.0),
            extra_us=self.extra_us)


@dataclass(frozen=True)
class CpuHog(FaultEntry):
    """Performance fault: a runaway co-located task steals the CPU
    under one replica."""

    at_fraction: float = 0.3
    busy_us: float = 50_000.0
    replica_index: int = 0

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Steal the target replica's CPU for ``busy_us``."""
        ctx.injector.cpu_hog_at(
            self._replica(ctx, self.replica_index).process.host,
            ctx.t0 + self.at_fraction * ctx.duration_us,
            busy_us=self.busy_us)


@dataclass(frozen=True)
class Partition(FaultEntry):
    """Topology fault: a symmetric network split that isolates one
    replica's host (default: the last replica, which never carries
    the GCS sequencer) from everyone else, healing mid-window."""

    start_fraction: float = 0.3
    duration_fraction: float = 0.3
    replica_index: int = -1

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Cut the target replica's host off, then heal."""
        index = (len(ctx.replicas) - 1 if self.replica_index < 0
                 else min(self.replica_index, len(ctx.replicas) - 1))
        start = ctx.t0 + self.start_fraction * ctx.duration_us
        ctx.injector.partition_at(
            [[ctx.replicas[index].process.host.name]],
            start,
            start + max(self.duration_fraction * ctx.duration_us, 1.0))


@dataclass(frozen=True)
class AsymPartition(FaultEntry):
    """Topology fault: one-way reachability loss — frames *from* the
    target replica's host are dropped while frames *to* it still
    arrive, the classic gray-failure shape a symmetric-split model
    cannot express."""

    start_fraction: float = 0.3
    duration_fraction: float = 0.3
    replica_index: int = -1

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Drop the target host's outbound frames for the window."""
        index = (len(ctx.replicas) - 1 if self.replica_index < 0
                 else min(self.replica_index, len(ctx.replicas) - 1))
        src = ctx.replicas[index].process.host.name
        dst = sorted(h for h in ctx.testbed.network.hosts if h != src)
        start = ctx.t0 + self.start_fraction * ctx.duration_us
        ctx.injector.asymmetric_partition_at(
            [src], dst, start,
            start + max(self.duration_fraction * ctx.duration_us, 1.0))


@dataclass(frozen=True)
class FlakyLinkFault(FaultEntry):
    """Gray failure: Bernoulli frame loss on the single link pair
    between two replicas' hosts — every other link stays clean, so
    only path-sensitive detection notices."""

    start_fraction: float = 0.3
    duration_fraction: float = 0.3
    rate: float = 0.5
    replica_a: int = 0
    replica_b: int = -1

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Make the one link between the two replicas lossy."""
        last = len(ctx.replicas) - 1
        a = ctx.replicas[min(self.replica_a, last)].process.host.name
        b_index = last if self.replica_b < 0 else min(self.replica_b,
                                                      last)
        b = ctx.replicas[b_index].process.host.name
        start = ctx.t0 + self.start_fraction * ctx.duration_us
        ctx.injector.flaky_link(
            a, b, self.rate, start,
            start + max(self.duration_fraction * ctx.duration_us, 1.0))


@dataclass(frozen=True)
class SlowHostFault(FaultEntry):
    """Gray failure: every frame into or out of one replica's host is
    late by ``extra_us`` — the host is up but slow, the fault class a
    binary up/down detector mishandles."""

    start_fraction: float = 0.3
    duration_fraction: float = 0.3
    extra_us: float = 20_000.0
    replica_index: int = -1

    def schedule(self, ctx: "ScenarioRun") -> None:
        """Slow the target replica's host for the window."""
        index = (len(ctx.replicas) - 1 if self.replica_index < 0
                 else min(self.replica_index, len(ctx.replicas) - 1))
        start = ctx.t0 + self.start_fraction * ctx.duration_us
        ctx.injector.slow_host(
            ctx.replicas[index].process.host, self.extra_us, start,
            start + max(self.duration_fraction * ctx.duration_us, 1.0))


FaultLoad = Tuple[FaultEntry, ...]

#: The built-in dictionary: every fault class of the paper's fault
#: model (Section 3.1) plus the recovery fault and two compositions.
_LOADS: Dict[str, FaultLoad] = {
    "none": (),
    "process_crash": (ProcessCrash(),),
    "host_crash": (HostCrash(),),
    "crash_and_restart": (CrashAndRestart(),),
    "loss_burst": (LossBurst(),),
    "delay_spike": (DelaySpike(),),
    "cpu_hog": (CpuHog(),),
    "partition": (Partition(),),
    "asym_partition": (AsymPartition(),),
    "flaky_link": (FlakyLinkFault(),),
    "slow_host": (SlowHostFault(),),
    "crash_under_loss": (ProcessCrash(at_fraction=0.5),
                         LossBurst(start_fraction=0.2,
                                   duration_fraction=0.2, rate=0.5)),
    "double_crash": (ProcessCrash(at_fraction=0.3, replica_index=0),
                     ProcessCrash(at_fraction=0.6, replica_index=1)),
    "partition_under_load": (Partition(start_fraction=0.2,
                                       duration_fraction=0.4),
                             SlowHostFault(start_fraction=0.7,
                                           duration_fraction=0.2,
                                           replica_index=0)),
}


def available_loads() -> List[str]:
    """Registered fault-load names, sorted."""
    return sorted(_LOADS)


def fault_load(name: str) -> FaultLoad:
    """Look a load up by name."""
    try:
        return _LOADS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault load {name!r}; "
            f"known: {', '.join(available_loads())}") from None


def register_load(name: str, entries: FaultLoad,
                  replace: bool = False) -> None:
    """Add a (possibly composite) load to the dictionary."""
    if not name:
        raise ConfigurationError("a fault load needs a name")
    if name in _LOADS and not replace:
        raise ConfigurationError(f"fault load {name!r} already registered")
    _LOADS[name] = tuple(entries)


def compile_load(name: str, ctx: "ScenarioRun") -> int:
    """Schedule every entry of the named load; returns how many."""
    entries = fault_load(name)
    for entry in entries:
        for field, value in vars(entry).items():
            if field.endswith("_fraction"):
                FRACTION_RULE.check(field, value)
        entry.schedule(ctx)
    return len(entries)
