"""Fault injection.

The assumed fault model (Section 3.1): "hardware and software crash
faults, transient communication faults, performance and timing
faults".  A :class:`FaultInjector` schedules any mix of those against
a running testbed; every injected fault is recorded for the
experiment report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.loss import BurstLoss, DelaySpike
from repro.net.network import Network
from repro.net.topology import (
    AsymmetricPartition,
    FlakyLink,
    LinkFilter,
    PartitionFilter,
    SlowHost,
)
from repro.sim.host import Host, Process
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class InjectedFault:
    """Record of one injected fault."""

    kind: str
    target: str
    at_us: float
    until_us: Optional[float] = None


class FaultInjector:
    """Schedules crash/communication/timing faults on a testbed."""

    def __init__(self, sim: Simulator, network: Network):
        self.sim = sim
        self.network = network
        self.injected: List[InjectedFault] = []

    def _record(self, fault: InjectedFault, host: str, **attrs) -> None:
        """Book-keep one injection; also journal it as ground truth
        for the detection cross-check (no-op when the journal is off).
        Extra ``attrs`` ride along on the journal event — the topology
        faults record their resolved component cover this way so the
        split-brain checker has machine-readable ground truth."""
        self.injected.append(fault)
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, host, "injector", "fault.inject",
                           fault=fault.kind, target=fault.target,
                           at_us=fault.at_us, until_us=fault.until_us,
                           **attrs)

    # ------------------------------------------------------------------
    # Crash faults
    # ------------------------------------------------------------------
    def crash_process_at(self, process: Process, at_us: float) -> None:
        """Software crash fault: kill one process at an absolute time."""
        self._check_future(at_us)
        self.sim.schedule_at(at_us, process.kill)
        self._record(InjectedFault(
            kind="process_crash", target=process.name, at_us=at_us),
            host=process.host.name)

    def crash_host_at(self, host: Host, at_us: float) -> None:
        """Hardware crash fault: kill a whole host at an absolute time."""
        self._check_future(at_us)
        self.sim.schedule_at(at_us, host.crash)
        self._record(InjectedFault(
            kind="host_crash", target=host.name, at_us=at_us),
            host=host.name)

    def crash_and_restart_at(self, process: Process, at_us: float,
                             restart_after_us: float,
                             restart: Optional[Callable[[], None]] = None
                             ) -> None:
        """Recovery fault: kill ``process`` at ``at_us`` and bring the
        service back ``restart_after_us`` later.

        The simulated process cannot literally be revived (its
        middleware stack died with it), so recovery is delegated to
        ``restart`` — typically a closure that redeploys the replica on
        the same host (see ``ScenarioRun.respawn_replica``).  The
        restart is skipped when the host itself is down at restart
        time; crash-only semantics then apply.
        """
        self._check_future(at_us)
        if restart_after_us <= 0:
            raise ConfigurationError("restart delay must be positive")
        self.sim.schedule_at(at_us, process.kill)

        def do_restart() -> None:
            if process.host.alive and restart is not None:
                restart()
                return
            if not process.host.alive:
                # The ground-truth fault.inject event promised recovery
                # at until_us; it never happened.  Record the skip so
                # availability accounting can fall back to crash-only
                # semantics instead of under-billing MTTR.
                journal = self.sim.journal
                if journal.enabled:
                    journal.record(
                        self.sim.now, process.host.name, "injector",
                        "fault.restart_skipped", target=process.name,
                        at_us=at_us, until_us=at_us + restart_after_us)

        self.sim.schedule_at(at_us + restart_after_us, do_restart)
        self._record(InjectedFault(
            kind="crash_restart", target=process.name, at_us=at_us,
            until_us=at_us + restart_after_us), host=process.host.name)

    # ------------------------------------------------------------------
    # Communication faults
    # ------------------------------------------------------------------
    def loss_burst(self, start_us: float, end_us: float,
                   rate: float = 1.0) -> BurstLoss:
        """Transient communication fault: drop frames in a window."""
        self._check_future(start_us)
        self._check_window(start_us, end_us)
        model = BurstLoss(start_us, end_us, rate)
        self.network.add_loss_model(model)
        self._record(InjectedFault(
            kind="loss_burst", target=f"rate={rate}", at_us=start_us,
            until_us=end_us), host="net")
        return model

    # ------------------------------------------------------------------
    # Topology faults: partitions and gray failures
    # ------------------------------------------------------------------
    def _install_filter(self, filt: LinkFilter, end_us: float) -> None:
        """Install a topology filter and schedule its removal at heal
        time, so a healed network pays nothing per frame."""
        self.network.add_link_filter(filt)
        self.sim.schedule_at(
            end_us, self.network.remove_link_filter, filt)

    def _check_hosts(self, names: Iterable[str]) -> Tuple[str, ...]:
        ordered = tuple(sorted(names))
        for name in ordered:
            if name not in self.network.hosts:
                raise ConfigurationError(
                    f"unknown host in topology fault: {name}")
        return ordered

    def partition_at(self, components: Iterable[Iterable[str]],
                     start_us: float, end_us: float) -> PartitionFilter:
        """Symmetric network split: hosts in different components
        cannot exchange frames in ``[start_us, end_us)``; the split
        heals at ``end_us``.

        ``components`` lists disjoint host-name groups.  Attached
        hosts named in no group form one implicit remainder component,
        so ``partition_at([["s03"]], t0, t1)`` isolates ``s03`` from
        everyone else.  The journal ground truth records the *resolved*
        cover, which is what the split-brain invariant checks against.
        """
        self._check_future(start_us)
        self._check_window(start_us, end_us)
        resolved = [frozenset(self._check_hosts(c))
                    for c in components if tuple(c)]
        named = set().union(*resolved) if resolved else set()
        remainder = frozenset(h for h in self.network.hosts
                              if h not in named)
        if remainder:
            resolved.append(remainder)
        if len(resolved) < 2:
            raise ConfigurationError(
                "a partition needs at least two components")
        cover = tuple(sorted(resolved, key=sorted))
        filt = PartitionFilter(cover, start_us, end_us)
        self._install_filter(filt, end_us)
        label = "|".join("+".join(sorted(c)) for c in cover)
        self._record(InjectedFault(
            kind="partition", target=label, at_us=start_us,
            until_us=end_us), host="net",
            components=[sorted(c) for c in cover])
        return filt

    def asymmetric_partition_at(self, src_hosts: Iterable[str],
                                dst_hosts: Iterable[str],
                                start_us: float,
                                end_us: float) -> AsymmetricPartition:
        """One-way reachability failure: frames from ``src_hosts`` to
        ``dst_hosts`` are dropped in the window; the reverse direction
        still works."""
        self._check_future(start_us)
        self._check_window(start_us, end_us)
        src = self._check_hosts(src_hosts)
        dst = self._check_hosts(dst_hosts)
        filt = AsymmetricPartition(frozenset(src), frozenset(dst),
                                   start_us, end_us)
        self._install_filter(filt, end_us)
        self._record(InjectedFault(
            kind="asym_partition",
            target=f"{'+'.join(src)}->{'+'.join(dst)}",
            at_us=start_us, until_us=end_us), host="net",
            src_hosts=list(src), dst_hosts=list(dst))
        return filt

    def flaky_link(self, a: str, b: str, rate: float,
                   start_us: float, end_us: float,
                   symmetric: bool = True) -> FlakyLink:
        """Per-link Bernoulli loss on the ``a``/``b`` host pair."""
        self._check_future(start_us)
        self._check_window(start_us, end_us)
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError(
                f"loss rate must be in [0, 1], got {rate}")
        self._check_hosts((a, b))
        filt = FlakyLink(a, b, rate, start_us, end_us,
                         symmetric=symmetric)
        self._install_filter(filt, end_us)
        arrow = "<->" if symmetric else "->"
        self._record(InjectedFault(
            kind="flaky_link", target=f"{a}{arrow}{b}",
            at_us=start_us, until_us=end_us), host="net",
            rate=rate, symmetric=symmetric)
        return filt

    def slow_host(self, host: Host, extra_us: float,
                  start_us: float, end_us: float) -> SlowHost:
        """Gray failure: every frame into or out of ``host`` is
        delayed by ``extra_us`` in the window — the host is up but
        late, the fault class a binary up/down detector mishandles."""
        self._check_future(start_us)
        self._check_window(start_us, end_us)
        if extra_us < 0:
            raise ConfigurationError("extra delay must be non-negative")
        self._check_hosts((host.name,))
        filt = SlowHost(host.name, extra_us, start_us, end_us)
        self._install_filter(filt, end_us)
        self._record(InjectedFault(
            kind="slow_host", target=host.name, at_us=start_us,
            until_us=end_us), host=host.name, extra_us=extra_us)
        return filt

    # ------------------------------------------------------------------
    # Performance / timing faults
    # ------------------------------------------------------------------
    def delay_spike(self, start_us: float, end_us: float,
                    extra_us: float) -> DelaySpike:
        """Timing fault: messages arrive, but late."""
        self._check_future(start_us)
        self._check_window(start_us, end_us)
        model = DelaySpike(start_us, end_us, extra_us)
        self.network.add_loss_model(model)
        self._record(InjectedFault(
            kind="delay_spike", target=f"extra={extra_us}us",
            at_us=start_us, until_us=end_us), host="net")
        return model

    def cpu_hog_at(self, host: Host, at_us: float,
                   busy_us: float) -> None:
        """Performance fault: steal the CPU for ``busy_us`` (models a
        runaway co-located task)."""
        self._check_future(at_us)
        if busy_us <= 0:
            raise ConfigurationError("busy time must be positive")

        def hog() -> None:
            if host.alive:
                host.cpu.execute(busy_us, lambda: None)

        self.sim.schedule_at(at_us, hog)
        self._record(InjectedFault(
            kind="cpu_hog", target=host.name, at_us=at_us,
            until_us=at_us + busy_us), host=host.name)

    def _check_future(self, at_us: float) -> None:
        if at_us < self.sim.now:
            raise ConfigurationError(
                f"cannot inject a fault in the past (t={at_us}, "
                f"now={self.sim.now})")

    @staticmethod
    def _check_window(start_us: float, end_us: float) -> None:
        if end_us <= start_us:
            raise ConfigurationError(
                f"fault window must end after it starts "
                f"(start={start_us}, end={end_us})")
