"""Per-link topology fault models: partitions and gray failures.

The global :mod:`repro.net.loss` models treat the LAN as one shared
medium — every frame rolls the same dice.  Real dependability work
needs the faults that *differ per link*: a switch splitting the
network into components, a one-way reachability failure, a single
flaky cable, or a host that is merely *slow* (the classic gray
failure: up, pingable, useless).  A :class:`LinkFilter` judges each
frame by its ``(src_host, dst_host)`` pair inside a bounded window;
filters compose with the global loss models and with each other.

Determinism: filters only consume simulator RNG when they actually
need randomness for a frame on a targeted link inside their window
(:class:`FlakyLink`), so installing a filter whose window never
overlaps traffic leaves the RNG stream — and therefore the journal —
byte-identical to a run without it.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Tuple

from repro.errors import ConfigurationError, Rule
from repro.net.loss import DELAY_RULES, RATE_RULES, check_window

#: The declared rules of the filters' own parameters (each filter's
#: window is checked by :func:`repro.net.loss.check_window`).
FLAKY_LINK_RULES = (Rule(("a", "b"), str), Rule(("symmetric",), bool),
                    *RATE_RULES)
SLOW_HOST_RULES = (Rule(("host",), str), *DELAY_RULES)
PARTITION_RULES = (Rule(("components",), tuple, ge=2),)
ASYMMETRIC_RULES = (Rule(("src_hosts", "dst_hosts"), frozenset, ge=1),)


class LinkFilter:
    """Base per-link filter: passes every frame untouched."""

    #: Inclusive start / exclusive end of the active window.
    start_us: float
    end_us: float

    def judge(self, src: str, dst: str, now: float,
              rng: random.Random) -> Tuple[bool, float]:
        """Return ``(dropped, extra_delay_us)`` for one frame."""
        return False, 0.0


class PartitionFilter(LinkFilter):
    """Symmetric network split: frames crossing component boundaries
    are dropped inside the window; the split heals at ``end_us``.

    ``components`` is a tuple of disjoint host-name sets covering the
    hosts the partition affects.  Hosts absent from every component
    are unaffected (they can still reach everyone) — the injector
    resolves the full component cover before installing the filter, so
    in practice every attached host belongs to exactly one component.
    """

    def __init__(self, components: Tuple[FrozenSet[str], ...],
                 start_us: float, end_us: float):
        self.components = components
        self.start_us = start_us
        self.end_us = end_us
        check_window(self, PARTITION_RULES)
        seen: set = set()
        for component in components:
            if not component:
                raise ConfigurationError("empty partition component")
            if seen & component:
                raise ConfigurationError(
                    "partition components must be disjoint")
            seen |= component
        self._side = {host: i for i, component in enumerate(components)
                      for host in component}

    def judge(self, src: str, dst: str, now: float,
              rng: random.Random) -> Tuple[bool, float]:
        """Drop frames between different components in the window."""
        if not self.start_us <= now < self.end_us:
            return False, 0.0
        side = self._side
        a = side.get(src)
        b = side.get(dst)
        return a is not None and b is not None and a != b, 0.0


class AsymmetricPartition(LinkFilter):
    """One-way reachability failure: ``src_hosts`` cannot reach
    ``dst_hosts`` inside the window, while the reverse direction (and
    every other pair) still works — the half-open links that make
    gray-failure diagnosis hard."""

    def __init__(self, src_hosts: FrozenSet[str],
                 dst_hosts: FrozenSet[str],
                 start_us: float, end_us: float):
        self.src_hosts = src_hosts
        self.dst_hosts = dst_hosts
        self.start_us = start_us
        self.end_us = end_us
        check_window(self, ASYMMETRIC_RULES)

    def judge(self, src: str, dst: str, now: float,
              rng: random.Random) -> Tuple[bool, float]:
        """Drop frames travelling src-side -> dst-side in the window."""
        if not self.start_us <= now < self.end_us:
            return False, 0.0
        return src in self.src_hosts and dst in self.dst_hosts, 0.0


class FlakyLink(LinkFilter):
    """Per-link Bernoulli loss: each frame on the ``a``/``b`` pair is
    dropped with probability ``rate`` inside the window.  Symmetric by
    default; pass ``symmetric=False`` for one direction (``a -> b``)
    only."""

    def __init__(self, a: str, b: str, rate: float,
                 start_us: float, end_us: float,
                 symmetric: bool = True):
        self.a = a
        self.b = b
        self.rate = rate
        self.start_us = start_us
        self.end_us = end_us
        self.symmetric = symmetric
        check_window(self, FLAKY_LINK_RULES)

    def judge(self, src: str, dst: str, now: float,
              rng: random.Random) -> Tuple[bool, float]:
        """Roll the dice only for frames on the targeted link."""
        if not self.start_us <= now < self.end_us:
            return False, 0.0
        on_link = (src == self.a and dst == self.b) or (
            self.symmetric and src == self.b and dst == self.a)
        if not on_link:
            return False, 0.0
        return rng.random() < self.rate, 0.0


class SlowHost(LinkFilter):
    """Gray failure: every frame into or out of ``host`` suffers
    ``extra_us`` of delay inside the window.  The host stays up and
    reachable — just late — which is exactly the fault class a binary
    crash detector mishandles."""

    def __init__(self, host: str, extra_us: float,
                 start_us: float, end_us: float):
        self.host = host
        self.extra_us = extra_us
        self.start_us = start_us
        self.end_us = end_us
        check_window(self, SLOW_HOST_RULES)

    def judge(self, src: str, dst: str, now: float,
              rng: random.Random) -> Tuple[bool, float]:
        """Delay all ingress and egress of the slow host."""
        if not self.start_us <= now < self.end_us:
            return False, 0.0
        if src == self.host or dst == self.host:
            return False, self.extra_us
        return False, 0.0
