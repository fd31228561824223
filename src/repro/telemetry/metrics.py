"""Metrics registry: counters, gauges, and mergeable histograms.

Subsystems register named instruments once and update them on their
hot paths; the registry is the single export surface (Prometheus
text, per-trial summaries) and feeds quantiles into the monitoring
snapshots that drive adaptation.

Histograms use *fixed* bucket bounds so two histograms with the same
bounds merge by adding counts — the property that lets a campaign
aggregate per-trial state without keeping raw samples (the same trick
Prometheus client libraries use).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

#: Default latency bucket upper bounds in µs: geometric, spanning the
#: paper's 100 µs..7 ms operating range with headroom for outages.
DEFAULT_LATENCY_BUCKETS_US = (
    50.0, 100.0, 200.0, 400.0, 800.0, 1_600.0, 3_200.0, 6_400.0,
    12_800.0, 25_600.0, 51_200.0, 102_400.0, 409_600.0, 1_638_400.0,
)

#: Default byte-size bucket bounds (checkpoints, payloads).
DEFAULT_BYTES_BUCKETS = (
    64.0, 256.0, 1_024.0, 4_096.0, 16_384.0, 65_536.0, 262_144.0,
    1_048_576.0,
)

LabelItems = Tuple[Tuple[str, str], ...]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (>= 0) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Point-in-time value (queue depths, sizes)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Raise the gauge by ``amount``."""
        self.value += amount

class Histogram:
    """Fixed-bucket histogram with mergeable state.

    ``bounds`` are inclusive upper bounds; an implicit +Inf bucket
    catches overflow.  ``quantile`` interpolates linearly inside the
    selected bucket (the usual Prometheus ``histogram_quantile``
    estimate), clamping the overflow bucket to its lower bound.
    """

    __slots__ = ("bounds", "counts", "count", "sum")
    kind = "histogram"

    def __init__(self, bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US):
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError("histogram bounds must be sorted ascending")
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample into its bucket (overflow past the bounds).

        The bucket is the first bound ``>= value``; NaN is never
        ``<=`` a bound, so it goes to the overflow bucket.
        """
        bounds = self.bounds
        if value == value:
            self.counts[bisect_left(bounds, value)] += 1
        else:
            self.counts[len(bounds)] += 1
        self.count += 1
        self.sum += value

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s state into this histogram (same bounds).

        Merging an *empty* histogram is a no-op regardless of bounds —
        an unpopulated instrument carries no information, so it cannot
        conflict.  Symmetrically, an empty histogram adopts the bounds
        of the first populated one merged into it.
        """
        if other.count == 0:
            return
        if other.bounds != self.bounds:
            if self.count == 0:
                self.bounds = other.bounds
                self.counts = [0] * (len(other.bounds) + 1)
            else:
                raise ValueError("cannot merge histograms with different "
                                 f"bounds: {self.bounds} vs {other.bounds}")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.count += other.count
        self.sum += other.sum

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated q-quantile (0 <= q <= 1); 0.0 when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1]: {q}")
        if self.count == 0:
            return 0.0
        if self.count == 1:
            # One sample: every quantile is that sample, and ``sum``
            # still holds its exact value — no need to interpolate a
            # bucket midpoint out of it.  Overflow keeps the usual
            # clamp to the last bound.
            return min(self.sum, self.bounds[-1])
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            if cumulative + n >= rank:
                if i == len(self.bounds):
                    return self.bounds[-1]  # overflow: clamp
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i]
                within = (rank - cumulative) / n
                return lower + (upper - lower) * within
            cumulative += n
        return self.bounds[-1]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready state (mergeable: counts + bounds + sum)."""
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "count": self.count, "sum": self.sum}


class MetricsRegistry:
    """Named instrument store with label support.

    ``counter("x_total", replica="s01")`` is get-or-create: the first
    call registers, later calls with the same name+labels return the
    same instrument (so instrumented code never needs an init order).
    Re-registering a name as a different kind is an error.
    """

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}
        self._kinds: Dict[str, str] = {}
        #: ``(name, kind, *labels.items())`` as called -> instrument:
        #: repeat lookups skip validation and the sorted label key.
        self._resolved: Dict[tuple, object] = {}

    def _get(self, name: str, kind: str, factory, labels: Dict[str, str]):
        call = (name, kind, *labels.items())
        metric = self._resolved.get(call)
        if metric is None:
            metric = self._register(name, kind, factory, labels)
            self._resolved[call] = metric
        return metric

    def _register(self, name: str, kind: str, factory,
                  labels: Dict[str, str]):
        if not name or not name.replace("_", "a").isidentifier():
            raise ValueError(f"bad metric name: {name!r}")
        known = self._kinds.get(name)
        if known is not None and known != kind:
            raise ValueError(f"metric {name!r} already registered "
                             f"as {known}, not {kind}")
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        metric = self._metrics.get(key)
        if metric is None:
            metric = factory()
            self._metrics[key] = metric
            self._kinds[name] = kind
        return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get(name, "counter", Counter, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get(name, "gauge", Gauge, labels)

    def histogram(self, name: str,
                  bounds: Iterable[float] = DEFAULT_LATENCY_BUCKETS_US,
                  **labels: str) -> Histogram:
        """Get or create the histogram ``name``; ``bounds`` only bind
        on creation (later calls must not disagree on kind)."""
        return self._get(name, "histogram",
                         lambda: Histogram(bounds), labels)

    def items(self) -> Iterator[Tuple[str, Dict[str, str], object]]:
        """Iterate ``(name, labels, metric)`` sorted by name+labels."""
        for (name, labels) in sorted(self._metrics):
            yield name, dict(labels), self._metrics[(name, labels)]

    def find(self, name: str) -> List[Tuple[Dict[str, str], object]]:
        """All label-sets registered under ``name``."""
        return [(dict(labels), metric)
                for (n, labels), metric in sorted(self._metrics.items())
                if n == name]

    def merged_histogram(self, name: str,
                         **labels: str) -> Optional[Histogram]:
        """Merge every label-set of histogram ``name`` into one view
        (e.g. the group-wide latency distribution); None if absent.

        ``labels`` restricts the merge to label-sets that carry all the
        given items — ``merged_histogram("request_latency_us",
        shard="shard0")`` is one shard's latency distribution.
        """
        want = {(k, str(v)) for k, v in labels.items()}
        merged: Optional[Histogram] = None
        matched = False
        for label_set, metric in self.find(name):
            if not isinstance(metric, Histogram):
                return None
            if want and not want <= set(label_set.items()):
                continue
            matched = True
            if merged is None:
                merged = Histogram(metric.bounds)
            merged.merge(metric)
        return merged if matched else None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready dump of every instrument (for trial summaries)."""
        out: Dict[str, object] = {}
        for name, labels, metric in self.items():
            key = name
            if labels:
                rendered = ",".join(f"{k}={v}"
                                    for k, v in sorted(labels.items()))
                key = f"{name}{{{rendered}}}"
            if isinstance(metric, Histogram):
                out[key] = metric.to_dict()
            else:
                out[key] = metric.value  # type: ignore[union-attr]
        return out

    def __len__(self) -> int:
        return len(self._metrics)
