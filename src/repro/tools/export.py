"""Exporting measurement data for external plotting.

The paper's figures are plots over the Fig. 7 sweep; these helpers
serialize a :class:`Profile` (and scenario results) to CSV so any
plotting tool can regenerate them, or render a series as an ASCII
chart for the terminal.
"""

from __future__ import annotations

import csv
import io
from typing import Iterable, Optional, Sequence, TextIO, Tuple

from repro.core.measurements import Profile
from repro.core.policies import ScalabilityPolicy

PROFILE_COLUMNS = ("style", "n_replicas", "n_clients", "latency_us",
                   "jitter_us", "bandwidth_mbps", "throughput_per_s",
                   "faults_tolerated")


def profile_to_csv(profile: Profile, out: Optional[TextIO] = None) -> str:
    """Write the sweep as CSV; returns the text (also written to
    ``out`` when given)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(PROFILE_COLUMNS)
    for m in sorted(profile, key=lambda m: (m.config.style.value,
                                            m.config.n_replicas,
                                            m.n_clients)):
        writer.writerow([
            m.config.style.value, m.config.n_replicas, m.n_clients,
            f"{m.latency_us:.2f}", f"{m.jitter_us:.2f}",
            f"{m.bandwidth_mbps:.4f}", f"{m.throughput_per_s:.2f}",
            m.config.faults_tolerated])
    text = buffer.getvalue()
    if out is not None:
        out.write(text)
    return text


def policy_to_csv(policy: ScalabilityPolicy,
                  out: Optional[TextIO] = None) -> str:
    """Write a synthesized Table 2 as CSV."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(("n_clients", "config", "latency_us",
                     "bandwidth_mbps", "faults_tolerated", "cost"))
    for entry in policy.table():
        writer.writerow([
            entry.n_clients, entry.config.label,
            f"{entry.latency_us:.2f}", f"{entry.bandwidth_mbps:.4f}",
            entry.faults_tolerated, f"{entry.cost:.4f}"])
    text = buffer.getvalue()
    if out is not None:
        out.write(text)
    return text


SCORE_COLUMNS = ("config", "style", "n_replicas", "checkpoint_interval",
                 "n_trials", "dependability", "availability",
                 "failed_fraction", "late_fraction", "mean_recovery_us",
                 "latency_us", "bandwidth_mbps", "resource_cost")


def scores_to_csv(scores: Sequence, out: Optional[TextIO] = None) -> str:
    """Write campaign :class:`~repro.campaign.DependabilityScore` rows
    as CSV (best dependability first)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SCORE_COLUMNS)
    for s in sorted(scores, key=lambda s: -s.dependability):
        writer.writerow([
            s.config_key, s.style, s.n_replicas, s.checkpoint_interval,
            s.n_trials, f"{s.dependability:.6f}", f"{s.availability:.6f}",
            f"{s.failed_fraction:.6f}", f"{s.late_fraction:.6f}",
            f"{s.mean_recovery_us:.2f}", f"{s.latency_us:.2f}",
            f"{s.bandwidth_mbps:.4f}", f"{s.resource_cost:.4f}"])
    text = buffer.getvalue()
    if out is not None:
        out.write(text)
    return text


def render_series(series: Iterable[Tuple[float, float]],
                  width: int = 50, label: str = "value",
                  time_divisor: float = 1e6,
                  time_unit: str = "s") -> str:
    """Render an (time, value) series as a horizontal ASCII bar chart."""
    points = list(series)
    if not points:
        return "(empty series)"
    peak = max(value for _, value in points)
    scale = (width / peak) if peak > 0 else 0.0
    lines = [f"{label} (peak {peak:.1f})"]
    for time, value in points:
        bar = "#" * int(value * scale)
        lines.append(f"{time / time_divisor:9.2f}{time_unit} "
                     f"{value:10.1f} |{bar}")
    return "\n".join(lines)
