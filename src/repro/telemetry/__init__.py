"""repro.telemetry — causal request tracing and the views over it.

The observability layer of the reproduction: request-scoped spans
propagated through every hop of the replication stack (client stub ->
interposer -> replicator -> GCS daemons -> servant and back), and the
views computed over them when asked: critical-path analysis that
re-derives the paper's Fig. 3 per-layer breakdown, latency quantiles,
and exporters (Chrome trace events, Prometheus text, CSV).

Telemetry is **off by default**: the simulator carries a dependency-
free no-op recorder (``repro.sim.kernel.NullTelemetry``) and every
instrumentation site guards on ``telemetry.enabled``.  Enable it via
``TelemetryConfig(enabled=True)`` in the substrate calibration; the
testbed then attaches a :class:`Telemetry` recorder.  Recording never
schedules events or adds simulated time, so simulation outcomes are
byte-identical with telemetry on or off.

Production modules import from the specific submodules
(``repro.telemetry.context`` etc.) to stay cycle-safe; this package
namespace is the convenience surface for tests, tools and the CLI.
"""

from repro.telemetry.analysis import (
    PathSegment,
    SpanStats,
    breakdown_table,
    completed_traces,
    component_breakdown,
    critical_path,
    exclusive_durations,
    style_aggregates,
    telemetry_summary,
    trace_component_us,
    validate_spans,
)
from repro.telemetry.context import CONTEXT_WIRE_BYTES, TraceContext
from repro.telemetry.export import (
    chrome_trace_json,
    parse_chrome_trace,
    parse_prometheus_text,
    prometheus_text,
    spans_to_csv,
    to_chrome_trace,
)
from repro.telemetry.spans import (
    ALL_COMPONENTS,
    COMPONENT_APPLICATION,
    COMPONENT_GCS,
    COMPONENT_NETWORK,
    COMPONENT_ORB,
    COMPONENT_REPLICATOR,
    KIND_CHARGED,
    KIND_MEASURED,
    KIND_TRANSIT,
    Span,
    Telemetry,
    spans_by_trace,
)

__all__ = [
    "ALL_COMPONENTS",
    "COMPONENT_APPLICATION",
    "COMPONENT_GCS",
    "COMPONENT_NETWORK",
    "COMPONENT_ORB",
    "COMPONENT_REPLICATOR",
    "CONTEXT_WIRE_BYTES",
    "KIND_CHARGED",
    "KIND_MEASURED",
    "KIND_TRANSIT",
    "PathSegment",
    "Span",
    "SpanStats",
    "Telemetry",
    "TraceContext",
    "breakdown_table",
    "chrome_trace_json",
    "completed_traces",
    "component_breakdown",
    "critical_path",
    "exclusive_durations",
    "parse_chrome_trace",
    "parse_prometheus_text",
    "prometheus_text",
    "spans_by_trace",
    "spans_to_csv",
    "style_aggregates",
    "telemetry_summary",
    "to_chrome_trace",
    "trace_component_us",
    "validate_spans",
]
