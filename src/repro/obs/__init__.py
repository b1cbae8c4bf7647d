"""Unified observability: metrics registry, trace spans, exposition.

The package's one telemetry layer.  Hot paths record counters, gauges,
histograms and spans into the process-global registry (or an injected
one); the serving layer renders it at ``GET /metrics`` (Prometheus text
format), the CLI dumps it via ``repro metrics``, and the experiment
driver attaches per-stage span trees to its reports.  Serving worker
processes ship picklable snapshot deltas back with their results and
the parent merges them, so fleet counts land in one place.

stdlib-only and imported by every other subsystem — nothing here may
import from the rest of the package.  See ``docs/observability.md``
for the metric naming scheme and span semantics.
"""

from .metrics import (
    BATCH_SIZE_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    MAX_SPANS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from .tracing import current_span_id, span, span_tree
from .exposition import (
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus,
    registry_to_dict,
    render_prometheus,
)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "MAX_SPANS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    "current_span_id",
    "get_registry",
    "parse_prometheus",
    "registry_to_dict",
    "render_prometheus",
    "set_registry",
    "span",
    "span_tree",
    "use_registry",
]
