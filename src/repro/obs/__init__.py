"""repro.obs — deterministic metrics & timeline observability.

Two halves, both keyed to *simulated* time and both pure observers
(they never create simulation events, so enabling them cannot change
simulated time or figure output):

* :mod:`repro.obs.registry` — a hierarchical metrics registry
  (counters, gauges, fixed-bucket histograms with label sets) that is
  zero-cost when disabled and snapshots to stable sorted JSON;
* :mod:`repro.obs.timeline` — span/instant tracing exported as Chrome
  trace events (Perfetto-loadable), with a bridge that turns existing
  :class:`repro.sim.trace.Tracer` records into timeline instants.

Typical component instrumentation::

    from .. import obs

    class Thing:
        def __init__(self, node_id):
            self._m_ops = obs.counter("thing.ops", node=node_id)

        def op(self):
            self._m_ops.inc()
            span = obs.span_begin(self.env, "thing", "op", pid=self.node_id)
            ...
            obs.span_end(self.env, span)

Benchmark entry points install a registry/timeline
(``python -m repro.bench all --metrics out.json --timeline out.trace.json``),
run, and write the snapshots; with nothing installed every helper
degrades to an unregistered accumulator or a no-op.
"""

from .registry import (
    LATENCY_BUCKETS_NS,
    NULL_HISTOGRAM,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObsError,
    active_registry,
    counter,
    gauge,
    histogram,
    install_registry,
    installed_registry,
    metric_key,
    metrics_enabled,
    register_collector,
    snapshot_quantile,
    snapshot_to_json,
    uninstall_registry,
)
from .timeline import (
    Span,
    Timeline,
    TimelineError,
    active_timeline,
    install_timeline,
    instant,
    span_begin,
    span_end,
    timeline_enabled,
    uninstall_timeline,
    validate_chrome_trace,
)

__all__ = [
    "LATENCY_BUCKETS_NS",
    "NULL_HISTOGRAM",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsError",
    "Span",
    "Timeline",
    "TimelineError",
    "active_registry",
    "active_timeline",
    "counter",
    "gauge",
    "histogram",
    "install_registry",
    "install_timeline",
    "installed_registry",
    "instant",
    "metric_key",
    "metrics_enabled",
    "register_collector",
    "snapshot_quantile",
    "snapshot_to_json",
    "span_begin",
    "span_end",
    "timeline_enabled",
    "uninstall_registry",
    "uninstall_timeline",
    "validate_chrome_trace",
]
