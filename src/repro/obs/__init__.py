"""Structured observability: span tracing and a mergeable metrics registry.

Two complementary views of one simulated run:

- :class:`Tracer` (``tracer.py``) attributes every simulated nanosecond
  and persist event to a tree of named spans (hash → level-1 probe →
  group overflow probe → bitmap commit → undo-log write), exportable as
  an aggregate attribution table or a Chrome ``trace_event`` file;
- :class:`MetricsRegistry` (``metrics.py``) counts structural facts —
  probe-length histograms, per-group heat, WAL/rollback counters —
  in plain Python, mergeable across engine worker processes;
- :class:`WindowSeries` / :class:`WindowSampler` (``timeseries.py``)
  slice those facts into fixed-width simulated-time windows — the
  behavior-over-time view (`python -m repro.bench timeline`);
- :class:`FlightRecorder` (``recorder.py``) keeps a bounded ring of
  recent ops + persist events so oracle failures ship their
  last-N-ops context;
- :class:`SloRule` / :func:`evaluate` (``health.py``) turn a series
  into a declarative pass/warn/fail health report.

All of it is strictly observational: with sinks disabled the
simulation is byte-identical, and even enabled they issue zero extra
region events.
"""

from repro.obs.health import (
    STATUSES,
    HealthCheck,
    HealthReport,
    SloRule,
    evaluate,
)
from repro.obs.metrics import (
    N_BUCKETS,
    Counter,
    Gauge,
    Heat,
    Histogram,
    LatencyRecorder,
    MetricsRegistry,
    bucket_index,
    bucket_label,
    merge_metric_dicts,
)
from repro.obs.recorder import FlightRecorder
from repro.obs.timeseries import (
    SURROGATE_EVENT_NS,
    WindowSampler,
    WindowSeries,
)
from repro.obs.tracer import Tracer

__all__ = [
    "N_BUCKETS",
    "STATUSES",
    "SURROGATE_EVENT_NS",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Heat",
    "HealthCheck",
    "HealthReport",
    "Histogram",
    "LatencyRecorder",
    "MetricsRegistry",
    "SloRule",
    "Tracer",
    "WindowSampler",
    "WindowSeries",
    "bucket_index",
    "bucket_label",
    "evaluate",
    "merge_metric_dicts",
]
