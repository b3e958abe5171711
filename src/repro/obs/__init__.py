"""repro.obs: the unified telemetry subsystem.

Small, dependency-free pieces:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges, and histograms with label sets, rendered in
  Prometheus text format (``GET /metrics`` on both HTTP endpoints) and
  as plain-dict snapshots (the ``stats`` RPC op, benchmark dumps);
* :mod:`repro.obs.trace` — a span :class:`Tracer` whose context
  propagates hub admission → server op → lock wait → chunk I/O, so one
  push yields one correlated trace exportable as JSON events, with
  head-based sampling decided deterministically from the trace id;
* :mod:`repro.obs.propagation` — the wire bridge: clients stamp the
  current span into the request envelope (``trace_ctx``), servers adopt
  it, so one trace spans processes;
* :mod:`repro.obs.export` — a bounded background exporter flushing
  finished spans as JSON lines to a file or HTTP collector, honoring
  the sampling decision plus always-on-error / always-on-slow;
* :mod:`repro.obs.profiler` — a wall-clock sampling profiler
  (``sys._current_frames()``, folded-stack output) plus one-shot
  thread-stack snapshots;
* :mod:`repro.obs.slowops` — per-op slow-request capture (span tree +
  live thread stacks when an op blows its latency budget);
* :mod:`repro.obs.critical_path` — trace-tree reconstruction and
  longest-blocking-chain analysis with executed-vs-reused attribution;
* :mod:`repro.obs.events` — structured one-line JSON log events
  (startup readiness, transport reconnect warnings);
* :mod:`repro.obs.slo` / :mod:`repro.obs.health` — the self-aware
  serving pair: declarative per-op latency objectives with error-budget
  burn windows, and the sliding-window :class:`HealthMonitor` that
  derives per-op percentiles, error rate, denial mix, and queue/lock
  pressure from the registry and tracer — feeding ``/healthz`` /
  ``/readyz``, the ``health`` RPC op, and the hub's overload shedding.

Both metrics and tracing follow the same null-default discipline:
library code resolves its sink via ``default_registry()`` /
``default_tracer()``, which return shared no-op singletons unless the
process :func:`installed <repro.obs.metrics.install>` real ones — so an
uninstrumented run pays near-zero overhead, and nothing anywhere needs
an ``if registry is not None`` guard.
"""

from .critical_path import build_trace_tree, critical_path, render_critical_path
from .events import emit
from .export import ExportPolicy, FileSpanSink, HttpSpanSink, SpanExporter, sink_for
from .health import HealthMonitor
from .metrics import (
    NULL_REGISTRY,
    MetricsRegistry,
    default_registry,
)
from .profiler import SamplingProfiler, snapshot_stacks
from .propagation import (
    TRACE_CTX_KEY,
    RemoteSpanContext,
    adopt_remote_context,
    current_trace_context,
    inject,
    parse_trace_context,
)
from .slo import SLOConfig, SLObjective
from .slowops import SlowOpCapture
from .trace import NULL_TRACER, Span, Tracer, default_tracer

__all__ = [
    "ExportPolicy",
    "FileSpanSink",
    "HealthMonitor",
    "HttpSpanSink",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "RemoteSpanContext",
    "SLOConfig",
    "SLObjective",
    "SamplingProfiler",
    "SlowOpCapture",
    "Span",
    "SpanExporter",
    "TRACE_CTX_KEY",
    "Tracer",
    "adopt_remote_context",
    "build_trace_tree",
    "critical_path",
    "current_trace_context",
    "default_registry",
    "default_tracer",
    "emit",
    "inject",
    "parse_trace_context",
    "render_critical_path",
    "sink_for",
    "snapshot_stacks",
]
