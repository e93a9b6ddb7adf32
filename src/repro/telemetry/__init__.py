"""``repro.telemetry`` — opt-in tracing and metrics for the study stack.

Five small, zero-dependency pieces:

* :class:`Tracer` — structured span/event records (monotonic
  timestamps, study/run/wave/config ids, buffered writes) onto a JSONL
  sink, under the documented, versioned schema of
  :mod:`repro.telemetry.schema`; :meth:`Tracer.bind` stamps service
  job/tenant ids so server records join study records;
* :class:`MetricsCollector` — disjoint phase timers (compile,
  schedule, regalloc, timing-validate, simulate, netlist-stats,
  test-cost, energy), integer counters and per-point latency
  :class:`Histogram` s, with picklable snapshots so process-pool
  workers report their share for merging on wave completion;
* :class:`Histogram` — fixed-bucket, mergeable latency distributions
  with estimated p50/p90/p99;
* :class:`LiveRegistry` — the long-lived, thread-safe counters/gauges/
  histograms the study server exposes over its ``metrics`` op and the
  Prometheus ``/metrics`` listener (:class:`MetricsExporter`,
  :func:`render_prometheus`);
* :func:`summarize_trace` / :func:`format_trace_summary` — offline
  analysis of a recorded run (the ``python -m repro trace summarize``
  subcommand).

Telemetry is strictly opt-in and result-equivalent: every instrumented
call site defaults to ``tracer=NULL_TRACER`` / ``metrics=NULL_METRICS``
— null objects whose recording methods do nothing — and produces
identical fronts and cache contents either way.  Each layer exports
its numbers once: a study's phase timers, counters and histograms
leave through the trace's per-run ``metrics`` events (``python -m
repro trace summarize --format json`` reads them back), and the study
server's through its ``metrics`` op.
"""

from repro.telemetry.histogram import DEFAULT_BOUNDS, Histogram
from repro.telemetry.live import (
    LiveRegistry,
    MetricsExporter,
    aggregate_series,
    render_prometheus,
)
from repro.telemetry.metrics import (
    NULL_METRICS,
    PHASES,
    MetricsCollector,
    format_phases,
    merge_snapshots,
)
from repro.telemetry.schema import (
    SCHEMA_VERSION,
    read_trace,
    validate_record,
)
from repro.telemetry.summarize import (
    format_trace_summary,
    load_trace,
    summarize_trace,
)
from repro.telemetry.tracer import NULL_TRACER, BoundTracer, Tracer

__all__ = [
    "BoundTracer",
    "DEFAULT_BOUNDS",
    "Histogram",
    "LiveRegistry",
    "MetricsCollector",
    "MetricsExporter",
    "NULL_METRICS",
    "NULL_TRACER",
    "PHASES",
    "SCHEMA_VERSION",
    "Tracer",
    "aggregate_series",
    "format_phases",
    "format_trace_summary",
    "load_trace",
    "merge_snapshots",
    "read_trace",
    "render_prometheus",
    "summarize_trace",
    "validate_record",
]
