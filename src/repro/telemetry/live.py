"""Live metrics: a process-wide registry with typed instruments.

Where :class:`~repro.telemetry.metrics.MetricsCollector` is a cheap
per-run accumulator that ships snapshots *once* (worker -> parent,
run -> stats), a :class:`LiveRegistry` is the long-lived, thread-safe
side: the study server updates it continuously and readers scrape it
at any moment.  Three instrument types:

* **counter** — monotone float/int total (``jobs_submitted``,
  ``points_recorded``);
* **gauge** — last-written value (``queue_depth``,
  ``workers_busy``);
* **histogram** — a :class:`~repro.telemetry.histogram.Histogram`
  (``queue_wait_seconds``, ``eval_seconds``) with bucket counts,
  sum/count and estimated p50/p90/p99.

Every instrument carries a **label set** (e.g. ``tenant="a"``); one
metric name owns many label series, and :func:`aggregate_series` sums
series back together for per-tenant or global roll-ups.

Exposition is zero-dependency: :func:`render_prometheus` emits the
Prometheus text format 0.0.4 (``# HELP``/``# TYPE`` once per metric
name, ``_total`` counters, cumulative ``_bucket{le=...}`` histograms),
and :class:`MetricsExporter` serves it from a stdlib
``ThreadingHTTPServer`` on a daemon thread (``GET /metrics``).

Like everything in :mod:`repro.telemetry`, the registry is opt-in and
result-equivalent: no study code constructs one on its own; the study
server owns one and serves it through its ``metrics`` op, the one
place the server's numbers leave.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.telemetry.histogram import DEFAULT_BOUNDS, Histogram

_LabelKey = "tuple[tuple[str, str], ...]"


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class LiveRegistry:
    """Thread-safe named counters, gauges and histograms.

    Instruments are created on first touch; the (name, labels) pair
    identifies a series.  A name must keep one instrument type for the
    life of the registry (``ValueError`` otherwise) so exposition
    stays well-formed.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # name -> {label_key: value | Histogram}
        self._counters: dict[str, dict] = {}
        self._gauges: dict[str, dict] = {}
        self._histograms: dict[str, dict] = {}
        self._labels: dict[tuple, dict] = {}   # label_key -> labels
        self._help: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _series(self, table: dict, name: str, labels: dict, help: str | None):
        for other in (self._counters, self._gauges, self._histograms):
            if other is not table and name in other:
                raise ValueError(
                    f"metric {name!r} already registered with a "
                    "different instrument type"
                )
        if help and name not in self._help:
            self._help[name] = help
        key = _label_key(labels)
        self._labels.setdefault(key, dict(labels))
        return table.setdefault(name, {}), key

    def count(
        self, name: str, amount: float = 1,
        help: str | None = None, **labels,
    ) -> None:
        """Add ``amount`` (>= 0) to the counter series ``(name, labels)``."""
        if amount < 0:
            raise ValueError(f"counter {name!r} cannot decrease")
        with self._lock:
            series, key = self._series(self._counters, name, labels, help)
            series[key] = series.get(key, 0) + amount

    def gauge(
        self, name: str, value: float,
        help: str | None = None, **labels,
    ) -> None:
        """Set the gauge series ``(name, labels)`` to ``value``."""
        with self._lock:
            series, key = self._series(self._gauges, name, labels, help)
            series[key] = value

    def observe(
        self, name: str, value: float,
        help: str | None = None, bounds: tuple = DEFAULT_BOUNDS, **labels,
    ) -> None:
        """Record ``value`` into the histogram series ``(name, labels)``."""
        with self._lock:
            series, key = self._series(self._histograms, name, labels, help)
            hist = series.get(key)
            if hist is None:
                hist = series[key] = Histogram(bounds)
            hist.observe(value)

    def merge_histogram(
        self, name: str, snapshot: dict,
        help: str | None = None, **labels,
    ) -> None:
        """Fold a :meth:`Histogram.snapshot` into a series (additive).

        This is how per-run histograms measured inside pool workers
        (``eval_seconds``) land in the live registry: the study merges
        worker snapshots deterministically, and the server folds the
        merged result in per (tenant, job) when the run completes.
        """
        with self._lock:
            series, key = self._series(self._histograms, name, labels, help)
            hist = series.get(key)
            if hist is None:
                hist = series[key] = Histogram(tuple(snapshot["bounds"]))
            hist.merge(snapshot)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-safe view of every series, grouped by metric name.

        Shape: ``{"counters": {name: [{"labels": {...}, "value": v},
        ...]}, "gauges": {...}, "histograms": {name: [{"labels": ...,
        "count": ..., "sum": ..., "bounds": ..., "counts": ...,
        "quantiles": {"p50": ...}}]}, "help": {name: text}}``.
        """
        with self._lock:
            counters = {
                name: [
                    {"labels": dict(self._labels[key]), "value": value}
                    for key, value in sorted(series.items())
                ]
                for name, series in sorted(self._counters.items())
            }
            gauges = {
                name: [
                    {"labels": dict(self._labels[key]), "value": value}
                    for key, value in sorted(series.items())
                ]
                for name, series in sorted(self._gauges.items())
            }
            histograms = {
                name: [
                    dict(
                        labels=dict(self._labels[key]),
                        quantiles=hist.quantiles(),
                        **hist.snapshot(),
                    )
                    for key, hist in sorted(series.items())
                ]
                for name, series in sorted(self._histograms.items())
            }
            return {
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
                "help": dict(self._help),
            }

    def render_prometheus(self) -> str:
        """The registry in Prometheus text format (see module doc)."""
        return render_prometheus(self.snapshot())


# ----------------------------------------------------------------------
# aggregation over snapshot series
# ----------------------------------------------------------------------
def aggregate_series(series: "list[dict]", by: str | None = None) -> dict:
    """Sum snapshot series into roll-ups.

    ``series`` is one metric's list from :meth:`LiveRegistry.snapshot`.
    With ``by=None`` everything sums into a single entry keyed ``""``;
    with ``by="tenant"`` entries group by that label's value.  Counter/
    gauge entries sum ``value``; histogram entries merge buckets and
    report fresh quantiles.
    """
    groups: dict[str, dict] = {}
    for entry in series:
        group = str(entry["labels"].get(by, "")) if by else ""
        if "value" in entry:
            slot = groups.setdefault(group, {"value": 0})
            slot["value"] += entry["value"]
        else:
            hist = groups.get(group)
            if hist is None:
                groups[group] = Histogram.from_snapshot(entry)
            else:
                hist.merge(entry)
    return {
        group: (
            slot if isinstance(slot, dict)
            else dict(quantiles=slot.quantiles(), **slot.snapshot())
        )
        for group, slot in groups.items()
    }


# ----------------------------------------------------------------------
# Prometheus text exposition (format 0.0.4)
# ----------------------------------------------------------------------
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Prefix stamped onto every exposed metric name.
PROMETHEUS_PREFIX = "repro_"


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labels_text(labels: dict, extra: "list[tuple[str, str]]" = ()) -> str:
    pairs = [
        (k, _escape_label(v)) for k, v in sorted(labels.items())
    ] + list(extra)
    if not pairs:
        return ""
    return "{" + ",".join(f'{k}="{v}"' for k, v in pairs) + "}"


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def _format_bound(bound: float) -> str:
    return _format_value(float(bound))


def render_prometheus(snapshot: dict) -> str:
    """Render a :meth:`LiveRegistry.snapshot` as Prometheus text.

    ``# HELP``/``# TYPE`` appear exactly once per metric name.
    Counters expose ``<name>_total``; histograms expose cumulative
    ``<name>_bucket{le="..."}`` series ending in ``le="+Inf"`` plus
    ``<name>_sum``/``<name>_count``.
    """
    help_texts = snapshot.get("help", {})
    lines: list[str] = []

    def header(name: str, exposed: str, kind: str) -> None:
        text = help_texts.get(name, name.replace("_", " "))
        lines.append(f"# HELP {exposed} {text}")
        lines.append(f"# TYPE {exposed} {kind}")

    for name, series in snapshot.get("counters", {}).items():
        exposed = f"{PROMETHEUS_PREFIX}{name}_total"
        header(name, exposed, "counter")
        for entry in series:
            lines.append(
                f"{exposed}{_labels_text(entry['labels'])} "
                f"{_format_value(entry['value'])}"
            )
    for name, series in snapshot.get("gauges", {}).items():
        exposed = f"{PROMETHEUS_PREFIX}{name}"
        header(name, exposed, "gauge")
        for entry in series:
            lines.append(
                f"{exposed}{_labels_text(entry['labels'])} "
                f"{_format_value(entry['value'])}"
            )
    for name, series in snapshot.get("histograms", {}).items():
        exposed = f"{PROMETHEUS_PREFIX}{name}"
        header(name, exposed, "histogram")
        for entry in series:
            labels = entry["labels"]
            cumulative = 0
            for bound, count in zip(entry["bounds"], entry["counts"]):
                cumulative += count
                lines.append(
                    f"{exposed}_bucket"
                    f"{_labels_text(labels, [('le', _format_bound(bound))])}"
                    f" {cumulative}"
                )
            lines.append(
                f"{exposed}_bucket"
                f"{_labels_text(labels, [('le', '+Inf')])} {entry['count']}"
            )
            lines.append(
                f"{exposed}_sum{_labels_text(labels)} "
                f"{_format_value(entry['sum'])}"
            )
            lines.append(
                f"{exposed}_count{_labels_text(labels)} {entry['count']}"
            )
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# the /metrics HTTP listener
# ----------------------------------------------------------------------
class MetricsExporter:
    """Serve ``GET /metrics`` for one registry on a daemon thread.

    Stdlib-only (``http.server``); binds ``host:port`` (port ``0``
    picks a free one — read :attr:`address` after :meth:`start`).
    Anything but ``/metrics`` or ``/healthz`` is a 404.
    """

    def __init__(
        self, registry: LiveRegistry, host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self._host = host
        self._port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> str:
        if self._server is None:
            raise RuntimeError("exporter not started")
        host, port = self._server.server_address[:2]
        return f"{host}:{port}"

    def start(self) -> "MetricsExporter":
        registry = self.registry

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:           # noqa: N802 (stdlib API)
                if self.path.split("?", 1)[0] not in (
                    "/metrics", "/healthz",
                ):
                    self.send_error(404)
                    return
                if self.path.startswith("/healthz"):
                    body = b"ok\n"
                    content_type = "text/plain; charset=utf-8"
                else:
                    body = registry.render_prometheus().encode()
                    content_type = PROMETHEUS_CONTENT_TYPE
                self.send_response(200)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args) -> None:   # silence stderr spam
                pass

        self._server = ThreadingHTTPServer(
            (self._host, self._port), Handler
        )
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-exporter",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
