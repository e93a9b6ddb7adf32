"""Phase timers and counters for the evaluation stack.

A :class:`MetricsCollector` accumulates two kinds of numbers:

* **phases** — named wall-clock timers around the stack's work units
  (:data:`PHASES` lists the ones the study engine records).  Phases
  are *disjoint by construction* — no instrumented region nests inside
  another — so their seconds sum to at most the elapsed wall clock of
  a serial run.
* **counters** — named integer tallies (evaluations, cache hits,
  strategy moves).  Counters recorded per configuration are
  deterministic: the same study merges to the same values no matter
  how a process pool interleaved the work.
* **histograms** — fixed-bucket latency distributions
  (:class:`~repro.telemetry.histogram.Histogram`) for per-point
  timings such as ``eval_seconds``.  Bucket counts merge additively,
  so merged pool snapshots are bucket-for-bucket deterministic the
  same way counters are (the timings inside vary run to run, but the
  *merge* never depends on pool interleaving).

Collectors are cheap plain-dict state.  :meth:`~MetricsCollector.
snapshot` returns a picklable plain-dict view, and :meth:`~
MetricsCollector.merge` folds a snapshot back in — that pair is how
pool workers report: each worker measures into its own collector and
ships the per-configuration delta home, where the parent merges it on
wave completion.

Everything is opt-in.  Instrumented code records unconditionally and,
with telemetry off, records into :data:`NULL_METRICS` — a collector
whose recording methods do nothing — so one code path serves both
modes.  Every call site that takes a ``metrics`` collector defaults
to it.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from time import perf_counter
from typing import Iterator

from repro.telemetry.histogram import Histogram

#: The phases the study stack records, in pipeline order.  A collector
#: accepts any name; this tuple is documentation plus the display
#: order of summaries.
PHASES = (
    "build",          # architecture construction (shared builder cache)
    "netlist_stats",  # the netlist-statistics-backed area model
    "regalloc",       # register allocation (memo misses only)
    "schedule",       # transport scheduling
    "validate",       # the timing validator
    "simulate",       # activity-traced simulation (energy, calibration)
    "energy_model",   # folding activity traces through the energy model
    "rtl_elaborate",  # core elaboration + area audit (calibration)
    "test_cost",      # the analytical test-cost model (ATPG-backed)
)


class MetricsCollector:
    """Accumulate disjoint phase timings and integer counters."""

    __slots__ = ("phases", "counters", "histograms")

    def __init__(self) -> None:
        # phase name -> [calls, seconds]
        self.phases: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self.histograms: dict[str, Histogram] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time one block under ``name`` (adds one call + its seconds)."""
        start = perf_counter()
        try:
            yield
        finally:
            elapsed = perf_counter() - start
            entry = self.phases.get(name)
            if entry is None:
                self.phases[name] = [1, elapsed]
            else:
                entry[0] += 1
                entry[1] += elapsed

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + n

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` (seconds) into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable plain-dict view: what workers ship to the parent.

        Shape: ``{"phases": {name: {"calls": int, "seconds": float}},
        "counters": {name: int}, "histograms": {name: <histogram
        snapshot>}}``.  Seconds are rounded to the microsecond so
        snapshots serialise compactly and compare stably.
        """
        return {
            "phases": {
                name: {"calls": calls, "seconds": round(seconds, 6)}
                for name, (calls, seconds) in self.phases.items()
            },
            "counters": dict(self.counters),
            "histograms": {
                name: hist.snapshot()
                for name, hist in self.histograms.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold one :meth:`snapshot` into this collector (additive)."""
        for name, stat in snapshot.get("phases", {}).items():
            entry = self.phases.get(name)
            if entry is None:
                self.phases[name] = [stat["calls"], stat["seconds"]]
            else:
                entry[0] += stat["calls"]
                entry[1] += stat["seconds"]
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, hist_snap in snapshot.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram(
                    tuple(hist_snap["bounds"])
                )
            hist.merge(hist_snap)


class _NullCollector(MetricsCollector):
    """A collector that records nothing; its snapshot is always empty."""

    __slots__ = ()

    def phase(self, name: str):
        return _NO_PHASE

    def count(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def merge(self, snapshot: dict) -> None:
        pass


_NO_PHASE = nullcontext()

#: The shared telemetry-off collector (stateless, so one serves all).
NULL_METRICS: MetricsCollector = _NullCollector()


def merge_snapshots(snapshots: "list[dict]") -> dict:
    """Merge snapshot dicts without a collector (order-independent)."""
    collector = MetricsCollector()
    for snapshot in snapshots:
        collector.merge(snapshot)
    return collector.snapshot()


def format_phases(snapshot: dict, indent: str = "") -> str:
    """Per-phase time table of one snapshot (known phases first)."""
    phases = snapshot.get("phases", {})
    if not phases:
        return f"{indent}(no phase timings)"
    order = [p for p in PHASES if p in phases] + sorted(
        p for p in phases if p not in PHASES
    )
    total = sum(phases[p]["seconds"] for p in order) or 1.0
    lines = [
        f"{indent}{'phase':<14} {'calls':>8} {'seconds':>9} {'share':>6}"
    ]
    for name in order:
        stat = phases[name]
        lines.append(
            f"{indent}{name:<14} {stat['calls']:>8} "
            f"{stat['seconds']:>9.3f} {stat['seconds'] / total:>6.1%}"
        )
    return "\n".join(lines)
