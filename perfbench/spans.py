"""In-memory span recording around the calls into each layer.

The traced run wraps public functions at the module attributes their
callers look them up through (modules bind them with ``from ... import``,
so patching the defining module alone would miss the call sites) and
methods on their classes.  :func:`installed` restores every original on
exit.  Spans are kept in memory and written out by the caller when the
benchmark ends.

A span's self time is its duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into the recorder's span list


class SpanRecorder:
    """A flat span list with parent links, plus named counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = perf_counter()

    def wrap(self, fn, name: str, after=None):
        """``fn`` timed as span ``name``; ``after(args, result)`` may count."""
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(recorder, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """The highest of p99.9/p99/p90/p50 with >= 10 samples beyond it."""
    for q in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return None


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, latency p50 + tail."""
    selfs = self_times(spans)
    table: dict[str, dict] = {}
    durations: dict[str, list[float]] = {}
    for span, own in zip(spans, selfs):
        row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span.end - span.start
        row["self_s"] += own
        durations.setdefault(span.name, []).append(span.end - span.start)
    for name, values in durations.items():
        row = table[name]
        row["p50_s"] = percentile(values, 50.0)
        tail = tail_percentile(len(values))
        if tail is not None:
            row["tail_q"] = tail
            row["tail_s"] = percentile(values, tail)
    return table


# ----------------------------------------------------------------------
# the wrapped call sites
# ----------------------------------------------------------------------
def _atpg_after(recorder, args, result):
    recorder.count("atpg.patterns", result.num_patterns)
    recorder.count("atpg.aborted", result.aborted)


def _sim_after(recorder, args, result):
    recorder.count("tta.sim_cycles", result.cycles)


def _attach_after(recorder, args, result):
    recorder.count("testcost.points", len(args[0]))


def _calibrate_after(recorder, args, result):
    recorder.count("rtl.drifted", 0 if result.ok else 1)


#: (module, attribute path, span name, after-hook).  A dotted attribute
#: path patches a method on a class.
WRAPPED = (
    ("repro.study.engine", "run_strategy", "study.search", None),
    ("repro.study.engine", "workload_profile", "study.profile", None),
    ("repro.study.engine", "attach_test_costs", "testcost.attach", _attach_after),
    ("repro.testcost.backannotate", "run_atpg", "atpg.run", _atpg_after),
    ("repro.testcost.backannotate", "march_pattern_count", "memtest.march", None),
    ("repro.atpg.podem", "Podem.generate", "atpg.podem", None),
    ("repro.atpg.faultsim", "FaultSimulator.simulate_word", "atpg.faultsim", None),
    ("repro.study.engine", "attach_energy", "energy.attach", None),
    ("repro.energy.attach", "energy_breakdown_of", "energy.point", None),
    ("repro.energy.report", "breakdown_from_trace", "energy.model", None),
    ("repro.tta.simulator", "TTASimulator.run", "tta.sim", _sim_after),
    ("repro.rtl.calibrate", "calibrate_point", "rtl.calibrate", _calibrate_after),
    ("repro.rtl.calibrate", "elaborate_core", "rtl.elaborate", None),
    ("repro.campaign.cache", "ResultCache.get", "campaign.cache_get", None),
    ("repro.campaign.cache", "ResultCache.put", "campaign.cache_put", None),
)


def _count_faultsim_builds(recorder, original):
    """``FaultSimulator.__init__`` that counts constructions (ATPG misses)."""

    def init(self, *args, **kwargs):
        recorder.count("atpg.faultsim_built")
        original(self, *args, **kwargs)

    return init


@contextmanager
def installed(recorder: SpanRecorder):
    """Wrap every call site in :data:`WRAPPED`; restore them on exit."""
    patches = []
    for module_name, path, span_name, after in WRAPPED:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if outer else getattr(owner, attr)
        patches.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, span_name, after))
    faultsim = importlib.import_module("repro.atpg.faultsim").FaultSimulator
    patches.append((faultsim, "__init__", faultsim.__dict__["__init__"]))
    faultsim.__init__ = _count_faultsim_builds(recorder, faultsim.__dict__["__init__"])
    try:
        yield recorder
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
