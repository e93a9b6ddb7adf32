#!/usr/bin/env python3
"""One study, fully observed: trace, phase timers, cache accounting.

Telemetry is strictly opt-in — passing a ``Tracer`` and
``collect_metrics=True`` changes no results (the tests pin front and
cache equality on vs off), it only records what happened:

* a JSONL trace with study/run/search spans plus one ``point`` event
  per evaluated configuration (the evaluation stream),
* disjoint phase timers (build, netlist_stats, regalloc, schedule,
  validate, test_cost, ...) whose seconds sum to at most the run's
  elapsed wall clock,
* counters obeying ``proposed == cache_hits + evaluated``.

The same instrumentation runs from the shell as:

    python -m repro study --workloads gcd --space small \
        --objectives area,cycles,test_cost --trace study.jsonl
    python -m repro trace summarize study.jsonl --format json

The trace is the one export: each run's ``metrics`` event carries its
phase timers, counters and histograms, which ``trace summarize
--format json`` prints per run and merged across runs.

Run:  python examples/study_traced.py
"""

import tempfile
from pathlib import Path

from repro import (
    ResultCache,
    StudySpec,
    Tracer,
    load_trace,
    run_study,
    summarize_trace,
)
from repro.telemetry import format_phases, format_trace_summary

workdir = Path(tempfile.mkdtemp(prefix="repro-traced-"))
trace_path = workdir / "study.jsonl"

spec = StudySpec(
    name="traced-demo",
    workloads=("gcd",),
    space="small",
    objectives=("area", "cycles", "test_cost"),
    select=True,
)

# ---------------------------------------------------------------- run
with Tracer(trace_path) as tracer:
    result = run_study(
        spec,
        cache=ResultCache(workdir / "cache"),
        tracer=tracer,
        collect_metrics=True,
    )

print(result.summary())
print()

# ------------------------------------------------- what was measured
stats = result.single.stats
print("phase breakdown (seconds sum <= elapsed "
      f"{stats.elapsed:.3f}s of the serial run):")
print(format_phases({"phases": stats.phases}, indent="  "))
counters = stats.counters
assert counters["proposed"] == counters["cache_hits"] + counters["evaluated"]
print(f"counters: proposed={counters['proposed']} = "
      f"cache_hits={counters['cache_hits']} + "
      f"evaluated={counters['evaluated']}")
print()

# ------------------------------------------- offline trace analysis
records = load_trace(trace_path)          # schema-validates every line
kinds = {}
for record in records:
    kinds[record["name"]] = kinds.get(record["name"], 0) + 1
print(f"trace: {len(records)} records in {trace_path.name} — "
      + ", ".join(f"{n} {k}" for k, n in sorted(kinds.items())))
points = [r for r in records if r["name"] == "point"]
print(f"point stream: {len(points)} evaluations, e.g. "
      f"{points[0]['config']} -> {points[0]['data']}")
print()
print(format_trace_summary(summarize_trace(records)))
