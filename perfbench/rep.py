"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition so that no in-process
memo (``component_backannotation``, ``socket_pattern_count``, the
unit-cost and energy memos, ``build_architecture_cached``,
``_entry_profile``) survives from one repetition into the next.  The
ATPG and result caches live in directories the parent passes in.

Modes:

* ``setup``  -- import, build and validate the studies, then stop just
  before the first ``Study.run()`` (set-up time probe);
* ``timed``  -- run the workload with telemetry off;
* ``traced`` -- run it with the layer wrappers of :mod:`spans` installed
  and ``collect_metrics=True``;
* ``warmup`` -- fill the ATPG cache ``warm_study`` starts from.

The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import spans
from workloads import SWEEP_READ_PASSES, WORKLOADS, build_specs, warmup_specs

#: The crypt front point whose simulation defines the tracing multiplier.
MULTIPLIER_CONFIG = "b4-alu3-16r2R2W"
MULTIPLIER_REPEATS = 3


def _point_record(point, objectives) -> list:
    return [o.measure(point) if o.available(point) else None for o in objectives]


def _record_runs(result, into: dict) -> None:
    """Fold a StudyResult into ``{label: {points, front, ops, ...}}``."""
    from repro.study import resolve_objectives

    objectives = resolve_objectives(result.spec.objectives)
    for run in result.runs:
        label = f"{result.spec.name}/{run.label}"
        points = run.result.points
        attached = sum(p.test_cost is not None for p in points) + sum(
            p.energy is not None for p in points
        )
        into[label] = {
            "points": {p.label: _point_record(p, objectives) for p in points},
            "front": sorted(p.label for p in run.pareto),
            "operations": len(points) + attached + len(run.calibrations),
            "failures": len(run.failures),
            "drifted": sum(not c.ok for c in run.calibrations),
            "phases": run.stats.phases,
        }


def _components(atpg_dir: Path) -> dict:
    """``netlist_name -> [n_p, aborted]`` of every cached ATPG result."""
    out = {}
    for path in sorted(atpg_dir.glob("*.json")):
        data = json.loads(path.read_text())
        out[data["netlist_name"]] = [len(data["patterns"]), data["aborted"]]
    return out


def _tracing_multiplier() -> dict:
    """Host time per cycle with activity tracing over time without it."""
    from repro.apps.registry import build_workload
    from repro.explore.evaluate import EvaluationContext
    from repro.explore.space import build_architecture_cached, space_by_name
    from repro.study import workload_profile
    from repro.tta.simulator import TTASimulator

    width = 8
    config = next(c for c in space_by_name("crypt") if c.label() == MULTIPLIER_CONFIG)
    context = EvaluationContext(
        build_workload("crypt"), workload_profile("crypt", width), width
    )
    program = context.evaluate(config, keep_compile_result=True).compile_result.program
    arch = build_architecture_cached(config, width)
    per_cycle = {False: [], True: []}
    for _ in range(MULTIPLIER_REPEATS):
        for activity in (False, True):
            sim = TTASimulator(arch, program, activity=activity)
            started = perf_counter()
            result = sim.run(max_cycles=5_000_000)
            per_cycle[activity].append((perf_counter() - started) / result.cycles)
    plain = sorted(per_cycle[False])[MULTIPLIER_REPEATS // 2]
    traced = sorted(per_cycle[True])[MULTIPLIER_REPEATS // 2]
    return {
        "config": MULTIPLIER_CONFIG,
        "cycles": result.cycles,
        "plain_s_per_cycle": plain,
        "traced_s_per_cycle": traced,
        "multiplier": traced / plain,
    }


def run(workload: str, seed: int, mode: str, out: Path) -> None:
    from repro.campaign.cache import ResultCache
    from repro.study import Study

    spec_list = warmup_specs() if mode == "warmup" else build_specs(workload, seed)
    entry = WORKLOADS[workload]
    traced = mode == "traced"
    uses_cache = entry.result_cache and mode != "warmup"
    caches = []

    def make_pass() -> list:
        """The studies of one pass, sharing one fresh ResultCache."""
        cache = None
        if uses_cache:
            cache = ResultCache(os.environ["REPRO_CAMPAIGN_CACHE"])
            caches.append(cache)
        return [
            Study(
                spec,
                cache=cache,
                collect_metrics=traced,
                calibrate_front=entry.calibrate_front and mode != "warmup",
            )
            for spec in spec_list
        ]

    studies = make_pass()
    setup_at = time.monotonic()
    record: dict = {"setup_at": setup_at}
    if mode == "setup":
        out.write_text(json.dumps(record))
        return

    # Each pass is timed on its own and recorded outside the clock, so
    # neither the record-keeping nor the results of earlier passes are
    # charged to the workload.
    recorder = spans.SpanRecorder()
    passes: list[dict] = []
    study_s = 0.0
    with spans.installed(recorder) if traced else nullcontext():
        for index in range(1 + (SWEEP_READ_PASSES if uses_cache else 0)):
            started = perf_counter()
            with recorder.span("study") if traced else nullcontext():
                results = [s.run() for s in (studies if index == 0 else make_pass())]
            study_s += perf_counter() - started
            runs: dict = {}
            for result in results:
                _record_runs(result, runs)
            passes.append(runs)
            del results

    record.update(
        study_s=study_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        passes=passes,
        components=_components(Path(os.environ["REPRO_ATPG_CACHE"])),
    )
    if traced:
        record.update(
            spans=recorder.to_json(),
            counters=recorder.counters,
            cache_bytes_written=sum(c.stats.bytes_written for c in caches),
            tracing_multiplier=_tracing_multiplier(),
        )
    out.write_text(json.dumps(record))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=("setup", "timed", "traced", "warmup"), default="timed"
    )
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.mode, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
