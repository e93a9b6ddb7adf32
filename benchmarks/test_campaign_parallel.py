"""Parallel evaluation on the Crypt grid is a drop-in for the serial loop.

Each of the 168 Crypt templates compiles independently, so the study
engine fans the evaluation out over a process pool.  This bench runs
both paths on the full grid and asserts they produce point-for-point
identical results and the same Pareto set.  Wall-clock comparisons
belong to the study benchmark (``perfbench/``), not here: the artifact
records only deterministic facts, so re-running rewrites it
byte-identically.
"""

from __future__ import annotations

from benchmarks.conftest import save_artifact
from repro.apps.registry import build_workload
from repro.compiler import IRInterpreter
from repro.explore import crypt_space, pareto_filter
from repro.study import evaluate_configs

WORKERS = 2


def _inputs():
    workload = build_workload("crypt")
    profile = IRInterpreter(workload, width=16).run().block_counts
    return workload, profile, crypt_space()


def test_campaign_parallel_evaluation():
    workload, profile, configs = _inputs()
    serial = evaluate_configs(configs, workload, profile, workers=1)
    parallel = evaluate_configs(configs, workload, profile, workers=WORKERS)

    # determinism: the fan-out must be a drop-in for the serial loop
    assert [(p.label, p.area, p.cycles) for p in serial] == [
        (p.label, p.area, p.cycles) for p in parallel
    ]
    serial_pareto = pareto_filter(
        [p for p in serial if p.feasible], key=lambda p: p.cost2d()
    )
    parallel_pareto = pareto_filter(
        [p for p in parallel if p.feasible], key=lambda p: p.cost2d()
    )
    assert [p.label for p in serial_pareto] == [
        p.label for p in parallel_pareto
    ]

    save_artifact(
        "campaign_parallel",
        "\n".join(
            [
                "parallel evaluation: crypt_space() "
                f"({len(configs)} points, {WORKERS} workers vs serial)",
                f"  feasible        : {sum(p.feasible for p in parallel)}",
                f"  pareto points   : {len(parallel_pareto)} (identical "
                "serial vs parallel)",
                "  pareto front    : "
                + ", ".join(p.label for p in parallel_pareto),
            ]
        ),
    )
