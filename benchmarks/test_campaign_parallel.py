"""Parallel evaluation on the Crypt grid is a drop-in for the serial loop.

Each of the 168 Crypt templates compiles independently, so the study
engine fans the evaluation out over a process pool.  This bench runs
the same study serially and on the pool and asserts they produce
point-for-point identical results and the same Pareto set.  Wall-clock
comparisons belong to the study benchmark (``perfbench/``), not here:
the artifact records only deterministic facts, so re-running rewrites
it byte-identically.
"""

from __future__ import annotations

from benchmarks.conftest import save_artifact
from repro.study import StudySpec, run_study

WORKERS = 2


def test_campaign_parallel_evaluation():
    spec = StudySpec(name="parallel", workloads=("crypt",), space="crypt")
    serial = run_study(spec, workers=1).single
    parallel = run_study(spec, workers=WORKERS).single
    assert parallel.stats.workers == WORKERS

    # determinism: the fan-out must be a drop-in for the serial loop
    points = parallel.result.points
    assert [(p.label, p.area, p.cycles) for p in serial.result.points] == [
        (p.label, p.area, p.cycles) for p in points
    ]
    assert [p.label for p in serial.pareto] == [
        p.label for p in parallel.pareto
    ]

    save_artifact(
        "campaign_parallel",
        "\n".join(
            [
                "parallel evaluation: crypt_space() "
                f"({len(points)} points, {WORKERS} workers vs serial)",
                f"  feasible        : {sum(p.feasible for p in points)}",
                f"  pareto points   : {len(parallel.pareto)} (identical "
                "serial vs parallel)",
                "  pareto front    : "
                + ", ".join(p.label for p in parallel.pareto),
            ]
        ),
    )
