"""Fig. 2 — the 2-D area/execution-time Pareto set for Crypt.

Regenerates the solution space of the MOVE-style exploration and checks
its *shape*: a monotone trade-off frontier with a wide dynamic range in
both axes (the paper's Fig. 2 spans roughly 3x in area and 4x in
cycles).  Absolute units differ (our areas are NAND2-equivalents, the
paper's are library mm^2) — shape, ordering and crossovers are the
reproduction target.
"""

from benchmarks.conftest import save_artifact
from repro.apps.crypt_kernel import build_crypt_ir
from repro.explore import crypt_space
from repro.study import pareto_front, run_search


def _sweep():
    workload = build_crypt_ir("password", "ab")
    points = run_search(workload, crypt_space()).points
    feasible = [p for p in points if p.feasible]
    pareto = pareto_front(points, ("area", "cycles"))
    return points, feasible, pareto


def test_fig2_pareto_2d(benchmark):
    points, feasible, pareto = benchmark.pedantic(
        _sweep, rounds=1, iterations=1
    )

    assert len(points) == len(crypt_space())
    assert len(feasible) >= 100, "most templates should compile Crypt"
    assert len(pareto) >= 10, "a rich Pareto frontier"

    ordered = sorted(pareto, key=lambda p: p.area)
    # Pareto property: increasing area must strictly buy cycles.
    for a, b in zip(ordered, ordered[1:]):
        assert b.cycles < a.cycles

    # Dynamic range similar to the paper's figure.
    area_span = ordered[-1].area / ordered[0].area
    cycle_span = ordered[0].cycles / ordered[-1].cycles
    assert area_span > 1.8
    assert cycle_span > 3.0

    lines = [
        "Fig. 2 reproduction: Crypt area/execution-time Pareto points",
        f"configs evaluated: {len(points)}, feasible: {len(feasible)}, "
        f"Pareto: {len(pareto)}",
        f"{'architecture':<34}{'area':>9}{'cycles':>10}",
    ]
    for p in ordered:
        lines.append(f"{p.label:<34}{p.area:>9.0f}{p.cycles:>10}")
    lines.append(f"area span: {area_span:.2f}x, cycle span: {cycle_span:.2f}x")
    save_artifact("fig2_pareto2d", "\n".join(lines))
