"""Fig. 8 — 3-D Pareto points (area, execution time, test cost).

Checks the paper's two headline observations:

* the area/time projection of the 3-D point set *is* the Fig. 2 curve
  ("the already achieved area-throughput ratio is preserved");
* the test cost "may vary significantly even for the architectures that
  are close to each other at the 2D Pareto curve".
"""

from benchmarks.conftest import save_artifact
from repro.study import pareto_front
from repro.testcost import attach_test_costs


def test_fig8_pareto_3d(benchmark, crypt_exploration):
    run = crypt_exploration
    pareto2d = pareto_front(run.result.points, ("area", "cycles"))

    benchmark.pedantic(
        lambda: attach_test_costs(pareto2d), rounds=1, iterations=1
    )

    assert all(p.test_cost is not None for p in pareto2d)

    # Projection preserved: the 3-D set lives exactly on the 2-D curve.
    pareto3d = run.pareto
    labels2d = {p.label for p in pareto2d}
    assert {p.label for p in pareto3d} <= labels2d
    assert len(pareto3d) >= 0.8 * len(pareto2d)

    # Significant test-cost variation along the curve.
    costs = [p.test_cost for p in sorted(pareto2d, key=lambda p: p.area)]
    assert max(costs) / min(costs) > 1.5
    neighbour_jumps = [
        abs(a - b) / min(a, b) for a, b in zip(costs, costs[1:])
    ]
    assert max(neighbour_jumps) > 0.15, (
        "adjacent Pareto points should differ markedly in test cost"
    )

    lines = [
        "Fig. 8 reproduction: 3-D Pareto points (area, cycles, test cost)",
        f"{'architecture':<34}{'area':>9}{'cycles':>10}{'f_t':>8}",
    ]
    for p in sorted(pareto2d, key=lambda p: p.area):
        marker = " *" if p in pareto3d else ""
        lines.append(
            f"{p.label:<34}{p.area:>9.0f}{p.cycles:>10}{p.test_cost:>8}{marker}"
        )
    lines.append("(*) member of the 3-D Pareto set")
    lines.append(
        f"test-cost span along the curve: {max(costs)/min(costs):.2f}x, "
        f"max neighbour jump: {max(neighbour_jumps)*100:.0f}%"
    )
    save_artifact("fig8_pareto3d", "\n".join(lines))
