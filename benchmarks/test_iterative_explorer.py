"""Iterative exploration vs the exhaustive sweep (MOVE's actual modus).

The paper's exploration is "performed with iterative generation of
different architectures"; this bench measures how much of the true
Pareto frontier the neighbourhood search recovers at a fraction of the
evaluations.
"""

from benchmarks.conftest import save_artifact
from repro.explore import crypt_space
from repro.study import pareto_front, run_search


def test_iterative_vs_exhaustive(benchmark, crypt_exploration):
    exhaustive = pareto_front(
        crypt_exploration.result.points, ("area", "cycles")
    )
    target = {(p.area, p.cycles) for p in exhaustive}

    from repro.apps.crypt_kernel import build_crypt_ir

    workload = build_crypt_ir("password", "ab")
    iterative = benchmark.pedantic(
        lambda: run_search(
            workload, [], strategy="iterative",
            strategy_params={"max_evaluations": 70},
        ),
        rounds=1,
        iterations=1,
    )

    front = pareto_front(iterative.points, ("area", "cycles"))
    found = {(p.area, p.cycles) for p in front}
    recovered = len(found & target) / len(target)
    assert iterative.evaluations <= 70 < len(crypt_space())
    assert recovered >= 0.5, f"{recovered:.0%} of the frontier recovered"

    lines = [
        "Iterative (neighbourhood) exploration vs exhaustive sweep",
        f"exhaustive: {len(crypt_space())} evaluations, "
        f"{len(target)} Pareto points",
        f"iterative:  {iterative.evaluations} evaluations, "
        f"{len(found)} frontier points, {iterative.iterations} waves",
        f"true frontier recovered: {recovered:.0%}",
        f"frontier growth per wave: {iterative.frontier_history}",
    ]
    save_artifact("iterative_explorer", "\n".join(lines))
