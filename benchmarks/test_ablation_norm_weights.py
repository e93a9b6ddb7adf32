"""Ablation — how the norm weights steer the Fig. 9 selection.

The paper uses equal weights ("no preferences have been given neither to
the minimum test, nor area, nor throughput").  This bench sweeps the
weight vector and shows the selection moving along the frontier: weight
on area picks smaller machines, weight on time picks faster ones, weight
on test picks lower-f_t ones.
"""

from benchmarks.conftest import save_artifact
from repro.explore import select_architecture

WEIGHTS = {
    "equal (paper)": (1.0, 1.0, 1.0),
    "area-heavy": (4.0, 1.0, 1.0),
    "time-heavy": (1.0, 4.0, 1.0),
    "test-heavy": (1.0, 1.0, 4.0),
    "area-only": (1.0, 0.0, 0.0),
    "time-only": (0.0, 1.0, 0.0),
    "test-only": (0.0, 0.0, 1.0),
}


def test_norm_weight_sweep(benchmark, crypt_exploration):
    candidates = crypt_exploration.pareto

    def sweep():
        return {
            name: select_architecture(candidates, weights=w)
            for name, w in WEIGHTS.items()
        }

    chosen = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # extreme weights reach the corresponding extreme points
    area_best = min(candidates, key=lambda p: p.area)
    time_best = min(candidates, key=lambda p: p.cycles)
    test_best = min(candidates, key=lambda p: p.test_cost)
    assert chosen["area-only"].point.label == area_best.label
    assert chosen["time-only"].point.label == time_best.label
    assert chosen["test-only"].point.label == test_best.label

    # weighting must actually move the selection somewhere
    labels = {r.point.label for r in chosen.values()}
    assert len(labels) >= 3

    lines = [
        "Ablation: selection vs norm weights (area, time, test)",
        f"{'weights':<16}{'winner':<34}{'area':>8}{'cycles':>9}{'f_t':>7}",
    ]
    for name, result in chosen.items():
        p = result.point
        lines.append(
            f"{name:<16}{p.label:<34}{p.area:>8.0f}{p.cycles:>9}"
            f"{p.test_cost:>7}"
        )
    save_artifact("ablation_norm_weights", "\n".join(lines))
