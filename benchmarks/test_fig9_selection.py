"""Fig. 9 — architecture selection with the equal-weight Euclid norm.

The paper's winner is a compact mid-curve machine: one ALU, one CMP, two
modest register files, LD/ST, PC and an immediate unit on a 16-bit
datapath.  We assert the selection (a) uses the equal-weight Euclidean
norm, (b) lands mid-curve (never on either extreme of the frontier), and
(c) is a compact FU mix like the paper's.
"""

from benchmarks.conftest import save_artifact
from repro.explore import build_architecture, select_architecture
from repro.study import pareto_front


def test_fig9_selection(benchmark, crypt_exploration):
    run = crypt_exploration
    candidates = run.pareto

    best = benchmark.pedantic(
        lambda: select_architecture(candidates), rounds=1, iterations=1
    )

    ordered = sorted(
        pareto_front(run.result.points, ("area", "cycles")),
        key=lambda p: p.area,
    )
    assert best.point.label != ordered[0].label, "not the cheapest extreme"
    assert best.point.label != ordered[-1].label, "not the fastest extreme"

    config = best.point.config
    assert config.num_alus == 1, "paper's winner has a single ALU"
    assert config.num_cmps == 1
    assert config.total_registers <= 24, "compact register files"

    arch = build_architecture(config)
    lines = [
        "Fig. 9 reproduction: selected architecture "
        "(equal weights, Euclid norm)",
        f"winner: {best.point.label}",
        f"area={best.point.area:.0f}  cycles={best.point.cycles}  "
        f"f_t={best.point.test_cost}  norm={best.norm:.4f}",
        "",
        arch.describe(),
        "",
        "paper's Fig. 9: ALU + CMP + RF1(8) + RF2(12) + LD/ST + PC + "
        "Immediate, 16-bit datapath",
    ]
    save_artifact("fig9_selection", "\n".join(lines))
