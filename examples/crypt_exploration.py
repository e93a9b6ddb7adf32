#!/usr/bin/env python3
"""The paper's whole flow on the Crypt application (Figs. 2, 8, 9, Table 1).

1. generate the crypt(3) kernel as IR and profile it,
2. explore 168 TTA templates -> 2-D Pareto set (Fig. 2),
3. back-annotate test costs on the Pareto points   (Fig. 8),
4. select with the equal-weight Euclid norm        (Fig. 9),
5. print the full-scan-vs-functional Table 1 for the winner.

First run takes a few minutes while the ATPG characterises the component
library; results are cached under ~/.cache/repro-tta/ afterwards.

Run:  python examples/crypt_exploration.py
"""

from repro import (
    StudySpec,
    build_architecture,
    build_table1,
    crypt_space,
    format_table1,
    pareto_front,
    run_study,
)

print(f"exploring {len(crypt_space())} architecture templates "
      "(one declarative study: sweep + test costs + selection) ...")
study = run_study(StudySpec(
    name="crypt-paper-flow",
    workloads=("crypt",),                       # the crypt(3) kernel
    space="crypt",                              # the 168-template grid
    objectives=("area", "cycles", "test_cost"), # Figs. 2 + 8 axes
    strategy="exhaustive",
    select=True,                                # Fig. 9 weighted norm
))
print(study.summary())

print("\nFig. 8 — (area, cycles, test cost) on the Pareto curve:")
for p in sorted(pareto_front(study.points, ("area", "cycles")),
                key=lambda q: q.area):
    print(f"  {p.label:<34} area={p.area:>7.0f} cycles={p.cycles:>8} "
          f"f_t={p.test_cost:>6}")

best = study.selection
print(f"\nFig. 9 — selected architecture (equal weights, Euclid norm):")
print(f"  {best.point.label}  norm={best.norm:.4f}")
arch = build_architecture(best.point.config)
print(arch.describe())

print("\nTable 1 — full scan vs our approach for the winner's components:")
rows, breakdown = build_table1(arch)
print(format_table1(rows))
print(f"\ntotal architecture test cost f_t = {breakdown.total} cycles")
