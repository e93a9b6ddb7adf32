"""Exploration results: the point-set container.

:class:`ExplorationResult` holds what one sweep produced — the evaluated
points plus the workload profile.  The sweep itself is driven by the
study engine (:mod:`repro.study`): an exhaustive :class:`~repro.study.
Study` is the whole Sec. 2 + Sec. 3 flow.  Fronts are taken with
:func:`repro.study.objectives.pareto_front` — ``("area", "cycles")`` is
Fig. 2, ``("area", "cycles", "test_cost")`` is Fig. 8 — and the study
run's ``pareto`` is the front under its own objective vector.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.explore.evaluate import EvaluatedPoint


@dataclass
class ExplorationResult:
    """Everything one exploration run produced."""

    workload: str
    profile: dict[str, int]
    points: list[EvaluatedPoint] = field(default_factory=list)

    @property
    def feasible_points(self) -> list[EvaluatedPoint]:
        return [p for p in self.points if p.feasible]
