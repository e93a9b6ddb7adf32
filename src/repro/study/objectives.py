"""The objective registry: pluggable cost axes for studies.

The paper fixes the cost vector to (area, execution time, test cost);
this module makes the axis set a first-class, extensible concept.  An
:class:`Objective` declares how to *measure* one evaluated point and
whether the measurement only exists after a post-pass (the test-cost
axis needs :func:`repro.testcost.cost.attach_test_costs` to have run).
Studies refer to objectives by registry name, so an objective vector is
declarative data — JSON-safe, cacheable, comparable — rather than a
tuple-building method on :class:`~repro.explore.evaluate.EvaluatedPoint`.

The seeded registry reproduces the paper exactly: ``area`` (Fig. 2's x
axis), ``cycles`` (its y axis) and ``test_cost`` (the Fig. 8 third
axis).  New axes — energy proxies, code size, scenario-specific costs —
register with :func:`register_objective` and immediately work in specs,
Pareto fronts and the weighted-norm selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.explore.evaluate import EvaluatedPoint
from repro.explore.pareto import pareto_filter


@dataclass(frozen=True)
class Objective:
    """One cost axis: how to measure a point, and what that needs.

    ``measure`` maps a *feasible* evaluated point to a float cost
    (smaller is better, like every axis in the paper).
    ``requires_test_costs`` marks objectives that read
    ``EvaluatedPoint.test_cost`` and therefore need the analytical
    test-cost post-pass before they are defined;
    ``requires_energy`` marks objectives that read
    ``EvaluatedPoint.energy`` and need the switching-activity
    simulation pass (:func:`repro.energy.attach.attach_energy`).
    ``requires_fields`` names further :class:`EvaluatedPoint` fields
    that must be non-``None`` for the axis to be measurable — the
    generic guard for base axes whose field can be absent on points
    restored from older result caches (``code_size``).
    """

    name: str
    measure: Callable[[EvaluatedPoint], float]
    description: str = ""
    requires_test_costs: bool = False
    requires_energy: bool = False
    requires_fields: tuple[str, ...] = ()

    @property
    def needs_post_pass(self) -> bool:
        """Whether the axis only exists after an engine post-pass."""
        return self.requires_test_costs or self.requires_energy

    def available(self, point: EvaluatedPoint) -> bool:
        """Whether ``measure`` is defined on ``point`` right now."""
        if not point.feasible:
            return False
        if self.requires_test_costs and point.test_cost is None:
            return False
        if self.requires_energy and point.energy is None:
            return False
        return all(
            getattr(point, name, None) is not None
            for name in self.requires_fields
        )


_OBJECTIVES: dict[str, Objective] = {}


def register_objective(
    name: str,
    measure: Callable[[EvaluatedPoint], float],
    description: str = "",
    requires_test_costs: bool = False,
    requires_energy: bool = False,
    requires_fields: tuple[str, ...] = (),
) -> Objective:
    """Add (or replace) a named objective; returns the registered entry."""
    objective = Objective(
        name=name,
        measure=measure,
        description=description,
        requires_test_costs=requires_test_costs,
        requires_energy=requires_energy,
        requires_fields=requires_fields,
    )
    _OBJECTIVES[name] = objective
    return objective


def objective_names() -> list[str]:
    """Names accepted by :func:`objective_by_name` (sorted)."""
    return sorted(_OBJECTIVES)


def objective_by_name(name: str) -> Objective:
    try:
        return _OBJECTIVES[name]
    except KeyError:
        known = ", ".join(objective_names())
        raise KeyError(
            f"unknown objective {name!r} (known: {known})"
        ) from None


def resolve_objectives(
    objectives: Iterable[str | Objective],
) -> tuple[Objective, ...]:
    """Resolve a mixed name/instance sequence into objective entries."""
    resolved = tuple(
        o if isinstance(o, Objective) else objective_by_name(o)
        for o in objectives
    )
    if not resolved:
        raise ValueError("need at least one objective")
    return resolved


def cost_vector(
    point: EvaluatedPoint, objectives: Sequence[Objective]
) -> tuple[float, ...]:
    """The point's cost vector under ``objectives`` (all must be available)."""
    return tuple(o.measure(point) for o in objectives)


def pareto_front(
    points: Iterable[EvaluatedPoint],
    objectives: Iterable[str | Objective],
) -> list[EvaluatedPoint]:
    """Non-dominated subset of ``points`` under an objective vector.

    The front is *staged* the way the paper stages Fig. 8: objectives
    that need a post-pass (the test-cost and energy axes) are only
    measured on the front of the objectives that don't, "preserving the
    already achieved area/throughput ratio".  Staging also makes the
    front a pure function of the point set's base costs — a point that
    merely *happens* to carry a test cost or energy (say, restored from
    a result cache another study populated) cannot enter the candidate
    set from off the base front.  Points on which some objective is not
    measurable — infeasible, or awaiting the post-pass — are never
    candidates.

    Any number of objectives is supported: :func:`repro.explore.pareto.
    pareto_filter` is one scan for every dimension.
    """
    resolved = resolve_objectives(objectives)
    base = tuple(o for o in resolved if not o.needs_post_pass)
    pool = list(points)
    if base and len(base) < len(resolved):
        pool = pareto_filter(
            [p for p in pool if all(o.available(p) for o in base)],
            key=lambda p: cost_vector(p, base),
        )
    candidates = [
        p for p in pool if all(o.available(p) for o in resolved)
    ]
    return pareto_filter(
        candidates, key=lambda p: cost_vector(p, resolved)
    )


# ----------------------------------------------------------------------
# the seeded axes (the paper's three)
# ----------------------------------------------------------------------
register_objective(
    "area",
    lambda p: p.area,
    "silicon area from the component datasheets (Fig. 2 x axis)",
)
register_objective(
    "cycles",
    lambda p: float(p.cycles),
    "profile-weighted static cycle count (Fig. 2 y axis)",
)
register_objective(
    "test_cost",
    lambda p: float(p.test_cost),
    "analytical test application cycles, eqs. 11-14 (Fig. 8 z axis)",
    requires_test_costs=True,
)
register_objective(
    "energy",
    lambda p: float(p.energy),
    "switching-activity energy from simulated transport traces",
    requires_energy=True,
)
register_objective(
    "code_size",
    lambda p: float(p.code_size),
    "instruction-memory bits under the arch's move encoding",
    requires_fields=("code_size",),
)
register_objective(
    "edp",
    lambda p: float(p.energy) * float(p.cycles),
    "energy-delay product (energy x profile-weighted cycles)",
    requires_energy=True,
)
