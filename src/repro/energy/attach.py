"""The energy post-pass: annotate evaluated points with real energy.

Mirrors :func:`repro.testcost.cost.attach_test_costs` — the study engine
runs it on the base-objective Pareto front when the objective vector
contains ``energy`` or ``edp``.  For each feasible point the workload is
compiled onto the point's architecture (through the sweep's shared
:class:`~repro.explore.evaluate.EvaluationContext`, so register
allocations are reused) and simulated once with activity tracing; the
resulting breakdown total becomes ``point.energy``.  The RTL
calibration gets its program from the same :func:`compiled_program`.

Energies persist in one place only: the study's
:class:`~repro.campaign.cache.ResultCache`, keyed by the technology
fingerprint.  A point restored from it already carries its energy and
is not re-simulated; every other feasible point is.
"""

from __future__ import annotations

from repro.compiler.interp import IRInterpreter
from repro.compiler.ir import IRFunction
from repro.energy.model import TechnologyParameters
from repro.energy.report import EnergyBreakdown, energy_report
from repro.explore.evaluate import EvaluatedPoint, EvaluationContext
from repro.explore.space import build_architecture_cached
from repro.telemetry.metrics import NULL_METRICS, MetricsCollector
from repro.tta.isa import Program


def _default_context(
    workload: IRFunction, width: int
) -> "EvaluationContext":
    """A context with the workload's real profile.

    The profile steers register allocation (hot vregs win registers),
    so compiling with an empty profile would yield a *different
    program* — and a different energy — than the study engine's path.
    Standalone callers must get the same numbers a study attaches.
    """
    profile = IRInterpreter(workload, width=width).run().block_counts
    return EvaluationContext(workload, profile, width)


def compiled_program(
    point: EvaluatedPoint,
    workload: IRFunction,
    width: int = 16,
    context: EvaluationContext | None = None,
) -> Program:
    """The program a feasible point runs.

    Its kept compile result, else recompiled through ``context``
    (default: one with the workload's real profile), which schedules
    the same program the sweep did.
    """
    if not point.feasible:
        raise ValueError(f"{point.label}: infeasible; no program to run")
    compiled = point.compile_result
    if compiled is None:
        if context is None:
            context = _default_context(workload, width)
        compiled = context.evaluate(
            point.config, keep_compile_result=True
        ).compile_result
    if compiled is None:
        raise ValueError(f"{point.label}: workload does not compile")
    return compiled.program


def energy_breakdown_of(
    point: EvaluatedPoint,
    workload: IRFunction,
    width: int = 16,
    tech: TechnologyParameters | None = None,
    context: EvaluationContext | None = None,
    max_cycles: int = 5_000_000,
    metrics: MetricsCollector = NULL_METRICS,
) -> EnergyBreakdown:
    """Full component-level breakdown for one feasible point."""
    return energy_report(
        build_architecture_cached(point.config, width),
        compiled_program(point, workload, width, context),
        tech=tech, max_cycles=max_cycles, metrics=metrics,
    )


def attach_energy(
    points: list[EvaluatedPoint],
    workload: IRFunction,
    width: int = 16,
    tech: TechnologyParameters | None = None,
    context: EvaluationContext | None = None,
    max_cycles: int = 5_000_000,
    metrics: MetricsCollector = NULL_METRICS,
) -> list[EvaluatedPoint]:
    """Annotate feasible points with switching-activity energy.

    Infeasible points are skipped (their ``energy`` stays None), and
    points that already carry an energy — restored from a result cache
    with a matching technology tag — are not re-simulated.

    ``metrics`` (a :class:`repro.telemetry.MetricsCollector`) counts
    the simulations (``energy_simulated``) and feeds the
    ``simulate``/``energy_model`` phase timers; the default records
    nothing.
    """
    shared = context or _default_context(workload, width)
    for point in points:
        if not point.feasible or point.energy is not None:
            continue
        metrics.count("energy_simulated")
        breakdown = energy_breakdown_of(
            point,
            workload,
            width=width,
            tech=tech,
            context=shared,
            max_cycles=max_cycles,
            metrics=metrics,
        )
        point.energy = round(breakdown.total, 3)
    return points
