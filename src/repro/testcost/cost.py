"""The analytical test cost functions (eqs. 11-14).

All costs are in *test application cycles*; "the cost is related to the
testing time".  The paper's eq. 12 is partially garbled; the
reconstruction used here is stated in :func:`rf_test_cost`'s docstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.components.spec import ComponentKind
from repro.explore.evaluate import EvaluatedPoint, architecture_of
from repro.telemetry.metrics import NULL_METRICS, MetricsCollector
from repro.testcost.backannotate import Backannotation, component_backannotation
from repro.testcost.transport import transport_latency
from repro.tta.arch import Architecture


def fu_test_cost(num_patterns: int, cd: int, n_conn: int, n_buses: int) -> int:
    """Eq. 11: ``f_tfu = n_p * CD_fu * max(1, n_conn / n_b)``."""
    if num_patterns < 0 or cd < 1 or n_conn < 1 or n_buses < 1:
        raise ValueError("invalid FU cost parameters")
    ratio = max(1.0, n_conn / n_buses)
    return int(round(num_patterns * cd * ratio))


def rf_test_cost(
    num_patterns: int, cd: int, n_in: int, n_out: int, n_buses: int
) -> int:
    """Eq. 12, reconstructed (the paper's text of it is partially garbled):

    * ``min(n_in, n_out) <= n_b`` — parallel port application helps:
      ``ceil(n_p / min(n_in, n_out)) * CD``;
    * both port counts exceed the buses — marching patterns serialise
      into different timing slots:
      ``ceil(n_p / n_b) * CD * ceil(max(n_in, n_out) / n_b)``.
    """
    if num_patterns < 0 or cd < 1 or n_in < 1 or n_out < 1 or n_buses < 1:
        raise ValueError("invalid RF cost parameters")
    if min(n_in, n_out) <= n_buses:
        return math.ceil(num_patterns / min(n_in, n_out)) * cd
    return (
        math.ceil(num_patterns / n_buses)
        * cd
        * math.ceil(max(n_in, n_out) / n_buses)
    )


def socket_test_cost(num_patterns: int, chain_length: int) -> int:
    """Eq. 13: ``f_ts = n_p * n_l`` (scan-based socket test)."""
    if num_patterns < 0 or chain_length < 0:
        raise ValueError("invalid socket cost parameters")
    return num_patterns * chain_length


@dataclass
class UnitTestCost:
    """Per-unit cost summary (one Table 1 row's analytical part)."""

    unit_name: str
    spec_name: str
    kind: ComponentKind
    cd: int
    component_cost: int        # f_tfu or f_trf (0 for LSU/PC/IMM)
    socket_cost: int           # f_ts
    backannotation: Backannotation
    counted: bool              # excluded units contribute equally (Sec. 4)

    @property
    def total(self) -> int:
        return self.component_cost + self.socket_cost


@dataclass
class TestCostBreakdown:
    """Eq. 14 evaluated on one architecture."""

    arch_name: str
    units: list[UnitTestCost] = field(default_factory=list)

    @property
    def total(self) -> int:
        """``f_t``: sum over counted FUs, RFs and their sockets."""
        return sum(u.total for u in self.units if u.counted)

    def unit(self, name: str) -> UnitTestCost:
        for u in self.units:
            if u.unit_name == name:
                return u
        raise KeyError(f"no unit {name!r} in breakdown")


def _unit_cost(
    arch: Architecture, unit_name: str, march_name: str
) -> tuple[int, int, Backannotation]:
    """(CD, component cost, back-annotation) for one unit.

    The back-annotation (the ATPG or march run) is memoized per
    (spec, march); the rest is eq. 9/10 latency and eq. 11/12 arithmetic.
    """
    spec = arch.unit(unit_name).spec
    back = component_backannotation(spec, march_name)
    cd = transport_latency(arch, unit_name)
    if spec.kind is ComponentKind.FU:
        component = fu_test_cost(
            back.num_patterns, cd, spec.n_conn, arch.num_buses
        )
    elif spec.kind is ComponentKind.RF:
        component = rf_test_cost(
            back.num_patterns, cd, spec.n_in, spec.n_out, arch.num_buses
        )
    else:
        component = 0
    return cd, component, back


def architecture_test_cost(
    arch: Architecture,
    march_name: str = "March C-",
) -> TestCostBreakdown:
    """Evaluate eqs. (11)-(14) on a concrete architecture.

    LD/ST, PC and immediate units are reported but not *counted* — "they
    always appear once for arbitrary architecture ... hence they
    contribute equally" (Sec. 4).
    """
    breakdown = TestCostBreakdown(arch_name=arch.name)
    for unit in arch.units.values():
        spec = unit.spec
        cd, component, back = _unit_cost(arch, unit.name, march_name)
        counted = spec.kind in (ComponentKind.FU, ComponentKind.RF)
        breakdown.units.append(
            UnitTestCost(
                unit_name=unit.name,
                spec_name=spec.name,
                kind=spec.kind,
                cd=cd,
                component_cost=component,
                socket_cost=back.socket_cost if counted else 0,
                backannotation=back,
                counted=counted,
            )
        )
    return breakdown


def attach_test_costs(
    points: list[EvaluatedPoint],
    march_name: str = "March C-",
    width: int = 16,
    metrics: MetricsCollector = NULL_METRICS,
) -> list[EvaluatedPoint]:
    """Annotate evaluated points with ``f_t`` (feasible points only).

    Architectures come from the shared builder cache (the same instance
    ``evaluate_config`` costed), and back-annotations are memoized per
    (spec, march), so attaching costs to a Pareto set does not
    re-instantiate templates or re-run the ATPG engine for component
    types it has already seen.

    ``metrics`` (a :class:`repro.telemetry.MetricsCollector`) times the
    analytical model as the ``test_cost`` phase and counts annotated
    points (``test_cost_attached``); the default records nothing.
    """
    for point in points:
        if not point.feasible:
            continue
        with metrics.phase("test_cost"):
            arch = architecture_of(point, width)
            point.test_cost = architecture_test_cost(arch, march_name).total
        metrics.count("test_cost_attached")
    return points
