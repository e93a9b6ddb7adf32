"""Audit the study layer's numbers against the emitted core.

Two audits per (workload, config, width):

* **Cycles** — the static ``cycles`` objective (profile-weighted
  schedule length) against *simulated* cycles.  The cycle audit and
  the point's energy breakdown come from one activity-traced
  simulation, which the report keeps; a nonzero delta means the
  scheduler's timing model and the simulator disagree.
* **Area** — per-component structural gate/cell counts of the emitted
  core (:func:`repro.rtl.core.elaborate_core` + the existing netlist
  statistics) against the datasheet-derived areas the ``area``
  objective reports.  Components are grouped into categories with
  documented rtl/model ratio bands (:data:`TOLERANCE_BANDS`); the
  ``decode`` and ``fetch`` categories have **no model counterpart**
  (move decoding and program memory are not priced by
  ``Architecture.area()`` — the FFT-TTA paper's point about
  instruction streams) and are reported but never fail the verdict.

The RF band is intentionally wide: the RTL instantiates the flip-flop
strawman netlist while the model prices a multi-port memory macro —
the paper's own RF1/RF2 full-scan caveat.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.ir import IRFunction
from repro.components.library import (
    FF_AREA,
    MEMCELL_AREA,
    component_datasheet,
)
from repro.components.spec import ComponentKind
from repro.energy.attach import _default_context, compiled_program
from repro.energy.model import TechnologyParameters
from repro.energy.report import (
    EnergyBreakdown,
    energy_report,
    format_energy_report,
)
from repro.explore.evaluate import EvaluatedPoint, EvaluationContext
from repro.explore.space import ArchConfig, build_architecture_cached
from repro.netlist.stats import netlist_stats
from repro.rtl.core import CoreDesign, _core_module_name, elaborate_core
from repro.telemetry.metrics import NULL_METRICS, MetricsCollector
from repro.tta.arch import BUS_AREA_PER_BIT, CONNECTION_AREA, Architecture

#: Documented rtl/model area ratio bands per component category.
#:
#: The model and the RTL count different structures on purpose — the
#: model prices *placed* components (datasheet core + pipeline
#: registers), the RTL is the elaborated gate structure — so parity is
#: a band, not equality.  Bands were measured over every config in
#: ``small_space`` and ``dsp_space`` at widths 8/16/32 (observed:
#: unit 0.49–1.02, rf 4.1–7.7, interconnect 2.3–6.7) and padded ~30%
#: each side:
#:
#: * ``unit`` — FU/LSU/PC/IMM: the same core netlist on both sides;
#:   drift comes from pipeline-register placement (the RTL registers
#:   only what the latency contract needs — latency-1 triggers bypass
#:   their register — while the model charges every port).
#: * ``rf`` — flip-flop strawman vs multi-port memory macro; the gate
#:   structure is several times the macro's cell-array estimate (the
#:   paper's RF1/RF2 full-scan caveat, quantified).
#: * ``interconnect`` — the RTL instantiates one socket per (port, bus)
#:   connection plus per-bus source muxes, while the model charges one
#:   socket per port plus per-bit bus runs; the ratio therefore grows
#:   with the bus count.
TOLERANCE_BANDS: dict[str, tuple[float, float]] = {
    "unit": (0.35, 1.35),
    "rf": (3.0, 10.0),
    "interconnect": (1.6, 9.0),
}


@dataclass(frozen=True)
class ComponentDelta:
    """One category's model-vs-RTL area comparison."""

    name: str
    category: str
    model_area: float
    rtl_area: float
    modelled: bool
    ratio: float | None
    within_tolerance: bool | None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "category": self.category,
            "model_area": round(self.model_area, 3),
            "rtl_area": round(self.rtl_area, 3),
            "modelled": self.modelled,
            "ratio": None if self.ratio is None else round(self.ratio, 4),
            "within_tolerance": self.within_tolerance,
        }


@dataclass
class CalibrationReport:
    """Cycles + per-component area verdicts for one (workload, config).

    ``breakdown`` is the traced simulation behind the cycle audit.
    """

    workload: str
    config: str
    width: int
    static_cycles: int
    breakdown: EnergyBreakdown
    deltas: list[ComponentDelta] = field(default_factory=list)

    @property
    def tech(self) -> str:
        return self.breakdown.tech

    @property
    def simulated_cycles(self) -> int:
        return self.breakdown.cycles

    @property
    def energy(self) -> float:
        return self.breakdown.total

    @property
    def cycles_delta(self) -> int:
        return self.simulated_cycles - self.static_cycles

    @property
    def model_area(self) -> float:
        return round(sum(d.model_area for d in self.deltas if d.modelled), 3)

    @property
    def rtl_area(self) -> float:
        return round(sum(d.rtl_area for d in self.deltas if d.modelled), 3)

    @property
    def unmodelled_area(self) -> float:
        return round(
            sum(d.rtl_area for d in self.deltas if not d.modelled), 3
        )

    @property
    def area_ratio(self) -> float:
        return self.rtl_area / self.model_area if self.model_area else 0.0

    @property
    def ok(self) -> bool:
        """Within tolerance: cycles agree and every modelled band holds."""
        return self.cycles_delta == 0 and all(
            d.within_tolerance for d in self.deltas if d.modelled
        )

    def to_dict(self) -> dict:
        return {
            "workload": self.workload,
            "config": self.config,
            "width": self.width,
            "tech": self.tech,
            "static_cycles": self.static_cycles,
            "simulated_cycles": self.simulated_cycles,
            "cycles_delta": self.cycles_delta,
            "energy": round(self.energy, 3),
            "model_area": self.model_area,
            "rtl_area": self.rtl_area,
            "unmodelled_area": self.unmodelled_area,
            "area_ratio": round(self.area_ratio, 4),
            "ok": self.ok,
            "deltas": [d.to_dict() for d in self.deltas],
        }


def _delta(
    name: str, category: str, model: float, rtl: float, modelled: bool
) -> ComponentDelta:
    if not modelled or model <= 0.0:
        return ComponentDelta(name, category, model, rtl, False, None, None)
    ratio = rtl / model
    lo, hi = TOLERANCE_BANDS[category]
    return ComponentDelta(
        name, category, model, rtl, True, ratio, lo <= ratio <= hi
    )


def area_deltas(
    arch: Architecture, design: CoreDesign
) -> list[ComponentDelta]:
    """Per-category comparison of the design against the area model.

    The modelled categories partition ``arch.area()`` exactly: per-unit
    entries carry datasheet core + pipeline-register area, and the
    interconnect entry carries socket + bus + switch area.
    """
    mod_area = {
        name: netlist_stats(nl).area
        for name, nl in design.submodules.items()
    }
    deltas = []
    for unit in arch.units.values():
        sheet = component_datasheet(unit.spec)
        model = sheet.core_area + sheet.register_area
        mname = _core_module_name(unit.spec)
        rtl = mod_area[mname] + FF_AREA * design.flop_bits.get(unit.name, 0)
        category = (
            "rf" if unit.spec.kind is ComponentKind.RF else "unit"
        )
        deltas.append(_delta(unit.name, category, model, rtl, True))

    socket_model = sum(
        component_datasheet(u.spec).socket_area for u in arch.units.values()
    )
    bus_area = arch.num_buses * arch.width * BUS_AREA_PER_BIT
    switch_area = arch.num_connections * CONNECTION_AREA
    rtl = FF_AREA * design.flop_bits.get("interconnect", 0)
    for name, count in design.instances.items():
        if name == "socket6x3" or "_busmux" in name:
            rtl += mod_area[name] * count
    deltas.append(_delta(
        "interconnect", "interconnect",
        socket_model + bus_area + switch_area, rtl, True,
    ))

    dec = f"{design.top_name}_movedec"
    rtl = (
        mod_area.get(dec, 0.0) * design.instances.get(dec, 0)
        + FF_AREA * design.flop_bits.get("decode", 0)
    )
    deltas.append(_delta("decode", "decode", 0.0, rtl, False))

    rtl = (
        design.imem_bits * MEMCELL_AREA
        + FF_AREA * design.flop_bits.get("fetch", 0)
    )
    deltas.append(_delta("fetch", "fetch", 0.0, rtl, False))
    return deltas


def calibrate_point(
    point: EvaluatedPoint,
    workload: IRFunction,
    width: int = 16,
    tech: TechnologyParameters | None = None,
    context: EvaluationContext | None = None,
    max_cycles: int = 5_000_000,
    metrics: MetricsCollector = NULL_METRICS,
) -> CalibrationReport:
    """Calibrate one evaluated point (study post-pass entry).

    ``metrics`` times the simulation (``simulate``/``energy_model``)
    and the elaboration plus area audit (``rtl_elaborate``).
    """
    program = compiled_program(point, workload, width, context)
    arch = build_architecture_cached(point.config, width)
    breakdown = energy_report(
        arch, program, tech=tech, max_cycles=max_cycles, metrics=metrics
    )
    with metrics.phase("rtl_elaborate"):
        deltas = area_deltas(arch, elaborate_core(arch, program=program))
    return CalibrationReport(
        workload=workload.name,
        config=point.config.label(),
        width=width,
        static_cycles=int(point.cycles),
        breakdown=breakdown,
        deltas=deltas,
    )


def calibrate(
    workload: IRFunction,
    config: ArchConfig,
    width: int = 16,
    tech: TechnologyParameters | None = None,
    context: EvaluationContext | None = None,
    max_cycles: int = 5_000_000,
) -> CalibrationReport:
    """Standalone calibration of one (workload, config, width)."""
    if context is None:
        context = _default_context(workload, width)
    point = context.evaluate(config, keep_compile_result=True)
    if not point.feasible:
        raise ValueError(
            f"{config.label()}: workload {workload.name!r} does not map"
        )
    return calibrate_point(
        point, workload, width=width, tech=tech, context=context,
        max_cycles=max_cycles,
    )


def format_calibration_report(report: CalibrationReport) -> str:
    """Human-readable calibration table, then the energy breakdown."""
    verdict = "OK" if report.ok else "DRIFT"
    lines = [
        f"calibration {report.workload} @ {report.config} "
        f"(width={report.width}, tech={report.tech}): {verdict}",
        f"  cycles: static={report.static_cycles} "
        f"simulated={report.simulated_cycles} "
        f"delta={report.cycles_delta:+d}",
        f"  energy: {report.energy:.1f}",
        f"  area (modelled): model={report.model_area:.0f} "
        f"rtl={report.rtl_area:.0f} ratio={report.area_ratio:.2f}",
        f"  area (unmodelled rtl): {report.unmodelled_area:.0f} "
        f"(decode + fetch)",
    ]
    for d in report.deltas:
        if d.modelled:
            band = TOLERANCE_BANDS[d.category]
            flag = "ok" if d.within_tolerance else "OUT OF BAND"
            lines.append(
                f"    {d.name:<14} model={d.model_area:>9.1f} "
                f"rtl={d.rtl_area:>9.1f} ratio={d.ratio:.2f} "
                f"[{band[0]:.2f}, {band[1]:.2f}] {flag}"
            )
        else:
            lines.append(
                f"    {d.name:<14} model=        - "
                f"rtl={d.rtl_area:>9.1f} (unmodelled)"
            )
    lines.append(format_energy_report(report.breakdown))
    return "\n".join(lines)
