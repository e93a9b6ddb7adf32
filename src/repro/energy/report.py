"""Component-level energy breakdown (the energy analogue of Table 1).

``energy_report`` runs one program on one architecture with activity
tracing and folds the trace through an :class:`~repro.energy.model.
EnergyModel`: one :class:`EnergyEntry` per bus, per functional unit,
per register file, plus the instruction-fetch path and architecture
leakage.  The breakdown's entries *are* the total — ``total`` is their
sum, pinned by tests — so the table answers "where does the energy go"
the same way the test-cost tables answer "where does the test time go".
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.components.spec import ComponentKind
from repro.energy.model import EnergyModel, TechnologyParameters
from repro.telemetry.metrics import NULL_METRICS, MetricsCollector
from repro.tta.activity import ActivityTrace
from repro.tta.arch import Architecture
from repro.tta.isa import Program
from repro.tta.simulator import TTASimulator


@dataclass(frozen=True)
class EnergyEntry:
    """One component's share of a run's energy."""

    name: str          # "bus0", "alu0", "rf1", "fetch", "leakage"
    category: str      # "bus" | "fu" | "rf" | "fetch" | "leakage"
    events: int        # transports / activations / accesses / words / cycles
    toggles: int       # bit flips charged to this component
    energy: float


@dataclass
class EnergyBreakdown:
    """Everything one simulated run dissipated, by component."""

    arch_name: str
    program_name: str
    tech: str
    cycles: int
    entries: list[EnergyEntry] = field(default_factory=list)

    @property
    def total(self) -> float:
        """Total energy — by construction the exact sum of the entries."""
        return sum(e.energy for e in self.entries)

    @property
    def dynamic(self) -> float:
        return sum(e.energy for e in self.entries if e.category != "leakage")

    def category_total(self, category: str) -> float:
        return sum(e.energy for e in self.entries if e.category == category)

    def entry(self, name: str) -> EnergyEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(f"no component {name!r} in breakdown")

    @property
    def edp(self) -> float:
        """Energy-delay product of the run."""
        return self.total * self.cycles


def breakdown_from_trace(
    trace: ActivityTrace,
    arch: Architecture,
    tech: TechnologyParameters,
    program_name: str = "program",
) -> EnergyBreakdown:
    """Fold an activity trace through the energy model."""
    model = EnergyModel(arch, tech)
    out = EnergyBreakdown(
        arch_name=arch.name,
        program_name=program_name,
        tech=tech.name,
        cycles=trace.cycles,
    )

    for bus in range(arch.num_buses):
        toggles = trace.bus_toggles.get(bus, 0)
        transports = trace.bus_transports.get(bus, 0)
        out.entries.append(EnergyEntry(
            name=f"bus{bus}",
            category="bus",
            events=transports,
            toggles=toggles,
            energy=toggles * model.bus_toggle(bus),
        ))

    for unit in arch.units.values():
        name = unit.name
        kind = unit.spec.kind
        sockets = sum(
            n for (u, _p), n in trace.socket_transports.items() if u == name
        )
        if kind is ComponentKind.RF:
            reads = trace.rf_reads.get(name, 0)
            writes = trace.rf_writes.get(name, 0)
            read_t = trace.rf_read_toggles.get(name, 0)
            write_t = trace.rf_write_toggles.get(name, 0)
            energy = (
                read_t * model.rf_read_toggle(name)
                + write_t * model.rf_write_toggle(name)
                + (reads + writes) * model.rf_access(name)
                + sockets * model.socket_transport()
            )
            out.entries.append(EnergyEntry(
                name=name,
                category="rf",
                events=reads + writes,
                toggles=read_t + write_t,
                energy=energy,
            ))
            continue
        # FU / LSU / PC / IMM: port toggles + activations + sockets.
        toggles = 0
        energy = sockets * model.socket_transport()
        for (u, port), count in trace.port_toggles.items():
            if u != name:
                continue
            toggles += count
            energy += count * model.port_toggle(name, port)
        activations = trace.fu_activations.get(name, 0)
        if activations:
            energy += activations * model.activation(name)
        out.entries.append(EnergyEntry(
            name=name,
            category="fu",
            events=activations or sockets,
            toggles=toggles,
            energy=energy,
        ))

    out.entries.append(EnergyEntry(
        name="fetch",
        category="fetch",
        events=trace.fetch_words,
        toggles=trace.fetch_toggles,
        energy=trace.fetch_toggles * model.fetch_toggle(),
    ))
    out.entries.append(EnergyEntry(
        name="guards",
        category="fu",
        events=trace.guard_toggles,
        toggles=trace.guard_toggles,
        energy=trace.guard_toggles * model.guard_toggle(),
    ))
    out.entries.append(EnergyEntry(
        name="leakage",
        category="leakage",
        events=trace.cycles,
        toggles=0,
        energy=trace.cycles * model.leakage_per_cycle,
    ))
    return out


def energy_report(
    arch: Architecture,
    program: Program,
    tech: TechnologyParameters | None = None,
    max_cycles: int = 5_000_000,
    metrics: MetricsCollector = NULL_METRICS,
) -> EnergyBreakdown:
    """Simulate ``program`` with activity tracing and break down energy.

    Raises ``ValueError`` when the program does not halt within the
    cycle budget — an unfinished run would silently under-report.  (A
    deliberately narrow type: the CLI reports it as a clean one-line
    error without masking genuine internal failures.)

    ``metrics`` (a :class:`repro.telemetry.MetricsCollector`) times the
    activity-traced simulation as the ``simulate`` phase (program
    encoding, decoding and the generation of any hot block's code
    included), counts its cycles as ``sim_cycles``, the blocks it
    compiled as ``sim_compiled_blocks`` and the cycles those ran as
    ``sim_compiled_cycles``, observes its code-generation seconds into
    the ``sim_codegen_seconds`` histogram and times the model fold as
    ``energy_model``; the default records nothing.
    """
    from repro.energy.model import technology_by_name

    if tech is None:
        tech = technology_by_name("default")
    with metrics.phase("simulate"):
        sim = TTASimulator(arch, program, activity=True)
        result = sim.run(max_cycles=max_cycles)
    metrics.count("sim_cycles", result.cycles)
    metrics.count("sim_compiled_blocks", sim.compiled_blocks)
    metrics.count("sim_compiled_cycles", sim.compiled_cycles)
    metrics.observe("sim_codegen_seconds", sim.codegen_seconds)
    if not result.halted:
        raise ValueError(
            f"{program.name} on {arch.name}: no halt within "
            f"{max_cycles} cycles; cannot attribute energy"
        )
    with metrics.phase("energy_model"):
        return breakdown_from_trace(
            sim.activity, arch, tech, program_name=program.name
        )


def format_energy_report(breakdown: EnergyBreakdown) -> str:
    """Human-readable breakdown table (stable column order)."""
    total = breakdown.total or 1.0
    lines = [
        f"energy report: {breakdown.program_name} on "
        f"{breakdown.arch_name} (tech={breakdown.tech})",
        f"cycles={breakdown.cycles}  energy={breakdown.total:.1f}  "
        f"edp={breakdown.edp:.3e}",
        f"{'component':<12} {'class':<8} {'events':>8} {'toggles':>9} "
        f"{'energy':>12} {'share':>7}",
    ]
    for e in sorted(breakdown.entries, key=lambda e: -e.energy):
        lines.append(
            f"{e.name:<12} {e.category:<8} {e.events:>8} {e.toggles:>9} "
            f"{e.energy:>12.1f} {e.energy / total:>6.1%}"
        )
    toggles = sum(e.toggles for e in breakdown.entries)
    lines.append(
        f"{'total':<12} {'':<8} {'':>8} {toggles:>9} "
        f"{breakdown.total:>12.1f} {1:>6.0%}"
    )
    return "\n".join(lines)
