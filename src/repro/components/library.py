"""Component datasheets and the default MOVE-style catalog.

A :class:`ComponentDatasheet` bundles the architecture-level spec with the
lazily-synthesised gate-level netlist, its area/delay statistics and an
area model for the whole placed component (core + pipeline flip-flops +
socket logic).  This is our substitute for the paper's "components are
already predesigned up to the gate-level using the Synopsys synthesis
package" — every number is derived from an actual structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.components.alu import OPCODE_BITS as ALU_OPCODE_BITS
from repro.components.alu import build_alu
from repro.components.comparator import OPCODE_BITS as CMP_OPCODE_BITS
from repro.components.comparator import build_comparator
from repro.components.immediate import build_immediate
from repro.components.loadstore import MODE_BITS as LSU_MODE_BITS
from repro.components.loadstore import build_lsu
from repro.components.multiplier import build_multiplier
from repro.components.pc import build_pc
from repro.components.reference import (
    ALU_OPS,
    CMP_OPS,
    MUL_OPS,
    SHIFTER_OPS,
)
from repro.components.register_file import build_ff_register_file
from repro.components.shifter import OPCODE_BITS as SHIFTER_OPCODE_BITS
from repro.components.shifter import build_shifter
from repro.components.spec import (
    ComponentKind,
    ComponentSpec,
    PortDirection,
    PortSpec,
)
from repro.netlist.netlist import Netlist
from repro.netlist.stats import NetlistStats, netlist_stats

#: Area of one scannable flip-flop, in NAND2-equivalents.
FF_AREA = 4.0

#: Fixed socket control/decode area per connector plus per-bit drivers.
SOCKET_AREA_BASE = 12.0
SOCKET_AREA_PER_BIT = 0.5

#: Multi-port memory cell area per bit and port-growth factor: wordlines
#: and bitlines replicate per port, so area grows with the port count.
MEMCELL_AREA = 0.6
MEM_PORT_FACTOR = 0.25


def _in(name: str, width: int, trigger: bool = False) -> PortSpec:
    return PortSpec(name, PortDirection.IN, width, is_trigger=trigger)


def _out(name: str, width: int) -> PortSpec:
    return PortSpec(name, PortDirection.OUT, width)


# ----------------------------------------------------------------------
# spec constructors
# ----------------------------------------------------------------------
def alu_spec(width: int = 16) -> ComponentSpec:
    return ComponentSpec(
        name=f"alu{width}",
        kind=ComponentKind.FU,
        width=width,
        ops=ALU_OPS,
        latency=1,
        ports=(_in("a", width), _in("b", width, trigger=True), _out("y", width)),
        opcode_bits=ALU_OPCODE_BITS,
    )


def cmp_spec(width: int = 16) -> ComponentSpec:
    return ComponentSpec(
        name=f"cmp{width}",
        kind=ComponentKind.FU,
        width=width,
        ops=CMP_OPS,
        latency=1,
        ports=(_in("a", width), _in("b", width, trigger=True), _out("y", width)),
        opcode_bits=CMP_OPCODE_BITS,
    )


def shifter_spec(width: int = 16) -> ComponentSpec:
    return ComponentSpec(
        name=f"shifter{width}",
        kind=ComponentKind.FU,
        width=width,
        ops=SHIFTER_OPS,
        latency=1,
        ports=(_in("a", width), _in("b", width, trigger=True), _out("y", width)),
        opcode_bits=SHIFTER_OPCODE_BITS,
    )


def mul_spec(width: int = 16) -> ComponentSpec:
    return ComponentSpec(
        name=f"mul{width}",
        kind=ComponentKind.FU,
        width=width,
        ops=MUL_OPS,
        latency=2,
        ports=(_in("a", width), _in("b", width, trigger=True), _out("y", width)),
        opcode_bits=0,
    )


def rf_spec(
    num_regs: int,
    width: int = 16,
    read_ports: int = 1,
    write_ports: int = 1,
) -> ComponentSpec:
    abits = (num_regs - 1).bit_length()
    ports = tuple(
        [_in(f"w{p}", width) for p in range(write_ports)]
        + [_out(f"r{p}", width) for p in range(read_ports)]
    )
    return ComponentSpec(
        name=f"rf{num_regs}x{width}_{write_ports}w{read_ports}r",
        kind=ComponentKind.RF,
        width=width,
        ops=("read", "write"),
        latency=1,
        ports=ports,
        num_regs=num_regs,
        extra_ff_bits=abits * (read_ports + write_ports),
    )


def lsu_spec(width: int = 16) -> ComponentSpec:
    return ComponentSpec(
        name=f"lsu{width}",
        kind=ComponentKind.LSU,
        width=width,
        ops=("ld", "st"),
        latency=2,
        ports=(
            _in("wdata", width),
            _in("addr", width, trigger=True),
            _out("rdata", width),
        ),
        opcode_bits=LSU_MODE_BITS + 1,   # mode plus load/store select
    )


def pc_spec(width: int = 16) -> ComponentSpec:
    return ComponentSpec(
        name=f"pc{width}",
        kind=ComponentKind.PC,
        width=width,
        ops=("jump",),
        latency=1,
        ports=(_in("target", width, trigger=True),),
        opcode_bits=1,
    )


def imm_spec(width: int = 16) -> ComponentSpec:
    return ComponentSpec(
        name=f"imm{width}",
        kind=ComponentKind.IMM,
        width=width,
        ops=("imm",),
        latency=1,
        ports=(_out("value", width),),
        opcode_bits=1,
    )


# ----------------------------------------------------------------------
# datasheets
# ----------------------------------------------------------------------
@dataclass
class ComponentDatasheet:
    """Spec + synthesised structure + area model for one component type."""

    spec: ComponentSpec

    @property
    def name(self) -> str:
        return self.spec.name

    # -- gate level ----------------------------------------------------
    def netlist(self) -> Netlist | None:
        """Combinational core netlist (None for multi-port-memory RFs)."""
        return _build_core_netlist(self.spec.name)

    def ff_netlist(self) -> Netlist | None:
        """Flip-flop strawman netlist (RF only; for the full-scan column)."""
        if self.spec.kind is not ComponentKind.RF:
            return None
        return _build_rf_ff_netlist(self.spec.name)

    def core_stats(self) -> NetlistStats | None:
        return _core_stats(self.spec.name)

    # -- area model ------------------------------------------------------
    @property
    def core_area(self) -> float:
        """Logic-core area: netlist gates, or the memory macro for RFs."""
        if self.spec.kind is ComponentKind.RF:
            ports = self.spec.n_in + self.spec.n_out
            cell = MEMCELL_AREA * (1.0 + MEM_PORT_FACTOR * ports)
            decode = 6.0 * ports * (self.spec.num_regs - 1).bit_length()
            return self.spec.num_regs * self.spec.width * cell + decode
        stats = self.core_stats()
        return stats.area if stats is not None else 0.0

    @property
    def register_area(self) -> float:
        """Pipeline/opcode/address registers (scannable flip-flops)."""
        return FF_AREA * self.spec.pipeline_ff_bits

    @property
    def socket_area(self) -> float:
        """Input/output socket control, decode and bus-driver area."""
        per_port = (
            SOCKET_AREA_BASE
            + SOCKET_AREA_PER_BIT * self.spec.width
            + FF_AREA  # the Fin/Fout flip-flop
        )
        return per_port * len(self.spec.ports) + FF_AREA * self.spec.fsm_bits

    @property
    def total_area(self) -> float:
        """Placed-component area used by the explorer."""
        return round(self.core_area + self.register_area + self.socket_area, 3)

    @property
    def delay(self) -> float:
        """Critical-path delay of the core (memory RFs use a fixed model)."""
        if self.spec.kind is ComponentKind.RF:
            return 4.0 + 0.5 * (self.spec.num_regs - 1).bit_length()
        stats = self.core_stats()
        return stats.critical_path if stats is not None else 1.0


@lru_cache(maxsize=None)
def _build_core_netlist(spec_name: str) -> Netlist | None:
    """Synthesise (and cache) the combinational core for a spec name."""
    kind, width, extras = _parse_spec_name(spec_name)
    if kind == "alu":
        return build_alu(width)
    if kind == "cmp":
        return build_comparator(width)
    if kind == "shifter":
        return build_shifter(width)
    if kind == "mul":
        return build_multiplier(width)
    if kind == "lsu":
        return build_lsu(width)
    if kind == "pc":
        return build_pc(width)
    if kind == "imm":
        return build_immediate(width)
    if kind == "rf":
        return None
    raise ValueError(f"unknown component family in '{spec_name}'")


@lru_cache(maxsize=None)
def _core_stats(spec_name: str) -> NetlistStats | None:
    """Area/delay statistics of a core netlist, computed once per type.

    The explorer costs hundreds of architectures sharing a handful of
    component types; without this cache every ``Architecture.area()``
    re-walks the synthesised netlists (the dominant cost of a sweep's
    area model).  Statistics are immutable, so sharing is safe.
    """
    netlist = _build_core_netlist(spec_name)
    return netlist_stats(netlist) if netlist is not None else None


@lru_cache(maxsize=None)
def _build_rf_ff_netlist(spec_name: str) -> Netlist:
    kind, width, extras = _parse_spec_name(spec_name)
    if kind != "rf":
        raise ValueError(f"'{spec_name}' is not a register file")
    num_regs, write_ports, read_ports = extras
    return build_ff_register_file(num_regs, width, read_ports, write_ports)


def _parse_spec_name(name: str) -> tuple[str, int, tuple[int, ...]]:
    """Parse names like ``alu16`` or ``rf8x16_1w2r``."""
    if name.startswith("rf"):
        body = name[2:]
        regs_part, _, rest = body.partition("x")
        width_part, _, ports_part = rest.partition("_")
        wp, _, rp = ports_part.partition("w")
        return "rf", int(width_part), (int(regs_part), int(wp), int(rp.rstrip("r")))
    kind = name.rstrip("0123456789")
    width = int(name[len(kind):])
    return kind, width, ()


@lru_cache(maxsize=None)
def component_datasheet(spec: ComponentSpec) -> ComponentDatasheet:
    """Datasheet for a spec (cached; specs are frozen/hashable)."""
    return ComponentDatasheet(spec)


def default_catalog(width: int = 16) -> dict[str, ComponentSpec]:
    """The MOVE-style component library the explorer draws from."""
    specs = [
        alu_spec(width),
        cmp_spec(width),
        shifter_spec(width),
        mul_spec(width),
        rf_spec(4, width, read_ports=1, write_ports=1),
        rf_spec(8, width, read_ports=1, write_ports=1),
        rf_spec(8, width, read_ports=2, write_ports=1),
        rf_spec(12, width, read_ports=1, write_ports=1),
        rf_spec(12, width, read_ports=2, write_ports=1),
        rf_spec(16, width, read_ports=2, write_ports=2),
        lsu_spec(width),
        pc_spec(width),
        imm_spec(width),
    ]
    return {spec.name: spec for spec in specs}
