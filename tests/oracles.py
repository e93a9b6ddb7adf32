"""Reference implementations the fast paths in ``src/`` are tested against.

* :func:`pareto_filter_naive` -- the O(n^2) non-dominated filter that
  :func:`repro.explore.pareto.pareto_filter` must agree with.
* :class:`TTASimulator` -- the cycle-accurate simulator as it stood
  before activity tracing moved into its execution pass: every move is
  executed, then classified a second time by ``_record_transport`` /
  ``_record_commit`` against shadow copies of the port registers.  Its
  ``SimResult``, final state and ``ActivityTrace`` pin the shipped
  simulator's, down to dict key order.  It records through
  :class:`RecordingTrace`, the per-event hooks the trace had before the
  shipped simulator counted into its own working tables.
* The ATPG pipeline as it stood before the cell library's gate-logic
  table and ``fault_cone``: :func:`evaluate_cell`, :func:`eval3`,
  :class:`Podem` (faulty machine re-simulated over the whole netlist),
  :class:`FaultSimulator`, :func:`collapse_faults` and :func:`run_atpg`
  without its disk cache.  Every pattern list, PODEM decision and fault
  class of the shipped ATPG must equal these.
* :class:`DelayAnalyzer` -- transition-fault analysis as it stood before
  stuck-at detections came from 64-pattern words: one
  ``simulate_word([pattern], [fault])`` call, over this module's
  :class:`FaultSimulator`, per (capture pattern, fault) question.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.atpg.delay import (
    DelayCoverage,
    TransitionFault,
    enumerate_transition_faults,
)
from repro.atpg.faults import Fault, enumerate_faults
from repro.atpg.faultsim import WORD
from repro.components.reference import (
    ALU_OPS,
    CMP_OPS,
    MUL_OPS,
    SHIFTER_OPS,
    alu_reference,
    cmp_reference,
    lsu_extend_reference,
    mul_reference,
)
from repro.components.register_file import MultiPortMemory
from repro.components.spec import ComponentKind
from repro.explore.pareto import dominates
from repro.netlist.cells import CellType
from repro.netlist.netlist import Netlist
from repro.tta.activity import ActivityTrace, hamming
from repro.tta.arch import Architecture
from repro.tta.isa import GUARD_UNIT, Guard, Instruction, Literal, Move, PortRef, Program
from repro.tta.simulator import BRANCH_DELAY_SLOTS, DMEM_WORDS, SimulationError
from repro.util.bitops import mask

T = TypeVar("T")


def pareto_filter_naive(
    items: Iterable[T],
    key: Callable[[T], Sequence[float]],
) -> list[T]:
    """Reference O(n^2) non-dominated filter (any dimension).

    Deterministic: input order is preserved; among items with *identical*
    cost vectors the first is kept.
    """
    pool = list(items)
    costs = [tuple(key(item)) for item in pool]
    kept: list[T] = []
    seen: set[tuple] = set()
    for i, item in enumerate(pool):
        ci = costs[i]
        if ci in seen:
            continue
        dominated = False
        for j, cj in enumerate(costs):
            if j != i and dominates(cj, ci):
                dominated = True
                break
        if not dominated:
            kept.append(item)
            seen.add(ci)
    return kept


#: LSU opcode -> read-extension mode.
_LSU_MODE = {
    "ld": "word",
    "ld_ls": "low_signed",
    "ld_lu": "low_unsigned",
    "ld_h": "high",
}


def _bump(table: dict, key, amount: int) -> None:
    table[key] = table.get(key, 0) + amount


class RecordingTrace(ActivityTrace):
    """:class:`ActivityTrace` with one recording hook per event kind."""

    def record_bus(self, bus: int, old: int, new: int) -> None:
        _bump(self.bus_toggles, bus, hamming(old, new))
        _bump(self.bus_transports, bus, 1)

    def record_socket(self, unit: str, port: str) -> None:
        _bump(self.socket_transports, (unit, port), 1)

    def record_port(self, unit: str, port: str, old: int, new: int) -> None:
        _bump(self.port_toggles, (unit, port), hamming(old, new))

    def record_activation(self, unit: str) -> None:
        _bump(self.fu_activations, unit, 1)

    def record_rf_read(self, unit: str, old: int, new: int) -> None:
        _bump(self.rf_reads, unit, 1)
        _bump(self.rf_read_toggles, unit, hamming(old, new))

    def record_rf_write(self, unit: str, old: int, new: int) -> None:
        _bump(self.rf_writes, unit, 1)
        _bump(self.rf_write_toggles, unit, hamming(old, new))

    def record_fetch(self, old_word: int, new_word: int) -> None:
        self.fetch_words += 1
        self.fetch_toggles += hamming(old_word, new_word)

    def record_guard(self, old: int, new: int) -> None:
        self.guard_toggles += hamming(old & 1, new & 1)


@dataclass
class SimResult:
    """Summary of one simulation run."""

    cycles: int
    halted: bool
    reason: str
    moves_executed: int
    moves_squashed: int
    triggers: int

    @property
    def ipc(self) -> float:
        """Executed moves per cycle (transport utilisation)."""
        return self.moves_executed / self.cycles if self.cycles else 0.0


@dataclass
class _FUState:
    operands: dict[str, int] = field(default_factory=dict)
    pipeline: list[tuple[int, int]] = field(default_factory=list)  # (ready, value)
    result: int = 0
    result_valid: bool = False


class TTASimulator:
    """Interpreter for a :class:`~repro.tta.isa.Program` on an architecture."""

    def __init__(
        self,
        arch: Architecture,
        program: Program,
        activity: bool = False,
    ):
        self.arch = arch
        self.program = program
        self._width_mask = mask(arch.width)
        self.dmem = dict(program.data)
        for addr in self.dmem:
            if not 0 <= addr < DMEM_WORDS:
                raise SimulationError(f"data image address {addr} out of range")
        self.guards = [0] * arch.num_guard_regs
        self._fu: dict[str, _FUState] = {}
        self._rf: dict[str, MultiPortMemory] = {}
        for unit in arch.units.values():
            if unit.spec.kind in (ComponentKind.FU, ComponentKind.LSU):
                self._fu[unit.name] = _FUState()
            elif unit.spec.kind is ComponentKind.RF:
                self._rf[unit.name] = MultiPortMemory(
                    unit.spec.num_regs,
                    unit.spec.width,
                    read_ports=unit.spec.n_out,
                    write_ports=unit.spec.n_in,
                )
        self.pc = 0
        self.cycle = 0
        self._pending_jump: tuple[int, int] | None = None

        # Switching-activity tracing is opt-in: when off, ``self.activity``
        # is None and the hot path pays only dead ``is not None`` checks —
        # the run loop executes identically (pinned by tests) either way.
        self.activity: RecordingTrace | None = None
        if activity:
            from repro.tta.encoding import MoveEncoder

            self.activity = RecordingTrace(width=arch.width)
            self._act_words = MoveEncoder(arch).encode_program(program)
            self._act_last_word = 0
            self._act_bus = [0] * arch.num_buses
            self._act_port_last: dict[tuple[str, str], int] = {}
            self._act_rf_last_read: dict[str, int] = {}
            self._act_result_port = {
                name: next(
                    (p.name for p in arch.unit(name).spec.output_ports), None
                )
                for name in self._fu
            }

    # ------------------------------------------------------------------
    # inspection helpers (tests, examples)
    # ------------------------------------------------------------------
    def rf_value(self, unit: str, reg: int) -> int:
        return self._rf[unit].peek(reg)

    def dmem_read(self, addr: int) -> int:
        return self.dmem.get(addr, 0)

    def guard(self, index: int) -> int:
        return self.guards[index]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> SimResult:
        """Run until halt, program end, or the cycle budget expires."""
        executed = 0
        squashed = 0
        triggers = 0
        halted = False
        reason = "end-of-program"

        while self.cycle < max_cycles:
            if not 0 <= self.pc < len(self.program.instructions):
                reason = "end-of-program"
                halted = True
                break
            instruction = self.program.instructions[self.pc]
            if self.activity is not None:
                word = self._act_words[self.pc]
                self.activity.record_fetch(self._act_last_word, word)
                self._act_last_word = word
            stats = self._step(instruction)
            executed += stats[0]
            squashed += stats[1]
            triggers += stats[2]
            if instruction.halt:
                reason = "halt"
                halted = True
                self.cycle += 1
                break
            self._advance_pc()
            self.cycle += 1
        else:
            reason = "max-cycles"

        if self.activity is not None:
            self.activity.cycles = self.cycle
        return SimResult(
            cycles=self.cycle,
            halted=halted,
            reason=reason,
            moves_executed=executed,
            moves_squashed=squashed,
            triggers=triggers,
        )

    def _advance_pc(self) -> None:
        if self._pending_jump is not None:
            when, target = self._pending_jump
            if self.cycle >= when:
                self.pc = target
                self._pending_jump = None
                return
        self.pc += 1

    def _step(self, instruction: Instruction) -> tuple[int, int, int]:
        """Execute one instruction; returns (executed, squashed, triggers)."""
        cycle = self.cycle
        act = self.activity
        # Begin-of-cycle: land finished results, open RF ports.
        for name, state in self._fu.items():
            while state.pipeline and state.pipeline[0][0] <= cycle:
                _ready, value = state.pipeline.pop(0)
                if act is not None:
                    port = self._act_result_port[name]
                    if port is not None:
                        act.record_port(name, port, state.result, value)
                state.result = value
                state.result_valid = True
        for rf in self._rf.values():
            rf.new_cycle()

        # Sample phase (one bus slot per move; squashed moves drive no bus).
        sampled: list[tuple[Move, int]] = []
        squashed = 0
        for bus, move in enumerate(instruction.slots):
            if move is None:
                continue
            if move.guard is not None and not self._guard_true(move.guard):
                squashed += 1
                continue
            value = self._read_source(move)
            sampled.append((move, value))
            if act is not None:
                self._record_transport(bus, move, value)

        # Commit phase: operands first, then triggers see fresh operands.
        triggers = 0
        trigger_moves: list[tuple[Move, int]] = []
        for move, value in sampled:
            if self._is_trigger(move.dst):
                trigger_moves.append((move, value))
            else:
                if act is not None:
                    self._record_commit(move, value)
                self._commit_plain(move, value)
        for move, value in trigger_moves:
            if act is not None:
                self._record_commit(move, value)
                act.record_activation(move.dst.unit)
            self._commit_trigger(move, value)
            triggers += 1
        return len(sampled), squashed, triggers

    # ------------------------------------------------------------------
    # activity recording (only reached when tracing is enabled; purely
    # observational — reads state, never writes simulation state)
    # ------------------------------------------------------------------
    def _record_transport(self, bus: int, move: Move, value: int) -> None:
        act = self.activity
        act.record_bus(bus, self._act_bus[bus], value)
        self._act_bus[bus] = value
        src = move.src
        if isinstance(src, PortRef) and src.unit in self.arch.units:
            act.record_socket(src.unit, src.port)
            if self.arch.unit(src.unit).spec.kind is ComponentKind.RF:
                old = self._act_rf_last_read.get(src.unit, 0)
                act.record_rf_read(src.unit, old, value)
                self._act_rf_last_read[src.unit] = value
        dst = move.dst
        if dst.unit in self.arch.units:
            act.record_socket(dst.unit, dst.port)

    def _record_commit(self, move: Move, value: int) -> None:
        act = self.activity
        dst = move.dst
        if dst.unit == GUARD_UNIT:
            old = self.guards[_guard_index_or_raise(dst.port)]
            act.record_guard(old, value)
            return
        if dst.unit not in self.arch.units:
            return
        unit = self.arch.unit(dst.unit)
        if unit.spec.kind is ComponentKind.RF:
            if move.dst_reg is not None:
                old = self._rf[dst.unit].peek(move.dst_reg)
                act.record_rf_write(dst.unit, old, value & self._width_mask)
            return
        # FU/LSU operand or trigger register, or the PC target port.
        key = (dst.unit, dst.port)
        old = self._act_port_last.get(key, 0)
        new = value & self._width_mask
        act.record_port(dst.unit, dst.port, old, new)
        self._act_port_last[key] = new

    # ------------------------------------------------------------------
    def _guard_true(self, guard: Guard) -> bool:
        value = bool(self.guards[guard.index])
        return value ^ guard.invert

    def _is_trigger(self, dst: PortRef) -> bool:
        if dst.unit == GUARD_UNIT or dst.unit not in self.arch.units:
            return False
        spec = self.arch.unit(dst.unit).spec
        try:
            return spec.port(dst.port).is_trigger
        except KeyError:
            raise SimulationError(f"unknown port {dst}") from None

    def _read_source(self, move: Move) -> int:
        src = move.src
        if isinstance(src, Literal):
            return src.value & self._width_mask
        if src.unit == GUARD_UNIT:
            return self.guards[_guard_index_or_raise(src.port)]
        unit = self.arch.unit(src.unit)
        if unit.spec.kind is ComponentKind.RF:
            if move.src_reg is None:
                raise SimulationError(f"RF read {src} without register index")
            return self._rf[src.unit].read(move.src_reg)
        state = self._fu.get(src.unit)
        if state is None:
            raise SimulationError(f"{src} is not a readable unit")
        if not state.result_valid:
            raise SimulationError(
                f"cycle {self.cycle}: read of {src} before any result (eq. 3)"
            )
        return state.result

    def _commit_plain(self, move: Move, value: int) -> None:
        dst = move.dst
        if dst.unit == GUARD_UNIT:
            self.guards[_guard_index_or_raise(dst.port)] = value & 1
            return
        unit = self.arch.unit(dst.unit)
        if unit.spec.kind is ComponentKind.RF:
            if move.dst_reg is None:
                raise SimulationError(f"RF write {dst} without register index")
            self._rf[dst.unit].write(move.dst_reg, value)
            return
        # Operand register of an FU/LSU.
        state = self._fu.get(dst.unit)
        if state is None:
            raise SimulationError(f"{dst} is not a writable unit")
        state.operands[dst.port] = value & self._width_mask

    def _commit_trigger(self, move: Move, value: int) -> None:
        dst = move.dst
        unit = self.arch.unit(dst.unit)
        spec = unit.spec
        if spec.kind is ComponentKind.PC:
            if move.opcode != "jump":
                raise SimulationError(f"PC trigger with opcode {move.opcode!r}")
            self._pending_jump = (
                self.cycle + BRANCH_DELAY_SLOTS,
                value % (len(self.program.instructions) + 1),
            )
            return
        state = self._fu[dst.unit]
        state.operands[dst.port] = value & self._width_mask
        if spec.kind is ComponentKind.LSU:
            self._trigger_lsu(move, unit, state, value)
            return
        result = self._dispatch_fu(move.opcode, unit, state, value)
        state.pipeline.append((self.cycle + spec.latency, result))

    def _trigger_lsu(self, move: Move, unit, state: _FUState, addr: int) -> None:
        opcode = move.opcode or "ld"
        addr &= self._width_mask
        if addr >= DMEM_WORDS:
            raise SimulationError(f"data address {addr:#x} out of range")
        if opcode == "st":
            wdata = state.operands.get("wdata", 0)
            self.dmem[addr] = wdata & self._width_mask
            return
        mode = _LSU_MODE.get(opcode)
        if mode is None:
            raise SimulationError(f"LSU opcode {opcode!r} invalid")
        raw = self.dmem.get(addr, 0)
        value = lsu_extend_reference(mode, raw, self.arch.width)
        state.pipeline.append((self.cycle + unit.spec.latency, value))

    def _dispatch_fu(self, opcode: str | None, unit, state: _FUState, trigger_value: int) -> int:
        spec = unit.spec
        if opcode is None:
            raise SimulationError(f"trigger on {unit.name} without opcode")
        if opcode not in spec.ops:
            raise SimulationError(f"{unit.name} cannot execute {opcode!r}")
        operand_port = next(
            (p.name for p in spec.input_ports if not p.is_trigger), None
        )
        a = state.operands.get(operand_port, 0) if operand_port else 0
        b = trigger_value & self._width_mask
        width = spec.width
        if opcode in ALU_OPS:
            return alu_reference(opcode, a, b, width)
        if opcode in CMP_OPS:
            return cmp_reference(opcode, a, b, width)
        if opcode in SHIFTER_OPS:
            return alu_reference(opcode, a, b, width)
        if opcode in MUL_OPS:
            return mul_reference(a, b, width)
        raise SimulationError(f"no behavioural model for opcode {opcode!r}")


def _guard_index_or_raise(port: str) -> int:
    if port.startswith("g") and port[1:].isdigit():
        return int(port[1:])
    raise SimulationError(f"bad guard register name {port!r}")


# ----------------------------------------------------------------------
# ATPG as it stood before the gate-logic table and the fault cone: gate
# facts written out per evaluator, PODEM re-simulating the faulty machine
# over the whole netlist, the fault simulator evaluating the good machine
# with the oracle's own ``evaluate_cell``.
# ----------------------------------------------------------------------
def evaluate_cell(cell_type: CellType, inputs: list[int], all_ones: int) -> int:
    """Evaluate one cell on bit-parallel pattern vectors.

    ``all_ones`` is the mask covering every simulated pattern; inversion is
    XOR with that mask so unused high bits stay zero.
    """
    if cell_type is CellType.CONST0:
        return 0
    if cell_type is CellType.CONST1:
        return all_ones
    if cell_type is CellType.BUF:
        return inputs[0]
    if cell_type is CellType.NOT:
        return inputs[0] ^ all_ones

    acc = inputs[0]
    if cell_type in (CellType.AND, CellType.NAND):
        for v in inputs[1:]:
            acc &= v
        return acc ^ all_ones if cell_type is CellType.NAND else acc
    if cell_type in (CellType.OR, CellType.NOR):
        for v in inputs[1:]:
            acc |= v
        return acc ^ all_ones if cell_type is CellType.NOR else acc
    if cell_type in (CellType.XOR, CellType.XNOR):
        for v in inputs[1:]:
            acc ^= v
        return acc ^ all_ones if cell_type is CellType.XNOR else acc
    raise ValueError(f"unknown cell type: {cell_type}")


def _evaluate(
    netlist: Netlist, pi_values: dict[int, int], num_patterns: int
) -> list[int]:
    """``Netlist.evaluate`` over the oracle's :func:`evaluate_cell`."""
    all_ones = (1 << num_patterns) - 1
    values = [0] * len(netlist.nets)
    for pi in netlist.inputs:
        values[pi] = pi_values.get(pi, 0) & all_ones
    for gid in netlist.topological_order():
        gate = netlist.gates[gid]
        ins = [values[n] for n in gate.inputs]
        values[gate.output] = evaluate_cell(gate.cell_type, ins, all_ones)
    return values


#: Three-valued logic constants.
ZERO, ONE, X = 0, 1, 2


def eval3(cell_type: CellType, ins: list[int]) -> int:
    """Evaluate one cell in {0, 1, X} logic."""
    if cell_type is CellType.CONST0:
        return ZERO
    if cell_type is CellType.CONST1:
        return ONE
    if cell_type is CellType.BUF:
        return ins[0]
    if cell_type is CellType.NOT:
        v = ins[0]
        return X if v == X else 1 - v
    if cell_type in (CellType.AND, CellType.NAND):
        invert = cell_type is CellType.NAND
        if any(v == ZERO for v in ins):
            out = ZERO
        elif any(v == X for v in ins):
            return X
        else:
            out = ONE
        return (1 - out) if invert else out
    if cell_type in (CellType.OR, CellType.NOR):
        invert = cell_type is CellType.NOR
        if any(v == ONE for v in ins):
            out = ONE
        elif any(v == X for v in ins):
            return X
        else:
            out = ZERO
        return (1 - out) if invert else out
    if cell_type in (CellType.XOR, CellType.XNOR):
        if any(v == X for v in ins):
            return X
        out = 0
        for v in ins:
            out ^= v
        return out ^ (1 if cell_type is CellType.XNOR else 0)
    raise ValueError(f"unknown cell type {cell_type}")


#: Non-controlling input value per gate family (None = no controlling value).
_NONCONTROLLING: dict[CellType, int | None] = {
    CellType.AND: ONE,
    CellType.NAND: ONE,
    CellType.OR: ZERO,
    CellType.NOR: ZERO,
    CellType.XOR: None,    # no controlling value: backtrace value is free
    CellType.XNOR: None,
    CellType.BUF: None,
    CellType.NOT: None,
}

#: Does the gate invert (for backtrace value propagation)?
_INVERTS: set[CellType] = {CellType.NOT, CellType.NAND, CellType.NOR, CellType.XNOR}


class PodemOutcome(enum.Enum):
    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    outcome: PodemOutcome
    pattern: int | None      # packed by PI order, unassigned PIs = 0
    backtracks: int

class Podem:
    """PODEM engine bound to one netlist."""

    def __init__(self, netlist: Netlist, backtrack_limit: int = 64):
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self._order = netlist.topological_order()
        self._pi_index = {pi: i for i, pi in enumerate(netlist.inputs)}
        self._po_set = set(netlist.outputs)
        # Observability: min levels to a PO (orders the D-frontier).
        self._depth = self._po_distance()
        # Controllability: levels from the PIs (guides backtrace choices).
        self._level = self._pi_distance()

    def _po_distance(self) -> dict[int, int]:
        depth = {po: 0 for po in self._po_set}
        for gid in reversed(self._order):
            gate = self.netlist.gates[gid]
            d_out = depth.get(gate.output)
            if d_out is None:
                continue
            for src in gate.inputs:
                prev = depth.get(src)
                if prev is None or d_out + 1 < prev:
                    depth[src] = d_out + 1
        return depth

    def _pi_distance(self) -> list[int]:
        level = [0] * self.netlist.num_nets
        for gid in self._order:
            gate = self.netlist.gates[gid]
            level[gate.output] = 1 + max(
                (level[src] for src in gate.inputs), default=0
            )
        return level

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def _simulate(
        self, assignment: dict[int, int], fault: Fault
    ) -> tuple[list[int], list[int]]:
        """Three-valued good/faulty simulation under a partial assignment."""
        nl = self.netlist
        good = [X] * nl.num_nets
        faulty = [X] * nl.num_nets
        for pi in nl.inputs:
            v = assignment.get(pi, X)
            good[pi] = v
            faulty[pi] = v
        if not fault.is_branch and nl.nets[fault.net].driver is None:
            faulty[fault.net] = fault.stuck_at
        for gid in self._order:
            gate = nl.gates[gid]
            good[gate.output] = eval3(gate.cell_type, [good[n] for n in gate.inputs])
            f_ins = [faulty[n] for n in gate.inputs]
            if fault.is_branch and gid == fault.gate:
                f_ins[fault.pin] = fault.stuck_at
            faulty[gate.output] = eval3(gate.cell_type, f_ins)
            if not fault.is_branch and gate.output == fault.net:
                faulty[gate.output] = fault.stuck_at
        return good, faulty

    def _detected(self, good: list[int], faulty: list[int]) -> bool:
        return any(
            good[po] != X and faulty[po] != X and good[po] != faulty[po]
            for po in self._po_set
        )

    # ------------------------------------------------------------------
    # objective / backtrace
    # ------------------------------------------------------------------
    def _objective(
        self, good: list[int], faulty: list[int], fault: Fault
    ) -> tuple[int, int] | None:
        """Next (net, value) goal, or None when the search must back up."""
        site_good = good[fault.net]
        if site_good == X:
            return fault.net, 1 - fault.stuck_at
        if site_good == fault.stuck_at:
            return None  # activation conflict: current assignment kills it

        # Fault active: advance the D-frontier.
        frontier = self._d_frontier(good, faulty, fault)
        if not frontier:
            return None
        if not self._x_path_exists(frontier, good, faulty):
            return None
        gate = self.netlist.gates[frontier[0]]
        noncontrolling = _NONCONTROLLING[gate.cell_type]
        for src in gate.inputs:
            if good[src] == X:
                value = noncontrolling if noncontrolling is not None else ZERO
                return src, value
        return None

    def _d_frontier(
        self, good: list[int], faulty: list[int], fault: Fault
    ) -> list[int]:
        """Gates with a D/D' input and an X output, nearest-to-PO first."""
        frontier = []
        for gid in self._order:
            gate = self.netlist.gates[gid]
            out = gate.output
            if good[out] != X and faulty[out] != X:
                continue
            for pin, src in enumerate(gate.inputs):
                g, f = good[src], faulty[src]
                if fault.is_branch and gid == fault.gate and pin == fault.pin:
                    f = fault.stuck_at
                if g != X and f != X and g != f:
                    frontier.append(gid)
                    break
        frontier.sort(
            key=lambda gid: self._depth.get(self.netlist.gates[gid].output, 1 << 30)
        )
        return frontier

    def _x_path_exists(
        self, frontier: list[int], good: list[int], faulty: list[int]
    ) -> bool:
        """Forward path of X nets from any frontier gate to a PO?"""
        stack = [self.netlist.gates[gid].output for gid in frontier]
        seen: set[int] = set()
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if good[net] != X and faulty[net] != X:
                continue
            if net in self._po_set:
                return True
            for succ in self.netlist.nets[net].fanout:
                stack.append(self.netlist.gates[succ].output)
        return False

    def _backtrace(
        self, net: int, value: int, good: list[int]
    ) -> tuple[int, int] | None:
        """Walk an objective back through X nets to an unassigned PI."""
        nl = self.netlist
        for _hop in range(nl.num_nets + 1):
            driver = nl.nets[net].driver
            if driver is None:
                if net in self._pi_index and good[net] == X:
                    return net, value
                return None
            gate = nl.gates[driver]
            if gate.cell_type in (CellType.CONST0, CellType.CONST1):
                return None
            if gate.cell_type in _INVERTS:
                value = 1 - value
            x_inputs = [src for src in gate.inputs if good[src] == X]
            if not x_inputs:
                return None
            noncontrolling = _NONCONTROLLING[gate.cell_type]
            if noncontrolling is not None and value == 1 - noncontrolling:
                # Want the controlled output value: one input suffices ->
                # pick the easiest-to-control (shallowest) X input.
                net = min(x_inputs, key=lambda n: self._level[n])
                value = 1 - noncontrolling
            else:
                # All inputs must reach the non-controlling value: work on
                # the hardest (deepest) one first so conflicts surface early.
                net = max(x_inputs, key=lambda n: self._level[n])
                if noncontrolling is not None:
                    value = noncontrolling
        return None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def generate(self, fault: Fault) -> PodemResult:
        """Try to generate a test for ``fault``."""
        assignment: dict[int, int] = {}
        stack: list[list] = []   # [pi, value, flipped]
        backtracks = 0

        while True:
            good, faulty = self._simulate(assignment, fault)
            if self._detected(good, faulty):
                return PodemResult(
                    PodemOutcome.DETECTED, self._pack(assignment), backtracks
                )

            step: tuple[int, int] | None = None
            objective = self._objective(good, faulty, fault)
            if objective is not None:
                step = self._backtrace(objective[0], objective[1], good)

            if step is not None:
                pi, value = step
                assignment[pi] = value
                stack.append([pi, value, False])
                continue

            # Dead end: flip the most recent unflipped decision.
            backtracks += 1
            if backtracks > self.backtrack_limit:
                return PodemResult(PodemOutcome.ABORTED, None, backtracks)
            while stack and stack[-1][2]:
                pi, _value, _flipped = stack.pop()
                del assignment[pi]
            if not stack:
                return PodemResult(PodemOutcome.UNTESTABLE, None, backtracks)
            stack[-1][2] = True
            stack[-1][1] ^= 1
            assignment[stack[-1][0]] = stack[-1][1]

    def _pack(self, assignment: dict[int, int]) -> int:
        pattern = 0
        for pi, value in assignment.items():
            if value == ONE:
                pattern |= 1 << self._pi_index[pi]
        return pattern


def pack_patterns(netlist: Netlist, patterns: list[int]) -> dict[int, int]:
    """Pack per-pattern PI words into per-PI pattern vectors.

    ``patterns[k]`` holds pattern *k* as an integer whose bit *i* is the
    value of ``netlist.inputs[i]``.  The result maps PI net id -> vector
    whose bit *k* is that PI's value under pattern *k*.
    """
    vectors: dict[int, int] = {pi: 0 for pi in netlist.inputs}
    for k, pattern in enumerate(patterns):
        for i, pi in enumerate(netlist.inputs):
            if (pattern >> i) & 1:
                vectors[pi] |= 1 << k
    return vectors

class FaultSimulator:
    """Reusable fault-simulation context for one netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._order = netlist.topological_order()
        self._position = {gid: i for i, gid in enumerate(self._order)}
        self._cone_cache: dict[tuple[int, int | None], tuple[int, ...]] = {}
        self._po_set = set(netlist.outputs)

    # ------------------------------------------------------------------
    def _cone(self, fault: Fault) -> tuple[int, ...]:
        """Topologically sorted gate ids a fault can influence."""
        key = (fault.net, fault.gate)
        cached = self._cone_cache.get(key)
        if cached is not None:
            return cached
        if fault.is_branch:
            gates = {fault.gate}
            gates |= self.netlist.fanout_cone(self.netlist.gates[fault.gate].output)
        else:
            gates = self.netlist.fanout_cone(fault.net)
        cone = tuple(sorted(gates, key=self._position.__getitem__))
        self._cone_cache[key] = cone
        return cone

    # ------------------------------------------------------------------
    def simulate_word(
        self,
        patterns: list[int],
        faults: list[Fault],
    ) -> dict[Fault, int]:
        """Fault-simulate up to :data:`WORD` patterns against ``faults``.

        Returns a map fault -> detection mask (bit *k* set when pattern
        *k* propagates the fault to at least one primary output).
        """
        if len(patterns) > WORD:
            raise ValueError(f"at most {WORD} patterns per word")
        num = len(patterns)
        all_ones = (1 << num) - 1
        pi_vectors = pack_patterns(self.netlist, patterns)
        good = _evaluate(self.netlist, pi_vectors, num)

        gates = self.netlist.gates
        nets = self.netlist.nets
        detections: dict[Fault, int] = {}

        for fault in faults:
            stuck_vec = all_ones if fault.stuck_at else 0
            overlay: dict[int, int] = {}

            if not fault.is_branch:
                # Activation requires the good value to differ somewhere.
                if good[fault.net] == stuck_vec:
                    detections[fault] = 0
                    continue
                overlay[fault.net] = stuck_vec

            detect = 0
            for gid in self._cone(fault):
                gate = gates[gid]
                ins = [overlay.get(n, good[n]) for n in gate.inputs]
                if fault.is_branch and gid == fault.gate:
                    ins[fault.pin] = stuck_vec
                value = evaluate_cell(gate.cell_type, ins, all_ones)
                if value == good[gate.output]:
                    # Converged back to good value: only record if the net
                    # was previously diverged, to keep the overlay small.
                    if gate.output in overlay:
                        overlay[gate.output] = value
                    continue
                overlay[gate.output] = value
                if gate.output in self._po_set:
                    detect |= value ^ good[gate.output]
            if not fault.is_branch and fault.net in self._po_set:
                detect |= overlay[fault.net] ^ good[fault.net]
            detections[fault] = detect & all_ones
        return detections


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[Fault, Fault] = {}

    def find(self, item: Fault) -> Fault:
        parent = self._parent.setdefault(item, item)
        if parent is item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: Fault, b: Fault) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


#: (equivalent input value, output value) per collapsible cell type.
_EQUIV_RULES: dict[CellType, tuple[int, int]] = {
    CellType.AND: (0, 0),
    CellType.NAND: (0, 1),
    CellType.OR: (1, 1),
    CellType.NOR: (1, 0),
}


def collapse_faults(
    netlist: Netlist, faults: list[Fault] | None = None
) -> tuple[list[Fault], dict[Fault, Fault]]:
    """Equivalence-collapse a fault list.

    Returns ``(representatives, class_map)`` where ``class_map`` sends
    every original fault to its class representative.
    """
    if faults is None:
        faults = enumerate_faults(netlist)
    fault_set = set(faults)
    uf = _UnionFind()

    def pin_fault(gate_id: int, pin: int, src: int, value: int) -> Fault:
        branch = Fault(src, value, gate=gate_id, pin=pin)
        if branch in fault_set:
            return branch
        return Fault(src, value)

    for gate in netlist.gates:
        out = gate.output
        out0, out1 = Fault(out, 0), Fault(out, 1)
        if out0 not in fault_set:
            continue
        if gate.cell_type is CellType.BUF:
            uf.union(out0, pin_fault(gate.gid, 0, gate.inputs[0], 0))
            uf.union(out1, pin_fault(gate.gid, 0, gate.inputs[0], 1))
        elif gate.cell_type is CellType.NOT:
            uf.union(out1, pin_fault(gate.gid, 0, gate.inputs[0], 0))
            uf.union(out0, pin_fault(gate.gid, 0, gate.inputs[0], 1))
        elif gate.cell_type in _EQUIV_RULES:
            in_val, out_val = _EQUIV_RULES[gate.cell_type]
            out_fault = out1 if out_val else out0
            for pin, src in enumerate(gate.inputs):
                candidate = pin_fault(gate.gid, pin, src, in_val)
                if candidate in fault_set:
                    uf.union(out_fault, candidate)

    class_map = {f: uf.find(f) for f in faults}
    seen: set[Fault] = set()
    representatives: list[Fault] = []
    for f in faults:
        rep = class_map[f]
        if rep not in seen:
            seen.add(rep)
            representatives.append(rep)
    return representatives, class_map


def run_atpg(
    netlist: Netlist,
    seed: int = 0,
    random_words: int = 8,
    backtrack_limit: int = 64,
    compact: bool = True,
    podem_calls: list[tuple[Fault, PodemResult]] | None = None,
) -> dict:
    """Generate a compacted stuck-at test set for ``netlist``.

    ``random_words`` words of 64 random patterns are fault-simulated with
    dropping first; PODEM then targets the survivors.  With ``compact``
    the pattern list is reduced by reverse-order fault simulation.

    The disk cache is left out: the result is returned as
    ``ATPGResult.to_json()``, and every fault handed to PODEM is appended
    to ``podem_calls`` with its result.
    """
    faults, _class_map = collapse_faults(netlist)
    sim = FaultSimulator(netlist)
    rng = random.Random(seed)
    num_pis = len(netlist.inputs)

    active: list[Fault] = list(faults)
    kept_patterns: list[int] = []
    detected = 0

    # Phase 1: random patterns, keeping only first-detecting ones.
    # Every third/fourth word is weight-biased (25% / 75% ones): carry
    # chains, shifter fill paths and wide control gates are notoriously
    # resistant to uniform random patterns.
    for _w in range(random_words):
        if not active:
            break
        if _w % 4 == 2:
            word = [
                rng.getrandbits(num_pis) & rng.getrandbits(num_pis)
                for _ in range(WORD)
            ]
        elif _w % 4 == 3:
            word = [
                rng.getrandbits(num_pis) | rng.getrandbits(num_pis)
                for _ in range(WORD)
            ]
        else:
            word = [rng.getrandbits(num_pis) for _ in range(WORD)]
        results = sim.simulate_word(word, active)
        useful: set[int] = set()
        survivors: list[Fault] = []
        for fault in active:
            det_mask = results[fault]
            if det_mask:
                detected += 1
                useful.add((det_mask & -det_mask).bit_length() - 1)
            else:
                survivors.append(fault)
        kept_patterns.extend(word[k] for k in sorted(useful))
        active = survivors

    # Phase 2a: structural pruning — a fault with no path to any primary
    # output is untestable by construction (dead logic); proving this via
    # PODEM search would burn the whole backtrack budget instead.
    podem = Podem(netlist, backtrack_limit=backtrack_limit)
    redundant = 0
    aborted = 0
    undetected_names: list[str] = []
    po_set = set(netlist.outputs)
    reachable: list[Fault] = []
    for fault in active:
        if fault.is_branch:
            cone_nets = {netlist.gates[g].output for g in sim._cone(fault)}
        else:
            cone_nets = {fault.net} | {
                netlist.gates[g].output for g in sim._cone(fault)
            }
        if cone_nets & po_set:
            reachable.append(fault)
        else:
            redundant += 1
    active = reachable

    # Phase 2b: PODEM on the random-resistant faults.
    remaining = list(active)
    while remaining:
        fault = remaining.pop(0)
        result = podem.generate(fault)
        if podem_calls is not None:
            podem_calls.append((fault, result))
        if result.outcome is PodemOutcome.DETECTED:
            assert result.pattern is not None
            # Fill unassigned PIs randomly to catch collateral faults.
            pattern = result.pattern | (rng.getrandbits(num_pis) & ~result.pattern)
            verify = sim.simulate_word([pattern], [fault])[fault]
            if not verify:
                pattern = result.pattern   # random fill masked it; use pure
            kept_patterns.append(pattern)
            detected += 1
            if remaining:
                drop = sim.simulate_word([pattern], remaining)
                still = [f for f in remaining if not drop[f]]
                detected += len(remaining) - len(still)
                remaining = still
        elif result.outcome is PodemOutcome.UNTESTABLE:
            redundant += 1
        else:
            aborted += 1
            undetected_names.append(fault.describe(netlist))

    # Phase 3: reverse-order compaction.
    if compact and kept_patterns:
        kept_patterns = _compact(sim, faults, kept_patterns)

    return {
        "netlist_name": netlist.name,
        "patterns": kept_patterns,
        "num_faults": len(faults),
        "detected": detected,
        "redundant": redundant,
        "aborted": aborted,
        "undetected_faults": undetected_names,
    }


def _compact(
    sim: FaultSimulator, faults: list[Fault], patterns: list[int]
) -> list[int]:
    """Reverse-order fault simulation: keep patterns that add coverage."""
    remaining = list(faults)
    kept: list[int] = []
    for pattern in reversed(patterns):
        if not remaining:
            break
        results = sim.simulate_word([pattern], remaining)
        survivors = [f for f in remaining if not results[f]]
        if len(survivors) < len(remaining):
            kept.append(pattern)
            remaining = survivors
    kept.reverse()
    return kept


# ----------------------------------------------------------------------
# Transition-fault analysis as it stood before word-parallel stuck-at
# detections: every (capture pattern, fault) question is one single-
# pattern, single-fault call into the oracle fault simulator above.
# ----------------------------------------------------------------------
class DelayAnalyzer:
    """Transition-fault analysis over a netlist and pattern sequences."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.sim = FaultSimulator(netlist)
        self.faults = enumerate_transition_faults(netlist)

    # ------------------------------------------------------------------
    def _net_values(self, pattern: int) -> list[int]:
        pi_map = {
            pi: (pattern >> i) & 1 for i, pi in enumerate(self.netlist.inputs)
        }
        return self.netlist.evaluate(pi_map, 1)

    def _detects_stuck(self, pattern: int, fault: Fault) -> bool:
        return bool(self.sim.simulate_word([pattern], [fault])[fault])

    def pair_detects(self, init: int, capture: int, fault: TransitionFault) -> bool:
        """Does the ordered pair (init, capture) detect ``fault``?

        init must set the pre-transition value; capture must flip the
        net and observe the stuck-at equivalent.
        """
        pre = 0 if fault.rising else 1
        init_values = self._net_values(init)
        if init_values[fault.net] != pre:
            return False
        capture_values = self._net_values(capture)
        if capture_values[fault.net] != 1 - pre:
            return False
        return self._detects_stuck(capture, fault.stuck_equivalent)

    # ------------------------------------------------------------------
    def coverage_of_sequence(self, patterns: list[int]) -> DelayCoverage:
        """Transition coverage of *consecutive* pairs in one sequence.

        This is exactly what the paper's functional application gives for
        free: pattern k initialises the pair (k, k+1) launches/captures.
        """
        detected: set[TransitionFault] = set()
        if len(patterns) >= 2:
            value_cache = [self._net_values(p) for p in patterns]
            remaining = list(self.faults)
            for fault in remaining:
                if fault in detected:
                    continue
                stuck = fault.stuck_equivalent
                pre = 0 if fault.rising else 1
                for k in range(len(patterns) - 1):
                    if value_cache[k][fault.net] != pre:
                        continue
                    if value_cache[k + 1][fault.net] != 1 - pre:
                        continue
                    if self._detects_stuck(patterns[k + 1], stuck):
                        detected.add(fault)
                        break
        return DelayCoverage(
            netlist_name=self.netlist.name,
            num_faults=len(self.faults),
            detected=len(detected),
            sequence_length=len(patterns),
        )

    def augment_sequence(
        self, patterns: list[int], max_extra: int = 64
    ) -> list[int]:
        """Greedily append initialisation patterns to raise pair coverage.

        For each uncovered transition fault whose stuck-at equivalent is
        detected by some pattern ``c`` in the set, prepend-before-``c`` a
        copy of a pattern that holds the pre-transition value (reusing
        set members only — no new ATPG), until the budget runs out.
        """
        sequence = list(patterns)
        extra = 0
        value_cache = {p: self._net_values(p) for p in set(sequence)}

        for fault in self.faults:
            if extra >= max_extra:
                break
            pre = 0 if fault.rising else 1
            stuck = fault.stuck_equivalent
            # already covered by a consecutive pair?
            if any(
                value_cache[sequence[k]][fault.net] == pre
                and value_cache[sequence[k + 1]][fault.net] == 1 - pre
                and self._detects_stuck(sequence[k + 1], stuck)
                for k in range(len(sequence) - 1)
            ):
                continue
            capture = next(
                (
                    p
                    for p in sequence
                    if value_cache[p][fault.net] == 1 - pre
                    and self._detects_stuck(p, stuck)
                ),
                None,
            )
            if capture is None:
                continue
            init = next(
                (p for p in sequence if value_cache[p][fault.net] == pre),
                None,
            )
            if init is None:
                continue
            position = sequence.index(capture)
            sequence.insert(position, init)
            extra += 1
        return sequence
