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
* :func:`schedule_allocated` and :func:`validate_program` -- the compile
  path as it stood before per-program port records: the block scheduler
  resolving each unit's ports per operation and scanning the function
  for a fusable compare once per block, and the timing validator checking
  each move through three helper calls.  Every program, schedule error
  and violation list of the shipped compile path must equal these.
"""

from __future__ import annotations

import enum
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence, TypeVar

from repro.atpg.delay import (
    DelayCoverage,
    TransitionFault,
    enumerate_transition_faults,
)
from repro.atpg.faults import Fault, enumerate_faults
from repro.atpg.faultsim import WORD
from repro.compiler.ir import (
    CMP_OPCODES,
    LOAD_OPCODES,
    Branch,
    Halt,
    IRFunction,
    Jump,
    Op,
)
from repro.compiler.regalloc import RegisterAllocation
from repro.compiler.scheduler import CompileResult, ScheduleError
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
from repro.tta.isa import (
    GUARD_UNIT,
    SHORT_IMM_BITS,
    Guard,
    Instruction,
    Literal,
    Move,
    PortRef,
    Program,
)
from repro.tta.simulator import BRANCH_DELAY_SLOTS, DMEM_WORDS, SimulationError
from repro.tta.timing import (
    KNOWN_FU_OPS,
    LSU_OPCODES,
    PC_OPCODES,
    TimingViolation,
)
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


# ----------------------------------------------------------------------
# The compile path as it stood before per-program port records: the
# block scheduler resolving each unit's ports with ``next(...)`` per
# operation and re-scanning the function for a fusable compare per
# block, and the timing validator checking every move through three
# helper calls.  Every program, ``ScheduleError`` message and
# ``TimingViolation`` list of the shipped compile path must equal these.
# ----------------------------------------------------------------------
#: Placeholder for unpatched jump targets (never a valid address).
_JUMP_PLACEHOLDER = -1

#: Bus slots reserved for a jump move (target may patch to a long imm).
_JUMP_SLOTS = 2

_SEARCH_LIMIT = 100_000

#: Literals outside [-limit, limit) need a long-immediate extension slot.
_SHORT_IMM_LIMIT = 1 << (SHORT_IMM_BITS - 1)


def _needs_long_immediate(move: Move) -> bool:
    if not isinstance(move.src, Literal):
        return False
    return not -_SHORT_IMM_LIMIT <= move.src.value < _SHORT_IMM_LIMIT


@dataclass(slots=True)
class _FUTrack:
    last_trigger: int = -1       # cycle of most recent trigger (eqs. 4/5)
    min_next_trigger: int = 0    # keep the result register drained (eq. 4)
    last_mem_trigger: int = -1   # LSU program order


class _BlockScheduler:
    """Greedy per-block transport scheduler with immediate reservation."""

    def __init__(self, arch: Architecture, allocation: RegisterAllocation):
        self.arch = arch
        self.num_buses = arch.num_buses
        self.allocation = allocation
        self.placed: list[tuple[int, Move]] = []
        self.bus_load: list[int] = []
        self.port_busy: set[tuple[int, str, str]] = set()
        self._rf_read_ports: dict[str, tuple[str, ...]] = {}
        self._rf_write_ports: dict[str, tuple[str, ...]] = {}
        self.avail: dict[str, int] = {}     # vreg -> first readable cycle
        self.fu: dict[str, _FUTrack] = {}
        self.guard_ready = 0
        self.last_jump: int | None = None
        self.top = 0                         # highest used cycle + 1
        self.slot_reads: dict[tuple[str, int], int] = {}
        self.slot_writes: dict[tuple[str, int], int] = {}

    # -- resource primitives -----------------------------------------------
    @staticmethod
    def _imm_slots(src) -> int:
        if isinstance(src, Literal):
            return 1 if -_SHORT_IMM_LIMIT <= src.value < _SHORT_IMM_LIMIT else 2
        return 1

    def _load_at(self, cycle: int) -> int:
        load = self.bus_load
        return load[cycle] if cycle < len(load) else 0

    def _add_load(self, cycle: int, amount: int) -> None:
        load = self.bus_load
        if cycle >= len(load):
            load.extend([0] * (cycle + 1 - len(load)))
        load[cycle] += amount

    def _bus_free(self, cycle: int, want: int) -> bool:
        nb = self.num_buses
        if want <= nb:
            return self._load_at(cycle) + want <= nb
        if nb == 1 and want == 2:
            return self._load_at(cycle) == 0 and self._load_at(cycle + 1) == 0
        return False

    def _port_free(self, cycle: int, unit: str, port: str) -> bool:
        return (cycle, unit, port) not in self.port_busy

    def _place(
        self,
        cycle: int,
        move: Move,
        ports: list[tuple[str, str]],
        slots: int | None = None,
    ) -> None:
        want = slots if slots is not None else self._imm_slots(move.src)
        nb = self.num_buses
        if want > nb:
            self._add_load(cycle, 1)
            self._add_load(cycle + 1, nb - self._load_at(cycle + 1))
            self.top = max(self.top, cycle + 2)
        else:
            self._add_load(cycle, want)
            self.top = max(self.top, cycle + 1)
        for unit, port in ports:
            self.port_busy.add((cycle, unit, port))
        self.placed.append((cycle, move))

    def _pick_rf_port(self, cycle: int, rf_unit: str, output: bool) -> str | None:
        cache = self._rf_read_ports if output else self._rf_write_ports
        names = cache.get(rf_unit)
        if names is None:
            spec = self.arch.unit(rf_unit).spec
            ports = spec.output_ports if output else spec.input_ports
            names = cache[rf_unit] = tuple(p.name for p in ports)
        busy = self.port_busy
        for name in names:
            if (cycle, rf_unit, name) not in busy:
                return name
        return None

    # -- generic "deliver a value to an input port" -------------------------
    def _deliver(
        self,
        operand: str | int,
        dst: PortRef,
        earliest: int,
        opcode: str | None = None,
        dst_reg: int | None = None,
        reserve_dst_port: bool = True,
    ) -> int:
        literal = isinstance(operand, int)
        ready = 0 if literal else self.avail.get(operand, 0)
        cycle = max(earliest, ready, 0)
        if literal:
            lit_src = Literal(operand)
            lit_slots = self._imm_slots(lit_src)
        else:
            rf_unit, index = self.allocation.home(operand)
        port_busy = self.port_busy
        bus_load = self.bus_load
        nb = self.num_buses
        dst_unit, dst_port = dst.unit, dst.port
        for _ in range(_SEARCH_LIMIT):
            ports: list[tuple[str, str]] = []
            if reserve_dst_port and (cycle, dst_unit, dst_port) in port_busy:
                cycle += 1
                continue
            if literal:
                src: Literal | PortRef = lit_src
                src_reg = None
                if not self._bus_free(cycle, lit_slots):
                    cycle += 1
                    continue
            else:
                if (bus_load[cycle] if cycle < len(bus_load) else 0) >= nb:
                    cycle += 1
                    continue
                rport = self._pick_rf_port(cycle, rf_unit, output=True)
                if rport is None:
                    cycle += 1
                    continue
                src = PortRef(rf_unit, rport)
                src_reg = index
                ports.append((rf_unit, rport))
            if reserve_dst_port:
                ports.append((dst.unit, dst.port))
            move = Move(src, dst, opcode=opcode, src_reg=src_reg, dst_reg=dst_reg)
            self._place(cycle, move, ports)
            if not literal:
                slot = (rf_unit, index)
                prior = self.slot_reads.get(slot, -1)
                if cycle > prior:
                    self.slot_reads[slot] = cycle
            return cycle
        raise ScheduleError(f"cannot deliver {operand!r} to {dst}")

    def _drain_result(
        self,
        unit_name: str,
        result_port: str,
        earliest: int,
        dst: str | None,
        to_guard: bool,
    ) -> int:
        cycle = max(earliest, 0)
        if not to_guard:
            assert dst is not None
            slot = self.allocation.home(dst)
            cycle = max(
                cycle,
                self.slot_reads.get(slot, -1),          # anti-dependence
                self.slot_writes.get(slot, -1) + 1,     # output dependence
            )
        port_busy = self.port_busy
        bus_load = self.bus_load
        nb = self.num_buses
        for _ in range(_SEARCH_LIMIT):
            if (bus_load[cycle] if cycle < len(bus_load) else 0) >= nb or (
                cycle, unit_name, result_port
            ) in port_busy:
                cycle += 1
                continue
            if to_guard:
                move = Move(
                    PortRef(unit_name, result_port), PortRef(GUARD_UNIT, "g0")
                )
                self._place(cycle, move, [(unit_name, result_port)])
                self.guard_ready = cycle + 1
                return cycle
            rf_unit, index = slot
            wport = self._pick_rf_port(cycle, rf_unit, output=False)
            if wport is None:
                cycle += 1
                continue
            move = Move(
                PortRef(unit_name, result_port),
                PortRef(rf_unit, wport),
                dst_reg=index,
            )
            self._place(
                cycle, move, [(unit_name, result_port), (rf_unit, wport)]
            )
            self.avail[dst] = cycle + 1
            self.slot_writes[slot] = cycle
            return cycle
        raise ScheduleError(f"cannot drain result of {unit_name}")

    # -- op scheduling ----------------------------------------------------
    def schedule_op(self, op: Op, guard_dst: bool = False) -> None:
        if op.opcode == "li":
            self._schedule_copy(int(op.a), op.dst)
            return
        if op.opcode == "mov":
            self._schedule_fu_op(Op("or", op.dst, op.a, 0), guard_dst)
            return
        if op.opcode in LOAD_OPCODES or op.opcode == "st":
            self._schedule_memory(op)
            return
        self._schedule_fu_op(op, guard_dst)

    def _schedule_copy(self, value: int, dst: str) -> None:
        slot = self.allocation.home(dst)
        rf_unit, index = slot
        src = Literal(value)
        want = self._imm_slots(src)
        cycle = max(
            0,
            self.slot_reads.get(slot, -1),
            self.slot_writes.get(slot, -1) + 1,
        )
        for _ in range(_SEARCH_LIMIT):
            if self._bus_free(cycle, want):
                wport = self._pick_rf_port(cycle, rf_unit, output=False)
                if wport is not None:
                    move = Move(src, PortRef(rf_unit, wport), dst_reg=index)
                    self._place(cycle, move, [(rf_unit, wport)])
                    self.avail[dst] = cycle + 1
                    self.slot_writes[slot] = cycle
                    return
            cycle += 1
        raise ScheduleError("cannot place literal copy")

    def _track(self, unit_name: str) -> _FUTrack:
        track = self.fu.get(unit_name)
        if track is None:
            track = self.fu[unit_name] = _FUTrack()
        return track

    def _choose_fu(self, op: Op):
        candidates = self.arch.fu_for_op(op.opcode)
        if not candidates:
            raise ScheduleError(f"no FU supports {op.opcode!r}")
        if len(candidates) == 1:
            return candidates[0]

        def pressure(unit) -> tuple[int, int]:
            track = self._track(unit.name)
            return (max(track.min_next_trigger, track.last_trigger + 1),
                    track.last_trigger)

        return min(candidates, key=pressure)

    def _schedule_fu_op(self, op: Op, guard_dst: bool) -> None:
        unit = self._choose_fu(op)
        spec = unit.spec
        track = self._track(unit.name)
        trigger_port = spec.trigger_port.name
        operand_port = next(
            (p.name for p in spec.input_ports if not p.is_trigger), None
        )
        result_port = spec.output_ports[0].name

        t_op = track.last_trigger  # so trigger lower bound is last_trigger+1
        if operand_port is not None:
            t_op = self._deliver(
                op.a, PortRef(unit.name, operand_port),
                earliest=track.last_trigger + 1,
            )
        t_trig = self._deliver(
            op.b,
            PortRef(unit.name, trigger_port),
            earliest=max(t_op, track.min_next_trigger, track.last_trigger + 1),
            opcode=op.opcode,
        )
        t_res = self._drain_result(
            unit.name, result_port, t_trig + spec.latency, op.dst, guard_dst
        )
        track.last_trigger = t_trig
        track.min_next_trigger = max(
            track.min_next_trigger, t_res - spec.latency + 1
        )

    def _schedule_memory(self, op: Op) -> None:
        unit = self.arch.lsu
        if unit is None:
            raise ScheduleError("architecture has no load/store unit")
        spec = unit.spec
        track = self._track(unit.name)
        is_store = op.opcode == "st"

        t_op = track.last_trigger
        if is_store:
            t_op = self._deliver(
                op.b, PortRef(unit.name, "wdata"),
                earliest=track.last_trigger + 1,
            )
        t_trig = self._deliver(
            op.a,
            PortRef(unit.name, "addr"),
            earliest=max(
                t_op,
                track.min_next_trigger,
                track.last_trigger + 1,
                track.last_mem_trigger + 1,
            ),
            opcode=op.opcode,
        )
        track.last_trigger = t_trig
        track.last_mem_trigger = t_trig
        if not is_store:
            t_res = self._drain_result(
                unit.name, "rdata", t_trig + spec.latency, op.dst, False
            )
            track.min_next_trigger = max(
                track.min_next_trigger, t_res - spec.latency + 1
            )

    # -- control flow ----------------------------------------------------
    def schedule_guard_load(self, cond: str) -> None:
        cycle = self._deliver(
            cond, PortRef(GUARD_UNIT, "g0"), earliest=0, reserve_dst_port=False
        )
        self.guard_ready = cycle + 1

    def schedule_jump(self, guarded: bool, invert: bool) -> int:
        pc_name = self.arch.pc_unit.name
        earliest = max(
            self.guard_ready if guarded else 0,
            self.top - 1 - BRANCH_DELAY_SLOTS + 1,   # work finishes in slot
            0,
        )
        if self.last_jump is not None:
            earliest = max(earliest, self.last_jump + BRANCH_DELAY_SLOTS + 1)
        cycle = earliest
        for _ in range(_SEARCH_LIMIT):
            if self._bus_free(cycle, _JUMP_SLOTS) and self._port_free(
                cycle, pc_name, "target"
            ):
                guard = Guard(0, invert) if guarded else None
                move = Move(
                    Literal(_JUMP_PLACEHOLDER),
                    PortRef(pc_name, "target"),
                    opcode="jump",
                    guard=guard,
                )
                self._place(
                    cycle, move, [(pc_name, "target")], slots=_JUMP_SLOTS
                )
                self.last_jump = cycle
                return cycle
            cycle += 1
        raise ScheduleError("cannot place jump")

    # -- finalisation ----------------------------------------------------
    def build_instructions(self, length: int, halt: bool) -> list[Instruction]:
        instructions = [
            Instruction(slots=[None] * self.arch.num_buses)
            for _ in range(length)
        ]
        by_cycle: dict[int, list[Move]] = {}
        for cycle, move in self.placed:
            by_cycle.setdefault(cycle, []).append(move)
        for cycle, moves in by_cycle.items():
            bus = 0
            for move in moves:
                while (
                    bus < self.arch.num_buses
                    and instructions[cycle].slots[bus] is not None
                ):
                    bus += 1
                if bus >= self.arch.num_buses:
                    raise ScheduleError(f"slot overflow at relative cycle {cycle}")
                instructions[cycle].slots[bus] = move
                bus += 1
        if halt and instructions:
            instructions[-1].halt = True
        return instructions


def schedule_allocated(
    rewritten: IRFunction,
    allocation: RegisterAllocation,
    arch: Architecture,
    validate: bool = True,
) -> CompileResult:
    """Schedule and lay out an already register-allocated function."""
    block_instrs: dict[str, list[Instruction]] = {}
    jump_fixups: list[tuple[str, int, str]] = []   # (block, rel cycle, target)
    block_cycles: dict[str, int] = {}

    names = list(rewritten.blocks)
    for position, name in enumerate(names):
        block = rewritten.blocks[name]
        sched = _BlockScheduler(arch, allocation)

        guard_op_index = _fusable_cmp(rewritten, block)
        for index, op in enumerate(block.ops):
            sched.schedule_op(op, guard_dst=(index == guard_op_index))

        term = block.terminator
        fallthrough = names[position + 1] if position + 1 < len(names) else None
        halt = isinstance(term, Halt)
        jump_cycle = None
        if isinstance(term, Jump):
            if term.target != fallthrough:
                jump_cycle = sched.schedule_jump(guarded=False, invert=False)
                jump_fixups.append((name, jump_cycle, term.target))
        elif isinstance(term, Branch):
            needs_jump = not (
                term.if_true == fallthrough and term.if_false == fallthrough
            )
            if needs_jump:
                if guard_op_index is None:
                    sched.schedule_guard_load(term.cond)
                if term.if_true == fallthrough:
                    jump_cycle = sched.schedule_jump(
                        guarded=True, invert=not term.invert
                    )
                    jump_fixups.append((name, jump_cycle, term.if_false))
                else:
                    jump_cycle = sched.schedule_jump(
                        guarded=True, invert=term.invert
                    )
                    jump_fixups.append((name, jump_cycle, term.if_true))
                    if term.if_false != fallthrough:
                        second = sched.schedule_jump(guarded=False, invert=False)
                        jump_fixups.append((name, second, term.if_false))
                        jump_cycle = second

        length = sched.top
        if jump_cycle is not None:
            length = max(length, jump_cycle + 1 + BRANCH_DELAY_SLOTS)
        length = max(length, 1)
        block_instrs[name] = sched.build_instructions(length, halt)
        block_cycles[name] = length

    program = Program(name=rewritten.name, data=dict(rewritten.data))
    block_starts: dict[str, int] = {}
    for name in names:
        block_starts[name] = len(program.instructions)
        for index, instruction in enumerate(block_instrs[name]):
            if index == 0:
                instruction.label = name
            program.append(instruction)

    for name, rel_cycle, target in jump_fixups:
        instruction = program.instructions[block_starts[name] + rel_cycle]
        for bus, move in enumerate(instruction.slots):
            if (
                move is not None
                and isinstance(move.src, Literal)
                and move.src.value == _JUMP_PLACEHOLDER
                and move.opcode == "jump"
            ):
                instruction.slots[bus] = Move(
                    Literal(block_starts[target]),
                    move.dst,
                    opcode=move.opcode,
                    guard=move.guard,
                )
                break
        else:
            raise ScheduleError(f"jump fixup lost in block {name!r}")

    total_moves = sum(len(i.moves) for i in program.instructions)
    result = CompileResult(
        program=program,
        allocation=allocation,
        block_cycles=block_cycles,
        block_starts=block_starts,
        total_moves=total_moves,
    )
    if validate:
        violations = validate_program(arch, program, strict=False)
        if violations:
            details = "; ".join(str(v) for v in violations[:5])
            raise ScheduleError(
                f"scheduler produced invalid code ({len(violations)} "
                f"violations): {details}"
            )
    return result


def _fusable_cmp(fn: IRFunction, block) -> int | None:
    """Index of a cmp op whose only consumer is this block's branch."""
    term = block.terminator
    if not isinstance(term, Branch):
        return None
    cond = term.cond
    def_index = None
    for index, op in enumerate(block.ops):
        if op.dst == cond:
            def_index = index
    if def_index is None or block.ops[def_index].opcode not in CMP_OPCODES:
        return None
    for other in fn.blocks.values():
        for op in other.ops:
            if cond in op.sources():
                return None
        if other is not block and isinstance(other.terminator, Branch):
            if other.terminator.cond == cond:
                return None
    return def_index


class _FUTracker:
    """Per-FU operation bookkeeping for relations (3) and (4)."""

    def __init__(self, latency: int):
        self.latency = latency
        self.trigger_cycles: list[int] = []
        self.results_read: list[bool] = []
        self.has_result: list[bool] = []

    def trigger(self, cycle: int, has_result: bool = True) -> None:
        self.trigger_cycles.append(cycle)
        self.results_read.append(False)
        self.has_result.append(has_result)

    def landed_index(self, cycle: int) -> int | None:
        i = bisect_right(self.trigger_cycles, cycle - self.latency) - 1
        while i >= 0 and not self.has_result[i]:
            i -= 1
        return i if i >= 0 else None


def validate_program(
    arch: Architecture,
    program: Program,
    strict: bool = True,
) -> list[TimingViolation]:
    """Check a scheduled program against the architecture and eqs. 2-8."""
    violations: list[TimingViolation] = []
    trackers: dict[str, _FUTracker] = {}
    port_table = arch.port_table
    num_buses = arch.num_buses

    def err(cycle: int, bus: int, message: str) -> None:
        violations.append(TimingViolation(cycle, bus, message))

    rf_port_use: dict[tuple[str, str], int] = {}
    dst_use: dict[tuple[str, str], int] = {}
    src_use: dict[tuple[str, str], int] = {}

    for cycle, instruction in enumerate(program.instructions):
        slots = instruction.slots
        if len(slots) > num_buses:
            err(cycle, 0, f"{len(slots)} slots > {num_buses} buses")
        num_moves = 0
        slots_used = 0
        for m in slots:
            if m is not None:
                num_moves += 1
                slots_used += 2 if _needs_long_immediate(m) else 1
        if slots_used > num_buses:
            next_empty = (
                cycle + 1 < len(program.instructions)
                and not program.instructions[cycle + 1].moves
            ) or cycle + 1 >= len(program.instructions)
            one_long = num_buses == 1 and num_moves == 1 and slots_used == 2
            if not (one_long and next_empty):
                err(cycle, 0, "long immediates exceed available bus slots")

        rf_port_use.clear()
        dst_use.clear()
        src_use.clear()

        for bus, move in enumerate(slots):
            if move is None:
                continue
            src = move.src
            dst = move.dst
            src_info = (
                port_table.get((src.unit, src.port))
                if type(src) is PortRef
                else None
            )
            dst_info = port_table.get((dst.unit, dst.port))
            _check_move_structure(
                arch, program, move, cycle, bus, err, src_info, dst_info
            )
            if type(src) is PortRef and src.unit != GUARD_UNIT:
                key = (src.unit, src.port)
                src_use[key] = src_use.get(key, 0) + 1
                if src_info is not None and src_info[0].kind is ComponentKind.RF:
                    rf_port_use[key] = rf_port_use.get(key, 0) + 1
            if dst.unit != GUARD_UNIT:
                key = (dst.unit, dst.port)
                dst_use[key] = dst_use.get(key, 0) + 1
                if dst_info is not None and dst_info[0].kind is ComponentKind.RF:
                    rf_port_use[key] = rf_port_use.get(key, 0) + 1

            _check_fu_timing(move, cycle, bus, trackers, err, src_info, dst_info)

        for (unit, port), count in dst_use.items():
            if count > 1:
                err(cycle, 0, f"{count} moves write {unit}.{port} in one cycle")
        for (unit, port), count in src_use.items():
            if count > 1:
                err(cycle, 0, f"output socket {unit}.{port} drives {count} buses")
        for (unit, port), count in rf_port_use.items():
            if count > 1:
                err(cycle, 0, f"register-file port {unit}.{port} used {count}x")

    if strict:
        for name, tracker in trackers.items():
            if not _has_result(arch, name):
                continue
            result_ops = [
                (t, tracker.results_read[i])
                for i, t in enumerate(tracker.trigger_cycles)
                if tracker.has_result[i]
            ]
            for (t, was_read) in result_ops[:-1]:
                if not was_read:
                    err(
                        t, 0,
                        f"{name}: result of trigger at cycle {t} overwritten unread",
                    )
    return violations


def _has_result(arch: Architecture, unit: str) -> bool:
    spec = arch.unit(unit).spec
    return bool(spec.output_ports) and spec.kind is ComponentKind.FU


def _check_move_structure(
    arch, program, move: Move, cycle, bus, err, src_info=None, dst_info=None
) -> None:
    if move.guard is not None and not 0 <= move.guard.index < arch.num_guard_regs:
        err(cycle, bus, f"guard g{move.guard.index} out of range")

    if move.dst.unit == GUARD_UNIT:
        index = _guard_index(move.dst.port)
        if index is None or index >= arch.num_guard_regs:
            err(cycle, bus, f"bad guard destination {move.dst}")
    else:
        if dst_info is None:
            dst_info = arch.port_table.get((move.dst.unit, move.dst.port))
        if dst_info is None:
            if move.dst.unit not in arch.units:
                err(cycle, bus, f"unknown unit {move.dst.unit!r}")
            else:
                err(cycle, bus, f"unknown port {move.dst}")
            return
        spec, port, buses = dst_info
        if not port.is_input:
            err(cycle, bus, f"{move.dst} is not an input port")
        if bus not in buses:
            err(cycle, bus, f"{move.dst} not connected to bus {bus}")
        if spec.kind is ComponentKind.RF:
            if move.dst_reg is None or not 0 <= move.dst_reg < spec.num_regs:
                err(cycle, bus, f"bad register index on {move.dst}")
        if port.is_trigger:
            _check_opcode(arch, spec, move, cycle, bus, err)
        if spec.kind is ComponentKind.PC:
            target = move.src
            if isinstance(target, Literal) and not 0 <= target.value <= len(
                program.instructions
            ):
                err(cycle, bus, f"jump target {target.value} outside program")

    if isinstance(move.src, Literal):
        if _needs_long_immediate(move) and arch.imm_unit is None:
            err(cycle, bus, "long immediate needs an immediate unit")
        return
    if move.src.unit == GUARD_UNIT:
        index = _guard_index(move.src.port)
        if index is None or index >= arch.num_guard_regs:
            err(cycle, bus, f"bad guard source {move.src}")
        return
    if src_info is None:
        src_info = arch.port_table.get((move.src.unit, move.src.port))
    if src_info is None:
        if move.src.unit not in arch.units:
            err(cycle, bus, f"unknown unit {move.src.unit!r}")
        else:
            err(cycle, bus, f"unknown port {move.src}")
        return
    spec, port, buses = src_info
    if port.is_input:
        err(cycle, bus, f"{move.src} is not an output port")
    if bus not in buses:
        err(cycle, bus, f"{move.src} not connected to bus {bus}")
    if spec.kind is ComponentKind.RF:
        if move.src_reg is None or not 0 <= move.src_reg < spec.num_regs:
            err(cycle, bus, f"bad register index on {move.src}")


def _check_opcode(arch, spec, move: Move, cycle, bus, err) -> None:
    if spec.kind is ComponentKind.FU:
        if move.opcode not in spec.ops:
            err(cycle, bus, f"opcode {move.opcode!r} not supported by {move.dst.unit}")
        elif move.opcode not in KNOWN_FU_OPS:
            err(cycle, bus, f"opcode {move.opcode!r} has no behavioural model")
    elif spec.kind is ComponentKind.LSU:
        if move.opcode not in LSU_OPCODES:
            err(cycle, bus, f"LSU opcode {move.opcode!r} invalid")
    elif spec.kind is ComponentKind.PC:
        if move.opcode not in PC_OPCODES:
            err(cycle, bus, f"PC opcode {move.opcode!r} invalid")


def _check_fu_timing(
    move: Move, cycle, bus, trackers, err, src_info, dst_info
) -> None:
    if (
        src_info is not None
        and not src_info[1].is_input
        and src_info[0].kind in (ComponentKind.FU, ComponentKind.LSU)
    ):
        src = move.src
        tracker = trackers.get(src.unit)
        landed = tracker.landed_index(cycle) if tracker else None
        if landed is None:
            err(
                cycle,
                bus,
                f"read of {src} before any result is ready "
                f"(eq. 3: C(R) - C(T) >= {src_info[0].latency})",
            )
        else:
            tracker.results_read[landed] = True

    if dst_info is not None and dst_info[1].is_trigger:
        spec = dst_info[0]
        if spec.kind in (ComponentKind.FU, ComponentKind.LSU):
            tracker = trackers.setdefault(
                move.dst.unit, _FUTracker(spec.latency)
            )
            tracker.trigger(cycle, has_result=move.opcode != "st")


def _guard_index(port: str) -> int | None:
    if port.startswith("g") and port[1:].isdigit():
        return int(port[1:])
    return None
