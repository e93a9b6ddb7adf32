"""Cycle-accurate TTA simulator.

Implements the hybrid-pipelining semantics of Fig. 3:

* all moves of an instruction *sample* sources at begin-of-cycle and
  *commit* at end-of-cycle;
* a trigger launches its FU with the post-commit operand registers
  (eq. 2: ``C(T) - C(O) >= 0`` with equality allowed) and the operands
  are latched into the FU pipeline, enforcing relation (5);
* results land in the result register ``latency`` cycles after the
  trigger and are readable from that cycle on (eq. 3);
* register-file writes and guard writes become visible the next cycle;
* jumps (moves into the PC trigger) have one delay slot.

The functional units execute their *behavioural* reference models — the
gate level exists for area/test back-annotation, and the differential
tests in ``tests/`` pin the two views together.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
from repro.tta.activity import ActivityTrace
from repro.tta.arch import Architecture
from repro.tta.isa import GUARD_UNIT, Guard, Instruction, Literal, Move, PortRef, Program
from repro.util.bitops import mask

#: Jump delay slots (moves into the PC take effect after this many extra
#: instructions have issued).
BRANCH_DELAY_SLOTS = 1

#: Data-memory size in words; every LSU address must fall below it.
DMEM_WORDS = 65536

#: LSU opcode -> read-extension mode.
_LSU_MODE = {
    "ld": "word",
    "ld_ls": "low_signed",
    "ld_lu": "low_unsigned",
    "ld_h": "high",
}


class SimulationError(Exception):
    """Runtime fault: bad port, port overflow, unmapped address..."""


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
        self.activity: ActivityTrace | None = None
        if activity:
            from repro.tta.encoding import MoveEncoder

            self.activity = ActivityTrace(width=arch.width)
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

    def set_rf_value(self, unit: str, reg: int, value: int) -> None:
        self._rf[unit].poke(reg, value)

    def dmem_read(self, addr: int) -> int:
        return self.dmem.get(addr, 0)

    def dmem_write(self, addr: int, value: int) -> None:
        self.dmem[addr] = value & self._width_mask

    def guard(self, index: int) -> int:
        return self.guards[index]

    def result_of(self, unit: str) -> int:
        return self._fu[unit].result

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
