"""Transport list scheduler and move code generator.

Lowers register-allocated IR onto a concrete TTA: every IR operation
becomes an operand move, a trigger move and (usually) a result move,
placed greedily into bus slots under the architecture's resources and the
paper's transport timing relations:

* eq. 2 — the operand move lands no later than the trigger move (equality
  allowed: commits are end-of-cycle and the trigger sees fresh operands);
* eq. 3 — the result move happens >= ``latency`` cycles after the trigger;
* eqs. 4/5 — per-FU in-order issue: operands of a new operation are never
  placed at or before the previous trigger's cycle, and a new trigger is
  delayed until the previous result has been drained;
* eqs. 6-8 — socket decode latency is folded into the one-move-per-bus-
  per-cycle transport granularity.

Scheduling is per basic block with progressive resource reservation;
blocks are concatenated, jump targets patched, and the final program is
checked by :func:`repro.tta.timing.validate_program` — a scheduler bug
fails loudly, never silently.  What the blocks need to know about the
architecture (each unit's operand, trigger and result ports and its
latency, one shared :class:`PortRef` per port, each literal's slot
count) and which compares fuse into the branch guard are resolved once
per call, not per operation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compiler.ir import (
    CMP_OPCODES,
    LOAD_OPCODES,
    Branch,
    Halt,
    IRFunction,
    Jump,
    Op,
)
from repro.compiler.regalloc import RegisterAllocation, allocate
from repro.tta.arch import Architecture, UnitInstance
from repro.tta.isa import (
    GUARD_UNIT,
    Guard,
    Instruction,
    Literal,
    Move,
    PortRef,
    Program,
    fits_short_immediate,
)
from repro.tta.simulator import BRANCH_DELAY_SLOTS
from repro.tta.timing import validate_program

#: Placeholder for unpatched jump targets (never a valid address).
_JUMP_PLACEHOLDER = -1

#: Bus slots reserved for a jump move (target may patch to a long imm).
_JUMP_SLOTS = 2

_SEARCH_LIMIT = 100_000


class ScheduleError(Exception):
    """The function cannot be scheduled on this architecture."""


@dataclass
class CompileResult:
    """A compiled workload: the program plus per-block metadata."""

    program: Program
    allocation: RegisterAllocation
    block_cycles: dict[str, int]
    block_starts: dict[str, int]
    total_moves: int

    def static_cycles(self, profile: dict[str, int]) -> int:
        """Profile-weighted cycle estimate (the MOVE-style DSE metric)."""
        return sum(
            self.block_cycles[name] * count
            for name, count in profile.items()
            if name in self.block_cycles
        )


@dataclass(slots=True)
class _FUTrack:
    last_trigger: int = -1       # cycle of most recent trigger (eqs. 4/5)
    min_next_trigger: int = 0    # keep the result register drained (eq. 4)
    last_mem_trigger: int = -1   # LSU program order


@dataclass(frozen=True, slots=True)
class _OpUnit:
    """Where one unit takes an operation's operands and gives its result.

    An FU takes operand ``a`` on its non-trigger input (if it has one)
    and operand ``b`` with the opcode on its trigger; the LSU takes a
    store's data on ``wdata`` and the address on the ``addr`` trigger,
    and a load's word comes back on ``rdata``.
    """

    name: str
    operand: PortRef | None
    trigger: PortRef
    result: PortRef
    latency: int


class _PortRecords:
    """What one :func:`schedule_allocated` call resolves for all its blocks.

    A unit's operand, trigger and result ports and its latency, and
    each vreg's register with its file's read and write ports, are
    resolved the first time a block needs them instead of once per
    operation or move, so each (unit, port) the program names gets one
    shared :class:`PortRef` (moves compare ports by value, so sharing
    changes no program; moves themselves are never shared --
    :meth:`Instruction.bus_of` finds a move by identity).  Each literal
    gets one shared :class:`Literal` and its slot count.  The records live for one call; kept on
    the architecture, they would live as long as the sweep's
    architecture cache keeps it.
    """

    def __init__(self, arch: Architecture, allocation: RegisterAllocation) -> None:
        self.arch = arch
        self.num_buses = arch.num_buses
        self.guard0 = PortRef(GUARD_UNIT, "g0")
        self._allocation = allocation
        self._units: dict[str, _OpUnit] = {}
        self._rf_ports: dict[tuple[str, bool], tuple[tuple[str, PortRef], ...]] = {}
        self._homes: dict[str, tuple] = {}
        self._literals: dict[int, tuple[Literal, int]] = {}
        self._lsu: _OpUnit | None = None
        self.pc_target = PortRef(arch.pc_unit.name, "target")

    def literal(self, value: int) -> tuple[Literal, int]:
        """The shared literal and the bus slots its move takes."""
        entry = self._literals.get(value)
        if entry is None:
            slots = 1 if fits_short_immediate(value) else 2
            entry = self._literals[value] = (Literal(value), slots)
        return entry

    def fu(self, unit: UnitInstance) -> _OpUnit:
        record = self._units.get(unit.name)
        if record is None:
            spec = unit.spec
            operand = next(
                (p.name for p in spec.input_ports if not p.is_trigger), None
            )
            record = self._units[unit.name] = _OpUnit(
                unit.name,
                None if operand is None else PortRef(unit.name, operand),
                PortRef(unit.name, spec.trigger_port.name),
                PortRef(unit.name, spec.output_ports[0].name),
                spec.latency,
            )
        return record

    @property
    def lsu(self) -> _OpUnit:
        record = self._lsu
        if record is None:
            unit = self.arch.lsu
            if unit is None:
                raise ScheduleError("architecture has no load/store unit")
            name = unit.name
            record = self._lsu = _OpUnit(
                name,
                PortRef(name, "wdata"),
                PortRef(name, "addr"),
                PortRef(name, "rdata"),
                unit.spec.latency,
            )
        return record

    def rf_ports(self, rf_unit: str, output: bool) -> tuple[tuple[str, PortRef], ...]:
        """A register file's read (``output``) or write ports, in order."""
        key = (rf_unit, output)
        ports = self._rf_ports.get(key)
        if ports is None:
            spec = self.arch.unit(rf_unit).spec
            specs = spec.output_ports if output else spec.input_ports
            ports = self._rf_ports[key] = tuple(
                (p.name, PortRef(rf_unit, p.name)) for p in specs
            )
        return ports

    def home(self, vreg: str) -> tuple:
        """``(slot, reads, writes)`` of a vreg: its ``(rf unit, index)``
        and that register file's read and write ports."""
        home = self._homes.get(vreg)
        if home is None:
            slot = self._allocation.home(vreg)
            home = self._homes[vreg] = (
                slot,
                self.rf_ports(slot[0], True),
                self.rf_ports(slot[0], False),
            )
        return home


class _BlockScheduler:
    """Greedy per-block transport scheduler with immediate reservation."""

    def __init__(self, ports: _PortRecords):
        self.ports = ports
        self.num_buses = ports.num_buses
        self.home = ports.home
        self.placed: list[tuple[int, Move]] = []
        # Per-cycle bus occupancy, indexed by cycle (grown on demand):
        # the schedule search probes slot availability cycle by cycle,
        # and a flat list beats hashing every probe.
        self.bus_load: list[int] = []
        self.port_busy: set[tuple[int, str, str]] = set()
        self.avail: dict[str, int] = {}     # vreg -> first readable cycle
        self.fu: dict[str, _FUTrack] = {}
        self.guard_ready = 0
        self.last_jump: int | None = None
        self.top = 0                         # highest used cycle + 1
        # Physical-slot hazard tracking: register allocation reuses RF
        # slots across vregs, so a write to a slot must not be scheduled
        # before an earlier tenant's reads (anti-dependence) nor tie with
        # a previous write (output dependence).
        self.slot_reads: dict[tuple[str, int], int] = {}
        self.slot_writes: dict[tuple[str, int], int] = {}

    # -- resource primitives -----------------------------------------------
    def _bus_free(self, cycle: int, want: int) -> bool:
        """Slot availability, with the 1-bus long-immediate convention.

        A long immediate needs an extension slot.  On a single-bus machine
        that extension word rides in the *next* instruction, which must
        stay completely empty (variable-length immediate fetch).
        """
        load = self.bus_load
        nb = self.num_buses
        used = load[cycle] if cycle < len(load) else 0
        if want <= nb:
            return used + want <= nb
        if nb == 1 and want == 2:
            return used == 0 and (
                cycle + 1 >= len(load) or load[cycle + 1] == 0
            )
        return False

    def _occupy(self, cycle: int, want: int) -> None:
        load = self.bus_load
        nb = self.num_buses
        last = cycle + 1 if want > nb else cycle
        if last >= len(load):
            load.extend([0] * (last + 1 - len(load)))
        if want > nb:
            # 1-bus long immediate: block the extension instruction.
            load[cycle] += 1
            load[cycle + 1] = nb
        else:
            load[cycle] += want
        if last >= self.top:
            self.top = last + 1

    def _free_port(
        self, cycle: int, rf_unit: str, ports: tuple[tuple[str, PortRef], ...]
    ) -> tuple[str, PortRef] | None:
        """The first of a register file's ``ports`` not reserved at
        ``cycle``, or None."""
        port_busy = self.port_busy
        for entry in ports:
            if (cycle, rf_unit, entry[0]) not in port_busy:
                return entry
        return None

    # -- generic "deliver a value to an input port" -------------------------
    def _deliver(
        self,
        operand: str | int,
        dst: PortRef,
        earliest: int,
        opcode: str | None = None,
        reserve_dst_port: bool = True,
    ) -> int:
        """Place a move carrying ``operand`` into ``dst`` at the earliest
        feasible cycle >= ``earliest``; returns that cycle."""
        if isinstance(operand, int):
            literal, want = self.ports.literal(operand)
            cycle = max(earliest, 0)
            reads = None
        else:
            want = 1
            cycle = max(earliest, self.avail.get(operand, 0), 0)
            slot, reads, _ = self.home(operand)
            rf_unit, index = slot
        port_busy = self.port_busy
        dst_unit, dst_port = dst.unit, dst.port
        for _ in range(_SEARCH_LIMIT):
            if (
                reserve_dst_port and (cycle, dst_unit, dst_port) in port_busy
            ) or not self._bus_free(cycle, want):
                cycle += 1
                continue
            if reads is None:
                move = Move(literal, dst, opcode=opcode)
            else:
                read = self._free_port(cycle, rf_unit, reads)
                if read is None:
                    cycle += 1
                    continue
                port_busy.add((cycle, rf_unit, read[0]))
                move = Move(read[1], dst, opcode=opcode, src_reg=index)
                if cycle > self.slot_reads.get(slot, -1):
                    self.slot_reads[slot] = cycle
            self._occupy(cycle, want)
            if reserve_dst_port:
                port_busy.add((cycle, dst_unit, dst_port))
            self.placed.append((cycle, move))
            return cycle
        raise ScheduleError(f"cannot deliver {operand!r} to {dst}")

    def _drain_result(
        self,
        unit: _OpUnit,
        earliest: int,
        dst: str | None,
        to_guard: bool,
    ) -> int:
        """Place the result move (FU result register -> RF home or guard)."""
        cycle = max(earliest, 0)
        if not to_guard:
            assert dst is not None
            slot, _, writes = self.home(dst)
            cycle = max(
                cycle,
                self.slot_reads.get(slot, -1),          # anti-dependence
                self.slot_writes.get(slot, -1) + 1,     # output dependence
            )
            rf_unit, index = slot
        result = unit.result
        res_unit, res_port = result.unit, result.port
        port_busy = self.port_busy
        for _ in range(_SEARCH_LIMIT):
            if not self._bus_free(cycle, 1) or (
                cycle, res_unit, res_port
            ) in port_busy:
                cycle += 1
                continue
            if to_guard:
                move = Move(result, self.ports.guard0)
                self.guard_ready = cycle + 1
            else:
                write = self._free_port(cycle, rf_unit, writes)
                if write is None:
                    cycle += 1
                    continue
                port_busy.add((cycle, rf_unit, write[0]))
                move = Move(result, write[1], dst_reg=index)
                self.avail[dst] = cycle + 1
                self.slot_writes[slot] = cycle
            self._occupy(cycle, 1)
            port_busy.add((cycle, res_unit, res_port))
            self.placed.append((cycle, move))
            return cycle
        raise ScheduleError(f"cannot drain result of {unit.name}")

    # -- op scheduling ----------------------------------------------------
    def schedule_op(self, op: Op, guard_dst: bool = False) -> None:
        opcode = op.opcode
        if opcode == "li":
            self._schedule_copy(int(op.a), op.dst)
        elif opcode == "mov":
            self._schedule_fu_op("or", op.dst, op.a, 0, guard_dst)
        elif opcode in LOAD_OPCODES or opcode == "st":
            self._schedule_memory(op)
        else:
            self._schedule_fu_op(opcode, op.dst, op.a, op.b, guard_dst)

    def _schedule_copy(self, value: int, dst: str) -> None:
        slot, _, writes = self.home(dst)
        rf_unit, index = slot
        lit, want = self.ports.literal(value)
        cycle = max(
            0,
            self.slot_reads.get(slot, -1),
            self.slot_writes.get(slot, -1) + 1,
        )
        for _ in range(_SEARCH_LIMIT):
            if self._bus_free(cycle, want):
                write = self._free_port(cycle, rf_unit, writes)
                if write is not None:
                    self._occupy(cycle, want)
                    self.port_busy.add((cycle, rf_unit, write[0]))
                    self.placed.append(
                        (cycle, Move(lit, write[1], dst_reg=index))
                    )
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

    def _choose_fu(self, opcode: str) -> _OpUnit:
        candidates = self.ports.arch.fu_for_op(opcode)
        if not candidates:
            raise ScheduleError(f"no FU supports {opcode!r}")
        if len(candidates) == 1:
            return self.ports.fu(candidates[0])

        def pressure(unit) -> tuple[int, int]:
            track = self._track(unit.name)
            return (max(track.min_next_trigger, track.last_trigger + 1),
                    track.last_trigger)

        return self.ports.fu(min(candidates, key=pressure))

    def _schedule_fu_op(
        self,
        opcode: str,
        dst: str | None,
        a: str | int | None,
        b: str | int | None,
        guard_dst: bool,
    ) -> None:
        unit = self._choose_fu(opcode)
        track = self._track(unit.name)

        t_op = track.last_trigger  # so trigger lower bound is last_trigger+1
        if unit.operand is not None:
            t_op = self._deliver(a, unit.operand, earliest=track.last_trigger + 1)
        t_trig = self._deliver(
            b,
            unit.trigger,
            earliest=max(t_op, track.min_next_trigger, track.last_trigger + 1),
            opcode=opcode,
        )
        t_res = self._drain_result(unit, t_trig + unit.latency, dst, guard_dst)
        track.last_trigger = t_trig
        track.min_next_trigger = max(
            track.min_next_trigger, t_res - unit.latency + 1
        )

    def _schedule_memory(self, op: Op) -> None:
        unit = self.ports.lsu
        track = self._track(unit.name)
        is_store = op.opcode == "st"

        t_op = track.last_trigger
        if is_store:
            t_op = self._deliver(
                op.b, unit.operand, earliest=track.last_trigger + 1
            )
        t_trig = self._deliver(
            op.a,
            unit.trigger,
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
                unit, t_trig + unit.latency, op.dst, False
            )
            track.min_next_trigger = max(
                track.min_next_trigger, t_res - unit.latency + 1
            )

    # -- control flow ----------------------------------------------------
    def schedule_guard_load(self, cond: str) -> None:
        """Copy a boolean vreg from its RF home into guard register g0."""
        cycle = self._deliver(
            cond, self.ports.guard0, earliest=0, reserve_dst_port=False
        )
        self.guard_ready = cycle + 1

    def schedule_jump(self, guarded: bool, invert: bool) -> int:
        """Place a jump move; target patched after layout."""
        target = self.ports.pc_target
        earliest = max(
            self.guard_ready if guarded else 0,
            self.top - 1 - BRANCH_DELAY_SLOTS + 1,   # work finishes in slot
            0,
        )
        if self.last_jump is not None:
            # A second jump must not sit in the first one's delay window.
            earliest = max(earliest, self.last_jump + BRANCH_DELAY_SLOTS + 1)
        cycle = earliest
        pc_unit, pc_port = target.unit, target.port
        for _ in range(_SEARCH_LIMIT):
            if self._bus_free(cycle, _JUMP_SLOTS) and (
                (cycle, pc_unit, pc_port) not in self.port_busy
            ):
                guard = Guard(0, invert) if guarded else None
                move = Move(
                    Literal(_JUMP_PLACEHOLDER),
                    target,
                    opcode="jump",
                    guard=guard,
                )
                self._occupy(cycle, _JUMP_SLOTS)
                self.port_busy.add((cycle, pc_unit, pc_port))
                self.placed.append((cycle, move))
                self.last_jump = cycle
                return cycle
            cycle += 1
        raise ScheduleError("cannot place jump")

    # -- finalisation ----------------------------------------------------
    def build_instructions(self, length: int, halt: bool) -> list[Instruction]:
        """The block's instructions: each cycle's moves fill buses 0, 1,
        ... in placement order."""
        nb = self.num_buses
        instructions = [Instruction([None] * nb) for _ in range(length)]
        filled = [0] * length
        for cycle, move in self.placed:
            bus = filled[cycle]
            if bus < nb:
                instructions[cycle].slots[bus] = move
            filled[cycle] = bus + 1
        if length and max(filled) > nb:
            # Name the overflowing cycle that was placed into first.
            cycle = next(c for c, _ in self.placed if filled[c] > nb)
            raise ScheduleError(f"slot overflow at relative cycle {cycle}")
        if halt and instructions:
            instructions[-1].halt = True
        return instructions


# ----------------------------------------------------------------------
# whole-function compilation
# ----------------------------------------------------------------------
def compile_ir(
    fn: IRFunction,
    arch: Architecture,
    profile: dict[str, int] | None = None,
    validate: bool = True,
) -> CompileResult:
    """Allocate, schedule and lay out ``fn`` for ``arch``."""
    fn.validate()
    rewritten, allocation = allocate(fn, arch, profile)
    return schedule_allocated(rewritten, allocation, arch, validate=validate)


def schedule_allocated(
    rewritten: IRFunction,
    allocation: RegisterAllocation,
    arch: Architecture,
    validate: bool = True,
) -> CompileResult:
    """Schedule and lay out an already register-allocated function.

    ``rewritten``/``allocation`` must come from :func:`allocate` against
    an architecture with the *same register files* — the scheduler reads
    but never mutates them, so one allocation can be reused across every
    configuration sharing an RF arrangement (the exploration sweeps do
    exactly this via ``EvaluationContext``).  Port records and the
    fusable compares are resolved once per call, for every block.
    """
    ports = _PortRecords(arch, allocation)
    fused = _fusable_cmps(rewritten)
    program = Program(name=rewritten.name, data=dict(rewritten.data))
    instructions = program.instructions
    jump_fixups: list[tuple[str, int, str]] = []   # (block, rel cycle, target)
    block_cycles: dict[str, int] = {}
    block_starts: dict[str, int] = {}
    total_moves = 0

    names = list(rewritten.blocks)
    for position, name in enumerate(names):
        block = rewritten.blocks[name]
        sched = _BlockScheduler(ports)

        guard_op_index = fused.get(name)
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
                    # Invert: branch away only when the condition is false.
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
        block_instrs = sched.build_instructions(length, halt)
        block_cycles[name] = length
        # Layout: blocks follow each other in IR order; each placed move
        # fills exactly one slot.
        block_instrs[0].label = name
        block_starts[name] = program.labels[name] = len(instructions)
        instructions.extend(block_instrs)
        total_moves += len(sched.placed)

    for name, rel_cycle, target in jump_fixups:
        instruction = instructions[block_starts[name] + rel_cycle]
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


def _fusable_cmps(fn: IRFunction) -> dict[str, int]:
    """Per block name, the index of a cmp op whose only consumer is the
    block's branch.

    When found, the cmp's result move targets guard register g0 directly,
    skipping the RF round trip — the scheduler's one classic TTA
    optimisation (software bypassing of the condition).  A condition
    qualifies when no op of the function reads it and no other block
    branches on it; one scan of the function answers that for every
    block.
    """
    read: set[str] = set()
    branches_on: dict[str, int] = {}
    for block in fn.blocks.values():
        for op in block.ops:
            read.update(op.sources())
        term = block.terminator
        if isinstance(term, Branch):
            branches_on[term.cond] = branches_on.get(term.cond, 0) + 1
    fused: dict[str, int] = {}
    for name, block in fn.blocks.items():
        term = block.terminator
        if not isinstance(term, Branch):
            continue
        cond = term.cond
        if cond in read or branches_on[cond] > 1:
            continue
        def_index = None
        for index, op in enumerate(block.ops):
            if op.dst == cond:
                def_index = index
        if def_index is not None and block.ops[def_index].opcode in CMP_OPCODES:
            fused[name] = def_index
    return fused
