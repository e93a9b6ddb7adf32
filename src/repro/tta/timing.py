"""Transport timing relations (paper eqs. 2-8) as a program validator.

The stage-control FSM of Fig. 3 "ensures these conditions are fulfilled"
in hardware; here the same conditions are checked statically on scheduled
programs, so every scheduler bug that would deadlock or corrupt the
pipeline surfaces as a :class:`TimingViolation` list instead of silence.

Semantics note (eqs. 2 and 5): all moves of an instruction commit
together at end-of-cycle and a trigger launches with the post-commit
operand registers, so an operand move *in the trigger's cycle* feeds that
trigger (C(T) - C(O) >= 0 with equality allowed); operands of in-flight
operations are latched into the FU pipeline at trigger time, which is
what makes relation (5) hold by construction for later operand writes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from repro.components.reference import ALU_OPS, CMP_OPS, MUL_OPS, SHIFTER_OPS
from repro.components.spec import ComponentKind, ComponentSpec
from repro.tta.arch import Architecture
from repro.tta.isa import GUARD_UNIT, Literal, Move, Program, fits_short_immediate

#: Opcodes understood by the behavioural FU dispatch.
KNOWN_FU_OPS = set(ALU_OPS) | set(CMP_OPS) | set(MUL_OPS) | set(SHIFTER_OPS)
LSU_OPCODES = {"ld", "ld_ls", "ld_lu", "ld_h", "st"}
PC_OPCODES = {"jump"}


@dataclass(frozen=True)
class TimingViolation:
    """One validator finding."""

    cycle: int
    bus: int
    message: str

    def __str__(self) -> str:
        return f"cycle {self.cycle}, bus {self.bus}: {self.message}"


class _FUTracker:
    """Per-FU operation bookkeeping for relations (3) and (4)."""

    __slots__ = ("latency", "trigger_cycles", "results_read", "has_result")

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
        """Most recent result-producing op that has landed by ``cycle``.

        ``trigger_cycles`` is ascending (the validator walks the program
        in cycle order), so the latest landed trigger is found by bisect
        instead of a scan over every operation the FU ever ran.
        """
        i = bisect_right(self.trigger_cycles, cycle - self.latency) - 1
        while i >= 0 and not self.has_result[i]:
            i -= 1
        return i if i >= 0 else None


class _PortRecord(NamedTuple):
    """What a move end on one (unit, port) is checked against."""

    is_input: bool
    buses: frozenset[int]       # connected bus indices
    regs: int | None            # register count of an RF port, else None
    ops: set[str] | None        # opcodes a trigger accepts; None: no check
    is_pc: bool                 # literal sources are jump targets
    reads_result: bool          # an FU/LSU result port: eq. 3 applies
    starts_op: bool             # an FU/LSU trigger: starts an operation
    latency: int
    spec: ComponentSpec         # for the rare opcode message


def _port_records(arch: Architecture) -> dict[tuple[str, str], _PortRecord]:
    """(unit, port) -> its :class:`_PortRecord`, from ``arch.port_table``.

    Built once per :func:`validate_program` call, so the per-move pass
    reads one record instead of asking the spec and port objects again
    for every move.  The records live for one call; kept on the
    architecture, they would live as long as the sweep's architecture
    cache keeps it.
    """
    records = {}
    for key, (spec, port, buses) in arch.port_table.items():
        kind = spec.kind
        timed = kind is ComponentKind.FU or kind is ComponentKind.LSU
        is_input = port.is_input
        ops = None
        if port.is_trigger:
            if kind is ComponentKind.FU:
                ops = KNOWN_FU_OPS.intersection(spec.ops)
            elif kind is ComponentKind.LSU:
                ops = LSU_OPCODES
            elif kind is ComponentKind.PC:
                ops = PC_OPCODES
        records[key] = _PortRecord(
            is_input,
            buses,
            spec.num_regs if kind is ComponentKind.RF else None,
            ops,
            kind is ComponentKind.PC,
            timed and not is_input,
            timed and port.is_trigger,
            spec.latency,
            spec,
        )
    return records


def validate_program(
    arch: Architecture,
    program: Program,
    strict: bool = True,
) -> list[TimingViolation]:
    """Check a scheduled program against the architecture and eqs. 2-8.

    With ``strict`` set, results that are overwritten before ever being
    read are also reported (almost always a scheduler bug).

    One pass over the moves: per instruction, the slot budget (one move
    per bus, a long immediate taking two), then per move its guard,
    destination and source (direction, connectivity, register index,
    opcode, jump target) and the eq. 3 result timing, then the
    instruction's port conflicts.  Findings come in that order.
    """
    violations: list[TimingViolation] = []
    trackers: dict[str, _FUTracker] = {}
    records = _port_records(arch)
    num_buses = arch.num_buses
    num_guards = arch.num_guard_regs
    has_imm_unit = arch.imm_unit is not None
    instructions = program.instructions
    length = len(instructions)

    def err(cycle: int, bus: int, message: str) -> None:
        violations.append(TimingViolation(cycle, bus, message))

    for cycle, instruction in enumerate(instructions):
        slots = instruction.slots
        if len(slots) > num_buses:
            err(cycle, 0, f"{len(slots)} slots > {num_buses} buses")
        head = len(violations)      # a slot-budget finding goes here
        num_moves = 0
        slots_used = 0
        dst_keys: list[tuple[str, str]] = []
        src_keys: list[tuple[str, str]] = []
        rf_keys: list[tuple[str, str]] = []

        for bus, move in enumerate(slots):
            if move is None:
                continue
            num_moves += 1
            src = move.src
            dst = move.dst
            literal = isinstance(src, Literal)
            long_imm = literal and not fits_short_immediate(src.value)
            slots_used += 2 if long_imm else 1
            if move.guard is not None and not 0 <= move.guard.index < num_guards:
                err(cycle, bus, f"guard g{move.guard.index} out of range")

            # Destination.  An unknown one ends the move's structure
            # checks; its port use and timing still count below.
            dst_key = (dst.unit, dst.port)
            dst_rec = records.get(dst_key)
            check_source = True
            if dst.unit == GUARD_UNIT:
                index = _guard_index(dst.port)
                if index is None or index >= num_guards:
                    err(cycle, bus, f"bad guard destination {dst}")
            elif dst_rec is None:
                if dst.unit not in arch.units:
                    err(cycle, bus, f"unknown unit {dst.unit!r}")
                else:
                    err(cycle, bus, f"unknown port {dst}")
                check_source = False
            else:
                if not dst_rec.is_input:
                    err(cycle, bus, f"{dst} is not an input port")
                if bus not in dst_rec.buses:
                    err(cycle, bus, f"{dst} not connected to bus {bus}")
                regs = dst_rec.regs
                if regs is not None and (
                    move.dst_reg is None or not 0 <= move.dst_reg < regs
                ):
                    err(cycle, bus, f"bad register index on {dst}")
                ops = dst_rec.ops
                if ops is not None and move.opcode not in ops:
                    err(cycle, bus, _opcode_finding(dst_rec.spec, move))
                if dst_rec.is_pc and literal and not 0 <= src.value <= length:
                    err(cycle, bus, f"jump target {src.value} outside program")

            # Source.
            if literal:
                src_rec = None
            else:
                src_key = (src.unit, src.port)
                src_rec = records.get(src_key)
            if check_source:
                if literal:
                    if long_imm and not has_imm_unit:
                        err(cycle, bus, "long immediate needs an immediate unit")
                elif src.unit == GUARD_UNIT:
                    index = _guard_index(src.port)
                    if index is None or index >= num_guards:
                        err(cycle, bus, f"bad guard source {src}")
                elif src_rec is None:
                    if src.unit not in arch.units:
                        err(cycle, bus, f"unknown unit {src.unit!r}")
                    else:
                        err(cycle, bus, f"unknown port {src}")
                else:
                    if src_rec.is_input:
                        err(cycle, bus, f"{src} is not an output port")
                    if bus not in src_rec.buses:
                        err(cycle, bus, f"{src} not connected to bus {bus}")
                    regs = src_rec.regs
                    if regs is not None and (
                        move.src_reg is None or not 0 <= move.src_reg < regs
                    ):
                        err(cycle, bus, f"bad register index on {src}")

            # Port use, counted for the conflict findings below.
            if not literal and src.unit != GUARD_UNIT:
                src_keys.append(src_key)
                if src_rec is not None and src_rec.regs is not None:
                    rf_keys.append(src_key)
            if dst.unit != GUARD_UNIT:
                dst_keys.append(dst_key)
                if dst_rec is not None and dst_rec.regs is not None:
                    rf_keys.append(dst_key)

            # Result reads: relation (3) -- not before trigger + latency.
            if src_rec is not None and src_rec.reads_result:
                tracker = trackers.get(src.unit)
                landed = tracker.landed_index(cycle) if tracker else None
                if landed is None:
                    err(
                        cycle,
                        bus,
                        f"read of {src} before any result is ready "
                        f"(eq. 3: C(R) - C(T) >= {src_rec.latency})",
                    )
                else:
                    tracker.results_read[landed] = True
            # Triggers: start a new operation record.
            if dst_rec is not None and dst_rec.starts_op:
                tracker = trackers.get(dst.unit)
                if tracker is None:
                    tracker = trackers[dst.unit] = _FUTracker(dst_rec.latency)
                tracker.trigger(cycle, has_result=move.opcode != "st")

        if slots_used > num_buses:
            # 1-bus convention: one long-immediate move may spill its
            # extension word into the next instruction if that is empty.
            next_empty = cycle + 1 >= length or not instructions[cycle + 1].moves
            one_long = num_buses == 1 and num_moves == 1 and slots_used == 2
            if not (one_long and next_empty):
                violations.insert(head, TimingViolation(
                    cycle, 0, "long immediates exceed available bus slots"
                ))
        # A port repeats across moves, or within one move that has the
        # same register-file port at both ends.
        if num_moves > 1 or len(rf_keys) > 1:
            _port_conflicts(cycle, dst_keys, src_keys, rf_keys, err)

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


def _port_conflicts(cycle: int, dst_keys, src_keys, rf_keys, err) -> None:
    """Report each port one instruction uses more than once.

    Destinations first, then sources, then register-file ports, each in
    first-use order.  Most instructions repeat no port; one ``set`` per
    list tells.
    """
    for keys, finding in (
        (dst_keys, "{n} moves write {unit}.{port} in one cycle"),
        (src_keys, "output socket {unit}.{port} drives {n} buses"),
        (rf_keys, "register-file port {unit}.{port} used {n}x"),
    ):
        if len(set(keys)) == len(keys):
            continue
        counts: dict[tuple[str, str], int] = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
        for (unit, port), n in counts.items():
            if n > 1:
                err(cycle, 0, finding.format(n=n, unit=unit, port=port))


def _has_result(arch: Architecture, unit: str) -> bool:
    spec = arch.unit(unit).spec
    return bool(spec.output_ports) and spec.kind is ComponentKind.FU


def _opcode_finding(spec, move: Move) -> str:
    """Why a trigger's unit rejects ``move.opcode``."""
    if spec.kind is ComponentKind.FU:
        if move.opcode not in spec.ops:
            return f"opcode {move.opcode!r} not supported by {move.dst.unit}"
        return f"opcode {move.opcode!r} has no behavioural model"
    if spec.kind is ComponentKind.LSU:
        return f"LSU opcode {move.opcode!r} invalid"
    return f"PC opcode {move.opcode!r} invalid"


def _guard_index(port: str) -> int | None:
    if port.startswith("g") and port[1:].isdigit():
        return int(port[1:])
    return None
