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

The program is decoded once per simulator, on the first
:meth:`TTASimulator.run`.  Each instruction becomes a tuple of resolved
moves: the guard's index and polarity; the source as a (storage, index)
pair — a literal's masked value, a register file's word list, the FU
result registers or the guard bits; the destination's storage and write
mask or, for a trigger, the operation function its opcode resolves to in
:mod:`repro.components.reference`; and integer ids for the bus, sockets,
ports and units the move's activity touches.  Decoding also counts each
instruction's register-file reads and writes; only an instruction that
could exceed an RF's ports goes through the port-counted ``read`` and
``write`` of :class:`~repro.components.register_file.MultiPortMemory` at
run time.  A fault the program text already shows (an unknown unit or
port, a missing or out-of-range register index, a bad guard name, an
opcode the unit lacks) decodes into a move that raises the interpreter's
exception when it executes, so a squashed or unreached faulty move stays
harmless.

Two ordering invariants keep every trace identical to the two-pass
interpreter that ``tests/oracles.py`` keeps as the reference
(``tests/test_simulator_oracle.py`` pins results, state and trace):

* activity is counted into int-keyed working tables and folded into the
  :class:`~repro.tta.activity.ActivityTrace` dicts when ``run`` returns,
  each dict in *first-touch* order — a key sits where its first event
  happened, because the energy model's float sums follow dict order;
* FU results land at the start of their due cycle, so only a cycle with
  a result due does landing work, and results due in the same cycle land
  in *unit order* (the architecture's order of FU/LSU units), which is
  the order their result-port toggles are counted in.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from operator import itemgetter

from repro.components.reference import (
    ALU_OPS,
    CMP_OPS,
    MUL_OPS,
    SHIFTER_OPS,
    Operation,
    alu_function,
    cmp_function,
    lsu_extend_function,
    mul_function,
)
from repro.components.register_file import MultiPortMemory
from repro.components.spec import ComponentKind
from repro.tta.activity import ActivityTrace
from repro.tta.arch import Architecture, ArchitectureError
from repro.tta.isa import GUARD_UNIT, Literal, Move, Program
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

# What a plain (non-trigger) move writes: an FU/LSU input register, a
# register-file word or a guard bit.
_PORT, _RF_WORD, _GUARD_BIT = range(3)

# What a trigger move launches.
_FU_OP, _LSU_OP, _JUMP = range(3)

#: The trace's dict fields in working-table order, each with the id space
#: its keys come from: bus index, (unit, port) pair or unit name.
_TABLES = (
    ("bus_toggles", "bus"),
    ("bus_transports", "bus"),
    ("port_toggles", "port"),
    ("socket_transports", "port"),
    ("fu_activations", "unit"),
    ("rf_reads", "unit"),
    ("rf_read_toggles", "unit"),
    ("rf_writes", "unit"),
    ("rf_write_toggles", "unit"),
)

_by_unit = itemgetter(0)


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


class _Fault:
    """A fault decoded from the program text, raised when its move executes.

    It stands in for the move's source (indexed), destination (indexed or
    assigned) or operation (called), so the fault surfaces at the point
    of the cycle where the interpreter raised it, and never for a
    squashed move.
    """

    __slots__ = ("error", "args")

    def __init__(self, error: type[Exception], *args) -> None:
        self.error = error
        self.args = args

    @classmethod
    def of(cls, exc: Exception) -> "_Fault":
        return cls(type(exc), *exc.args)

    def _raise(self, *_operands):
        raise self.error(*self.args)

    __call__ = __getitem__ = __setitem__ = _raise


class _CountedReads:
    """An RF's words read through its port-counted ``read``."""

    __slots__ = ("memory",)

    def __init__(self, memory: MultiPortMemory) -> None:
        self.memory = memory

    def __getitem__(self, reg: int) -> int:
        return self.memory.read(reg)


class _CountedWrites:
    """An RF's words written through its port-counted ``write``."""

    __slots__ = ("memory",)

    def __init__(self, memory: MultiPortMemory) -> None:
        self.memory = memory

    def __getitem__(self, reg: int) -> int:
        return self.memory.peek(reg)

    def __setitem__(self, reg: int, value: int) -> None:
        self.memory.write(reg, value)


def _fu_operation(opcode: str, width: int) -> Operation | None:
    """The reference function an FU runs for ``opcode``, if it has one."""
    if opcode in ALU_OPS or opcode in SHIFTER_OPS:
        return alu_function(opcode, width)
    if opcode in CMP_OPS:
        return cmp_function(opcode, width)
    if opcode in MUL_OPS:
        return mul_function(width)
    return None


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
        self._rf: dict[str, MultiPortMemory] = {}
        self._fus = []           # FU/LSU units in unit (landing) order
        for unit in arch.units.values():
            spec = unit.spec
            if spec.kind in (ComponentKind.FU, ComponentKind.LSU):
                self._fus.append(unit)
            elif spec.kind is ComponentKind.RF:
                self._rf[unit.name] = MultiPortMemory(
                    spec.num_regs,
                    spec.width,
                    read_ports=spec.n_out,
                    write_ports=spec.n_in,
                )
        # Result register per FU/LSU; None until its first result (eq. 3).
        self._results: list[int | None] = [None] * len(self._fus)
        # due cycle -> [(FU index, result)] in trigger order
        self._due: dict[int, list[tuple[int, int]]] = {}
        self.pc = 0
        self.cycle = 0
        self._pending_jump: tuple[int, int] | None = None
        self._code: list[tuple] | None = None   # decoded on the first run()

        # Switching-activity tracing is opt-in: when off, ``self.activity``
        # is None and the run loop skips every counting branch — it
        # executes identically (pinned by tests) either way.  Buses, RF
        # read paths and the fetch path hold their last value but have no
        # execution-side register, so the simulator keeps those itself.
        self.activity: ActivityTrace | None = None
        if activity:
            from repro.tta.encoding import MoveEncoder

            self.activity = ActivityTrace(width=arch.width)
            self._words = MoveEncoder(arch).encode_program(program)
            self._last_word = 0
            self._bus_last = [0] * arch.num_buses
            self._tables = tuple(defaultdict(int) for _ in _TABLES)

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
    # decoding
    # ------------------------------------------------------------------
    def _decode(self) -> list[tuple]:
        """Resolve every instruction once (see the module docstring).

        An instruction decodes to ``(sample, plain, triggers, moves,
        halt, fetch word, checked RFs)``; the three move tuples are in
        bus order and index the per-cycle sampled values by bus.
        """
        arch = self.arch
        wmask = self._width_mask
        port_table = arch.port_table
        pc_unit = arch.pc_unit.name
        results = self._results
        fu_index = {unit.name: i for i, unit in enumerate(self._fus)}
        keys: dict[tuple[str, str], int] = {}   # (unit, port) -> id
        units: dict[str, int] = {}              # unit name -> id
        regs: list[int] = []      # FU/LSU/PC input registers, by port id

        def key(unit: str, port) -> int:
            return keys.setdefault((unit, port), len(keys))

        def unit_id(name: str) -> int:
            return units.setdefault(name, len(units))

        def source(move: Move, counted: set[str]) -> tuple:
            """(storage, index, RF id, socket id) of the move's source."""
            src = move.src
            if isinstance(src, Literal):
                return (src.value & wmask,), 0, None, None
            if src.unit == GUARD_UNIT:
                try:
                    return self.guards, _guard_index_or_raise(src.port), None, None
                except SimulationError as exc:
                    return _Fault.of(exc), 0, None, None
            memory = self._rf.get(src.unit)
            if memory is not None:
                if move.src_reg is None:
                    fault = _Fault(
                        SimulationError, f"RF read {src} without register index"
                    )
                    return fault, 0, None, None
                try:
                    memory.peek(move.src_reg)
                except (IndexError, TypeError) as exc:
                    return _Fault.of(exc), 0, None, None
                words = (
                    _CountedReads(memory) if src.unit in counted else memory.words
                )
                return words, move.src_reg, unit_id(src.unit), key(src.unit, src.port)
            fu = fu_index.get(src.unit)
            if fu is None:
                try:
                    arch.unit(src.unit)
                except ArchitectureError as exc:
                    return _Fault.of(exc), 0, None, None
                fault = _Fault(SimulationError, f"{src} is not a readable unit")
                return fault, 0, None, None
            return results, fu, None, key(src.unit, src.port)

        def destination(move: Move, counted: set[str]) -> tuple:
            """(storage, index, write mask, kind, activity id) of a plain move."""
            dst = move.dst
            if dst.unit == GUARD_UNIT:
                try:
                    index = _guard_index_or_raise(dst.port)
                except SimulationError as exc:
                    return _Fault.of(exc), 0, 0, _GUARD_BIT, None
                return self.guards, index, 1, _GUARD_BIT, None
            memory = self._rf.get(dst.unit)
            if memory is not None:
                if move.dst_reg is None:
                    fault = _Fault(
                        SimulationError, f"RF write {dst} without register index"
                    )
                    return fault, 0, 0, _RF_WORD, None
                try:
                    memory.peek(move.dst_reg)
                except (IndexError, TypeError) as exc:
                    return _Fault.of(exc), 0, 0, _RF_WORD, None
                words = (
                    _CountedWrites(memory) if dst.unit in counted else memory.words
                )
                return words, move.dst_reg, wmask, _RF_WORD, unit_id(dst.unit)
            if dst.unit in fu_index:
                port = key(dst.unit, dst.port)
                return regs, port, wmask, _PORT, port
            try:
                arch.unit(dst.unit)
            except ArchitectureError as exc:
                return _Fault.of(exc), 0, 0, _PORT, None
            return (
                _Fault(SimulationError, f"{dst} is not a writable unit"),
                0, 0, _PORT, None,
            )

        def trigger(move: Move) -> tuple:
            """(port id, unit id, kind, operation, FU index, latency,
            operand id) of a trigger move."""
            dst = move.dst
            port = key(dst.unit, dst.port)
            unit = unit_id(dst.unit)
            opcode = move.opcode
            if dst.unit == pc_unit:
                if opcode != "jump":
                    fault = _Fault(
                        SimulationError, f"PC trigger with opcode {opcode!r}"
                    )
                    return port, unit, _FU_OP, fault, 0, 0, port
                return port, unit, _JUMP, None, 0, 0, port
            fu = fu_index.get(dst.unit)
            if fu is None:
                return port, unit, _FU_OP, _Fault(KeyError, dst.unit), 0, 0, port
            spec = self._fus[fu].spec
            if spec.kind is ComponentKind.LSU:
                opcode = opcode or "ld"
                mode = _LSU_MODE.get(opcode)
                if opcode == "st":
                    operation = None
                elif mode is None:
                    operation = _Fault(
                        SimulationError, f"LSU opcode {opcode!r} invalid"
                    )
                else:
                    operation = lsu_extend_function(mode, arch.width)
                return (
                    port, unit, _LSU_OP, operation, fu, spec.latency,
                    key(dst.unit, "wdata"),
                )
            if opcode is None:
                operation = _Fault(
                    SimulationError, f"trigger on {dst.unit} without opcode"
                )
            elif opcode not in spec.ops:
                operation = _Fault(
                    SimulationError, f"{dst.unit} cannot execute {opcode!r}"
                )
            else:
                operation = _fu_operation(opcode, spec.width) or _Fault(
                    SimulationError, f"no behavioural model for opcode {opcode!r}"
                )
            operand = next(
                (p.name for p in spec.input_ports if not p.is_trigger), None
            )
            return (
                port, unit, _FU_OP, operation, fu, spec.latency,
                key(dst.unit, operand),
            )

        self._result_ids = [
            key(unit.name, unit.spec.output_ports[0].name)
            if unit.spec.output_ports else None
            for unit in self._fus
        ]
        code = []
        for pc, instruction in enumerate(self.program.instructions):
            moves = [
                (bus, move)
                for bus, move in enumerate(instruction.slots)
                if move is not None
            ]
            # RF accesses the instruction makes if no move is squashed.
            reads = Counter(
                m.src.unit for _bus, m in moves
                if not isinstance(m.src, Literal) and m.src.unit in self._rf
            )
            writes = Counter(m.dst.unit for _bus, m in moves if m.dst.unit in self._rf)
            counted_reads = {
                name for name, n in reads.items() if n > self._rf[name].read_ports
            }
            counted_writes = {
                name for name, n in writes.items() if n > self._rf[name].write_ports
            }
            checked = tuple(
                memory
                for name, memory in self._rf.items()
                if name in counted_reads or name in counted_writes
            )

            sample, plain, triggers = [], [], []
            for bus, move in moves:
                guard = move.guard
                dst = move.dst
                sample.append((
                    bus,
                    None if guard is None else guard.index,
                    guard is not None and bool(guard.invert),
                    *source(move, counted_reads),
                    key(dst.unit, dst.port) if dst.unit in arch.units else None,
                ))
                # The interpreter classified a move at commit time:
                # guard and unknown-unit destinations are plain writes.
                if dst.unit != GUARD_UNIT and dst.unit in arch.units:
                    entry = port_table.get((dst.unit, dst.port))
                    if entry is None:
                        fault = _Fault(SimulationError, f"unknown port {dst}")
                        plain.append((bus, fault, 0, 0, _PORT, None))
                        continue
                    if entry[1].is_trigger:
                        triggers.append((bus, *trigger(move)))
                        continue
                plain.append((bus, *destination(move, counted_writes)))
            code.append((
                tuple(sample),
                tuple(plain),
                tuple(triggers),
                len(moves),
                instruction.halt,
                self._words[pc] if self.activity is not None else 0,
                checked or None,
            ))

        regs.extend([0] * len(keys))
        self._regs = regs
        self._keys = list(keys)
        self._units = list(units)
        self._values = [None] * max(
            (len(i.slots) for i in self.program.instructions), default=0
        )
        if self.activity is not None:
            self._rf_last = [0] * len(units)
        return code

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> SimResult:
        """Run until halt, program end, or the cycle budget expires."""
        if self._code is None:
            self._code = self._decode()
        code = self._code
        end = len(code)
        guards = self.guards
        regs = self._regs
        results = self._results
        result_ids = self._result_ids
        due = self._due
        dmem = self.dmem
        values = self._values      # sampled value per bus; None: squashed
        wmask = self._width_mask
        act = self.activity
        traced = act is not None
        if traced:
            (
                bus_toggles, bus_transports, port_toggles, sockets,
                activations, rf_reads, rf_read_toggles, rf_writes,
                rf_write_toggles,
            ) = self._tables
            bus_last = self._bus_last
            rf_last = self._rf_last
            last_word = self._last_word
            fetched = act.fetch_words
            fetch_toggles = act.fetch_toggles
            guard_toggles = act.guard_toggles
        cycle = self.cycle
        pc = self.pc
        pending = self._pending_jump
        issued = squashed = triggers = 0
        halted = False
        reason = "end-of-program"

        try:
            while cycle < max_cycles:
                if not 0 <= pc < end:
                    halted = True
                    break
                sample, plain, launches, moves, halt, word, checked = code[pc]
                if traced:
                    fetched += 1
                    fetch_toggles += (last_word ^ word).bit_count()
                    last_word = word

                # Begin-of-cycle: land the results due now, open RF ports.
                landing = due.pop(cycle, None)
                if landing is not None:
                    if len(landing) > 1:
                        landing.sort(key=_by_unit)
                    for fu, value in landing:
                        port = result_ids[fu]
                        if traced and port is not None:
                            old = results[fu] or 0    # None: never written
                            port_toggles[port] += (old ^ value).bit_count()
                        results[fu] = value
                if checked is not None:
                    for memory in checked:
                        memory.new_cycle()

                # Sample phase (one bus slot per move; squashed moves
                # drive no bus).
                issued += moves
                for bus, guard, invert, src, index, rf, ssock, dsock in sample:
                    if guard is not None and (not guards[guard]) is not invert:
                        values[bus] = None
                        squashed += 1
                        continue
                    value = src[index]
                    if value is None:
                        src = self.program.instructions[pc].slots[bus].src
                        raise SimulationError(
                            f"cycle {cycle}: read of {src} before any result (eq. 3)"
                        )
                    values[bus] = value
                    if traced:
                        if rf is not None:
                            rf_reads[rf] += 1
                            rf_read_toggles[rf] += (rf_last[rf] ^ value).bit_count()
                            rf_last[rf] = value
                        if ssock is not None:
                            sockets[ssock] += 1
                        bus_toggles[bus] += (bus_last[bus] ^ value).bit_count()
                        bus_transports[bus] += 1
                        bus_last[bus] = value
                        if dsock is not None:
                            sockets[dsock] += 1

                # Commit phase: operands first, then triggers see fresh
                # operands.
                for bus, dst, index, dmask, kind, aid in plain:
                    value = values[bus]
                    if value is None:
                        continue
                    new = value & dmask
                    if traced:
                        old = dst[index]
                        if kind == _PORT:
                            port_toggles[aid] += (old ^ new).bit_count()
                        elif kind == _RF_WORD:
                            rf_writes[aid] += 1
                            rf_write_toggles[aid] += (old ^ new).bit_count()
                        else:
                            guard_toggles += ((old & 1) ^ new).bit_count()
                    dst[index] = new
                for bus, port, unit, kind, operation, fu, latency, operand in launches:
                    value = values[bus]
                    if value is None:
                        continue
                    triggers += 1
                    new = value & wmask
                    if traced:
                        port_toggles[port] += (regs[port] ^ new).bit_count()
                        activations[unit] += 1
                    regs[port] = new
                    if kind == _FU_OP:
                        result = operation(regs[operand], new)
                    elif kind == _LSU_OP:
                        if new >= DMEM_WORDS:
                            raise SimulationError(
                                f"data address {new:#x} out of range"
                            )
                        if operation is None:
                            dmem[new] = regs[operand]
                            continue
                        result = operation(dmem.get(new, 0))
                    else:
                        pending = (
                            cycle + BRANCH_DELAY_SLOTS, value % (end + 1)
                        )
                        continue
                    queued = due.get(cycle + latency)
                    if queued is None:
                        due[cycle + latency] = [(fu, result)]
                    else:
                        queued.append((fu, result))

                if halt:
                    reason = "halt"
                    halted = True
                    cycle += 1
                    break
                if pending is not None and cycle >= pending[0]:
                    pc = pending[1]
                    pending = None
                else:
                    pc += 1
                cycle += 1
            else:
                reason = "max-cycles"
        finally:
            self.cycle = cycle
            self.pc = pc
            self._pending_jump = pending
            if traced:
                self._last_word = last_word
                act.fetch_words = fetched
                act.fetch_toggles = fetch_toggles
                act.guard_toggles = guard_toggles
                self._fold_activity()

        if traced:
            act.cycles = cycle
        return SimResult(
            cycles=cycle,
            halted=halted,
            reason=reason,
            moves_executed=issued - squashed,
            moves_squashed=squashed,
            triggers=triggers,
        )

    def _fold_activity(self) -> None:
        """Refill the trace's dicts from the working tables.

        A working table is a dict keyed by id, so its iteration order is
        the order of each key's first event; the trace keeps that order.
        """
        names = {"port": self._keys, "unit": self._units}
        for (field, space), table in zip(_TABLES, self._tables):
            target = getattr(self.activity, field)
            target.clear()
            if space == "bus":
                target.update(table)
            else:
                target.update((names[space][i], n) for i, n in table.items())


def _guard_index_or_raise(port: str) -> int:
    if port.startswith("g") and port[1:].isdigit():
        return int(port[1:])
    raise SimulationError(f"bad guard register name {port!r}")
