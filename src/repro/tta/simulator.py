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
:mod:`repro.components.reference`; and integer *slot* ids for the
resources whose activity the move touches.  Decoding also counts each
instruction's register-file reads and writes; only an instruction that
could exceed an RF's ports goes through the port-counted ``read`` and
``write`` of :class:`~repro.components.register_file.MultiPortMemory` at
run time.  A fault the program text already shows (an unknown unit or
port, a missing or out-of-range register index, a bad guard name, an
opcode the unit lacks) decodes into a move that raises the interpreter's
exception when it executes, so a squashed or unreached faulty move stays
harmless.

Activity tracing is folded.  The schedule fixes every transport, so the
run loop does per-move work only for what the data decides: the Hamming
toggles of buses, RF read paths, RF writes, unit input and result
registers, guard bits and the fetch path, each counted into a list by
slot id.  Beside them it counts how often each instruction executed and
how often each *guarded* move was not squashed, with the cycle of the
first of each; an unguarded move runs exactly when its instruction
does.  When a run returns, each move's static events — its bus and
socket transports, RF read or write, unit activation — are multiplied
by those counts (the *ledger* decoding builds beside the move tuples),
the fetched words are the executions summed, and the
:class:`~repro.tta.activity.ActivityTrace` is refilled from them.  A run
that raises folds nothing.

The trace's dicts are in *first-touch* order, because the energy model's
float sums follow dict order, so the fold replays first touches: every
key is placed by its earliest event, stamped (cycle, phase, order,
position).  The phases of a cycle run landing, sample, plain commit,
trigger commit; the order is the unit order for landings and the bus
order otherwise; the position orders one sampled move's RF read, source
socket, bus and destination socket.  A move's first event falls in the
first cycle its instruction ran (or, if guarded, the first cycle it was
not squashed).  An FU's result register is first written ``latency``
cycles after its first result-producing trigger, if the run reached that
cycle.  FU results land at the start of their due cycle, so only a cycle
with a result due does landing work, and results due in the same cycle
land in unit order (the architecture's order of FU/LSU units).
``tests/test_simulator_oracle.py`` pins results, state and every trace,
key order included, against the two-pass interpreter that
``tests/oracles.py`` keeps as the reference.

The simulator has two tiers.  The interpreter above runs everything; a
hot *block* also runs as one generated Python function
(:mod:`repro.tta.blockgen`).  A block starts at a leader -- a literal
jump's target or the pc after a jump's delay slot -- and runs through
its one jump's delay slot; it qualifies if it reaches no other leader
first and holds no halt, no port-counted RF, no decoded fault and no
guard index outside the guard file.  Decoding marks the instructions
after which control may enter a block (delay slots, and instructions
before a jump target); there, and when a run starts, the interpreter
looks the pc up.  It counts a qualifying block's interpreted entries,
and once entries times length reaches :data:`HOT_BLOCK_INSTRUCTIONS` it
generates the block's function (importing the generator then, not
before).  Every later entry with no jump pending whose whole block fits
in the cycle budget runs the function; cold blocks, ``max_cycles`` cuts
and resumes inside a block stay interpreted.  The generated code runs
each cycle in the interpreter's order and keeps unit input registers,
bus and RF read-path last values, result registers and toggle tallies
in locals, loaded on entry and written back on exit; a result landing
inside the block is assigned directly, one crossing its edge goes
through ``due``.  A compiled entry counts as one execution of each of
the block's instructions (added to the counts lazily, when a run
returns), and its fetch toggles are the entry's toggle from the last
fetched word plus the block's static inner sum.  A raise inside
generated code (an eq. 3 read, an LSU address out of range) leaves the
simulator as the interpreter leaves it: the same error at the same
``cycle`` and ``pc``, every register, memory word, result register and
count of that point, the pending jump and the results in flight, and
``activity`` unfolded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from time import perf_counter

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

#: A qualifying block is compiled once its interpreted entries times its
#: length reach this many instruction executions.
HOT_BLOCK_INSTRUCTIONS = 2048

#: LSU opcode -> read-extension mode.
_LSU_MODE = {
    "ld": "word",
    "ld_ls": "low_signed",
    "ld_lu": "low_unsigned",
    "ld_h": "high",
}

# What a trigger move launches.
_FU_OP, _LSU_OP, _JUMP = range(3)

# The fold's tables: the trace keys whose first touch and event count it
# replays.  Port keys are touched (toggled) but their events not counted.
_BUS, _SOCKET, _PORT, _ACTIVATION, _RF_READ, _RF_WRITE = _TABLES = range(6)

# The phases of a cycle, in the order they run.
_LAND, _SAMPLE, _PLAIN, _TRIGGER = range(4)

# An instruction's ``stop``: it halts, or control may enter a block after
# it (it is a jump's delay slot, or the next pc is a jump target).
_HALT, _BOUNDARY = 1, 2

#: The trace's dict fields, each with its fold table and whether its
#: values are the table's toggles (True) or its event counts.
_FIELDS = (
    ("bus_toggles", _BUS, True),
    ("bus_transports", _BUS, False),
    ("port_toggles", _PORT, True),
    ("socket_transports", _SOCKET, False),
    ("fu_activations", _ACTIVATION, False),
    ("rf_reads", _RF_READ, False),
    ("rf_read_toggles", _RF_READ, True),
    ("rf_writes", _RF_WRITE, False),
    ("rf_write_toggles", _RF_WRITE, True),
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


class _Block:
    """A straight-line block: from an entry pc through its one jump's
    delay slot, with no halt, no port-counted RF and no decoded fault."""

    __slots__ = (
        "entry", "length", "moves", "entries", "step", "calls", "folded",
        "cold", "word", "last_word", "inner", "stop",
    )

    def __init__(self, entry: int, length: int, moves: int) -> None:
        self.entry = entry
        self.length = length
        self.moves = moves            # issued per entry
        self.entries = 0              # interpreted entries before compiling
        self.step = None              # the generated function, once hot
        self.calls = 0                # compiled entries
        self.folded = 0               # compiled entries in the exec counts
        self.cold = False             # an instruction may not have run yet
        self.stop = [None]            # (offset, jump target) of a fault


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
        self._compiled: list[_Block] = []      # blocks with generated code
        #: Seconds spent generating block functions, over every run so far.
        self.codegen_seconds = 0.0

        # Switching-activity tracing is opt-in: when off, ``self.activity``
        # is None and the run loop skips every counting branch — it
        # executes identically (pinned by tests) either way.
        self.activity: ActivityTrace | None = None
        if activity:
            from repro.tta.encoding import MoveEncoder

            self.activity = ActivityTrace(width=arch.width)
            self._words = MoveEncoder(arch).encode_program(program)
            self._last_word = 0
            self._fetch_toggles = 0

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
        stop, fetch word, checked RFs)``; the three move tuples are in
        bus order and index the per-cycle sampled values by bus, and
        ``stop`` is None, ``_HALT`` or ``_BOUNDARY``.  Beside it, the
        instruction's ledger holds one ``(guarded-move id, events)``
        record per move for the fold.
        """
        arch = self.arch
        wmask = self._width_mask
        port_table = arch.port_table
        pc_unit = arch.pc_unit.name
        results = self._results
        fu_index = {unit.name: i for i, unit in enumerate(self._fus)}
        instructions = self.program.instructions
        buses = max([arch.num_buses, *(len(i.slots) for i in instructions)])
        # One slot per resource the trace names, keyed (kind, trace key):
        # a bus (its id is its index), a (unit, port) pair, an RF's read
        # path or write side, a unit's activations, the guard bits.
        slots: dict[tuple, int] = {("bus", bus): bus for bus in range(buses)}
        # Per slot: a unit input register's value, a bus's or an RF read
        # path's last value.
        regs: list[int] = []
        order_span = max(buses, len(fu_index), 1)
        lives = 0                 # guarded moves so far

        def slot(kind: str, name) -> int:
            return slots.setdefault((kind, name), len(slots))

        guard_slot = slot("guard", None)

        def key(unit: str, port) -> int:
            return slot("port", (unit, port))

        def rank(phase: int, order: int, position: int = 0) -> int:
            """An event's place within its cycle."""
            return (phase * order_span + order) * 4 + position

        def source(move: Move, counted: set[str]) -> tuple:
            """(storage, index, RF read slot, socket slot) of the move's
            source."""
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
                return (
                    words, move.src_reg, slot("read", src.unit),
                    key(src.unit, src.port),
                )
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
            """(storage, index, write mask, toggle slot, fold table) of a
            plain move; a fault's toggle slot is never reached."""
            dst = move.dst
            if dst.unit == GUARD_UNIT:
                try:
                    index = _guard_index_or_raise(dst.port)
                except SimulationError as exc:
                    return _Fault.of(exc), 0, 0, 0, None
                return self.guards, index, 1, guard_slot, None
            memory = self._rf.get(dst.unit)
            if memory is not None:
                if move.dst_reg is None:
                    fault = _Fault(
                        SimulationError, f"RF write {dst} without register index"
                    )
                    return fault, 0, 0, 0, None
                try:
                    memory.peek(move.dst_reg)
                except (IndexError, TypeError) as exc:
                    return _Fault.of(exc), 0, 0, 0, None
                words = (
                    _CountedWrites(memory) if dst.unit in counted else memory.words
                )
                return (
                    words, move.dst_reg, wmask, slot("write", dst.unit), _RF_WRITE
                )
            if dst.unit in fu_index:
                port = key(dst.unit, dst.port)
                return regs, port, wmask, port, _PORT
            try:
                arch.unit(dst.unit)
            except ArchitectureError as exc:
                return _Fault.of(exc), 0, 0, 0, None
            return (
                _Fault(SimulationError, f"{dst} is not a writable unit"),
                0, 0, 0, None,
            )

        def trigger(move: Move) -> tuple[tuple, int | None]:
            """The launch record of a trigger move -- (port slot, kind,
            operation, FU index, latency, operand slot) -- and the FU
            index whose result register it writes, if it produces a
            result."""
            dst = move.dst
            port = key(dst.unit, dst.port)
            opcode = move.opcode
            if dst.unit == pc_unit:
                if opcode != "jump":
                    fault = _Fault(
                        SimulationError, f"PC trigger with opcode {opcode!r}"
                    )
                    return (port, _FU_OP, fault, 0, 0, port), None
                return (port, _JUMP, None, 0, 0, port), None
            fu = fu_index.get(dst.unit)
            if fu is None:
                fault = _Fault(KeyError, dst.unit)
                return (port, _FU_OP, fault, 0, 0, port), None
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
                launch = (
                    port, _LSU_OP, operation, fu, spec.latency,
                    key(dst.unit, "wdata"),
                )
                return launch, None if operation is None else fu
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
            launch = (
                port, _FU_OP, operation, fu, spec.latency, key(dst.unit, operand),
            )
            return launch, fu

        self._result_ids = [
            key(unit.name, unit.spec.output_ports[0].name)
            if unit.spec.output_ports else None
            for unit in self._fus
        ]
        code = []
        ledgers = []
        for pc, instruction in enumerate(instructions):
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

            sample, plain, triggers, ledger = [], [], [], []
            for bus, move in moves:
                guard = move.guard
                dst = move.dst
                live = None
                if guard is not None:
                    live, lives = lives, lives + 1
                src, index, rf, ssock = source(move, counted_reads)
                sample.append((
                    bus,
                    None if guard is None else guard.index,
                    guard is not None and bool(guard.invert),
                    live, src, index, rf,
                ))
                # (fold table, slot, rank, delay in cycles)
                events = []
                if rf is not None:
                    events.append((_RF_READ, rf, rank(_SAMPLE, bus, 0), 0))
                if ssock is not None:
                    events.append((_SOCKET, ssock, rank(_SAMPLE, bus, 1), 0))
                events.append((_BUS, bus, rank(_SAMPLE, bus, 2), 0))
                if dst.unit in arch.units:
                    dsock = key(dst.unit, dst.port)
                    events.append((_SOCKET, dsock, rank(_SAMPLE, bus, 3), 0))
                ledger.append((live, events))
                # The interpreter classified a move at commit time:
                # guard and unknown-unit destinations are plain writes.
                if dst.unit != GUARD_UNIT and dst.unit in arch.units:
                    entry = port_table.get((dst.unit, dst.port))
                    if entry is None:
                        fault = _Fault(SimulationError, f"unknown port {dst}")
                        plain.append((bus, fault, 0, 0, 0))
                        continue
                    if entry[1].is_trigger:
                        launch, fu = trigger(move)
                        triggers.append((bus, *launch))
                        place = rank(_TRIGGER, bus)
                        events.append((_PORT, launch[0], place, 0))
                        events.append((_ACTIVATION, slot("unit", dst.unit), place, 0))
                        result = None if fu is None else self._result_ids[fu]
                        if result is not None:
                            # The result lands ``latency`` cycles later.
                            events.append(
                                (_PORT, result, rank(_LAND, fu), launch[4])
                            )
                        continue
                *target, table = destination(move, counted_writes)
                plain.append((bus, *target))
                if table is not None:
                    events.append((table, target[3], rank(_PLAIN, bus), 0))
            code.append((
                tuple(sample),
                tuple(plain),
                tuple(triggers),
                len(moves),
                _HALT if instruction.halt else None,
                self._words[pc] if self.activity is not None else 0,
                checked or None,
            ))
            ledgers.append(tuple(ledger))
        self._blocks = self._find_blocks(code)

        regs.extend([0] * len(slots))
        self._regs = regs
        self._values = [None] * buses
        if self.activity is not None:
            self._ledgers = ledgers
            self._slot_keys = [name for _kind, name in slots]
            self._guard_slot = guard_slot
            self._span = rank(_TRIGGER + 1, 0)
            self._toggles = [0] * len(slots)
            self._execs = [0] * len(code)      # per instruction
            self._firsts = [0] * len(code)     # cycle of its first execution
            self._lives = [0] * lives          # unsquashed, per guarded move
            self._live_firsts = [0] * lives    # cycle of its first one
        return code

    def _find_blocks(self, code: list[tuple]) -> list[_Block | None]:
        """Mark each instruction's ``stop`` in ``code`` and return the
        qualifying block entered at each pc (None elsewhere).

        A block starts at a leader -- a literal jump's target or the pc
        after a jump's delay slots -- and runs through its one jump's
        ``BRANCH_DELAY_SLOTS`` delay slots; it does not qualify if it
        reaches another leader first, or holds a halt, a port-counted RF,
        a decoded fault or a guard index outside the guard file.
        """
        end = len(code)
        delay = BRANCH_DELAY_SLOTS
        guards = self.guards
        jumps = set()       # pcs of the instructions with a jump trigger
        leaders = set()
        plain = []          # per pc: could run inside a block
        for pc, (sample, commits, launches, _moves, stop, _word, checked) in (
            enumerate(code)
        ):
            fine = stop is None and checked is None
            for _bus, guard, _invert, _live, src, index, _rf in sample:
                fine = fine and not isinstance(src, _Fault) and (
                    guard is None or 0 <= guard < len(guards)
                ) and (src is not guards or index < len(guards))
            for _bus, dst, index, _dmask, _slot in commits:
                fine = fine and not isinstance(dst, _Fault) and (
                    dst is not guards or index < len(guards)
                )
            for bus, _port, kind, operation, *_rest in launches:
                fine = fine and not isinstance(operation, _Fault)
                if kind == _JUMP:
                    jumps.add(pc)
                    src, index = next(
                        (s[4], s[5]) for s in sample if s[0] == bus
                    )
                    if type(src) is tuple:        # a literal target
                        leaders.add(src[index] % (end + 1))
            plain.append(fine)
        for pc in jumps:
            leaders.add(pc + delay + 1)
        for pc in range(end):
            if code[pc][4] is None and (pc - delay in jumps or pc + 1 in leaders):
                code[pc] = (*code[pc][:4], _BOUNDARY, *code[pc][5:])
        blocks: list[_Block | None] = [None] * (end + 1)
        for entry in leaders:
            pc = entry
            while pc < end and pc not in jumps and plain[pc] and (
                pc + 1 not in leaders
            ):
                pc += 1
            last = pc + delay         # the jump's last delay slot
            if pc in jumps and last < end and all(plain[entry:last + 1]) and (
                jumps.isdisjoint(range(pc + 1, last + 1))
            ):
                moves = sum(code[p][3] for p in range(entry, last + 1))
                blocks[entry] = _Block(entry, last + 1 - entry, moves)
        return blocks

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, max_cycles: int = 1_000_000) -> SimResult:
        """Run until halt, program end, or the cycle budget expires.

        Runs resume: a later ``run`` continues where this one stopped,
        and a traced run leaves :attr:`activity` holding every run so
        far.  A run that raises leaves the simulator in the faulting
        cycle, with ``cycle`` and ``pc`` naming it, and leaves
        :attr:`activity` as the previous run left it (empty after a
        first run): the raising run's activity is not folded in.
        """
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
        traced = self.activity is not None
        last_word = fetch_toggles = 0
        if traced:
            toggles = self._toggles
            execs = self._execs
            firsts = self._firsts
            lives = self._lives
            live_firsts = self._live_firsts
            last_word = self._last_word
            fetch_toggles = self._fetch_toggles
        cycle = self.cycle
        pc = self.pc
        pending = self._pending_jump
        blocks = self._blocks
        issued = squashed = triggers = 0
        halted = False
        reason = "end-of-program"
        boundary = True            # control may enter a block at ``pc``

        try:
            while cycle < max_cycles:
                if boundary:
                    boundary = False
                    block = blocks[pc]
                    if block is not None and pending is None:
                        step = block.step
                        if step is None and (
                            block.entries * block.length >= HOT_BLOCK_INSTRUCTIONS
                        ):
                            step = self._compile(block)
                        if step is None:
                            block.entries += 1
                        elif cycle + block.length <= max_cycles:
                            try:
                                pc, dropped, fired = step(cycle)
                            except SimulationError:
                                cycle, pc, pending, last_word, fetch_toggles = (
                                    self._unwind(
                                        block, cycle, last_word, fetch_toggles
                                    )
                                )
                                raise
                            if traced:
                                fetch_toggles += block.inner + (
                                    (last_word ^ block.word).bit_count()
                                )
                                last_word = block.last_word
                                if block.cold:
                                    self._first_runs(block, cycle, block.length)
                                    block.folded += 1
                            block.calls += 1
                            cycle += block.length
                            issued += block.moves
                            squashed += dropped
                            triggers += fired
                            boundary = True
                            continue
                if not 0 <= pc < end:
                    halted = True
                    break
                sample, plain, launches, moves, stop, word, checked = code[pc]
                if traced:
                    runs = execs[pc]
                    if not runs:
                        firsts[pc] = cycle
                    execs[pc] = runs + 1
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
                            toggles[port] += (old ^ value).bit_count()
                        results[fu] = value
                if checked is not None:
                    for memory in checked:
                        memory.new_cycle()

                # Sample phase (one bus slot per move; squashed moves
                # drive no bus).
                issued += moves
                for bus, guard, invert, live, src, index, rf in sample:
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
                        if live is not None:
                            runs = lives[live]
                            if not runs:
                                live_firsts[live] = cycle
                            lives[live] = runs + 1
                        if rf is not None:
                            toggles[rf] += (regs[rf] ^ value).bit_count()
                            regs[rf] = value
                        toggles[bus] += (regs[bus] ^ value).bit_count()
                        regs[bus] = value

                # Commit phase: operands first, then triggers see fresh
                # operands.
                for bus, dst, index, dmask, toggled in plain:
                    value = values[bus]
                    if value is None:
                        continue
                    new = value & dmask
                    if traced:
                        toggles[toggled] += (dst[index] ^ new).bit_count()
                    dst[index] = new
                for bus, port, kind, operation, fu, latency, operand in launches:
                    value = values[bus]
                    if value is None:
                        continue
                    triggers += 1
                    new = value & wmask
                    if traced:
                        toggles[port] += (regs[port] ^ new).bit_count()
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

                if stop is not None:
                    if stop == _HALT:
                        reason = "halt"
                        halted = True
                        cycle += 1
                        break
                    boundary = True
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
                self._fetch_toggles = fetch_toggles

        if traced:
            self._fold_runs()
            self._fold_activity()
        return SimResult(
            cycles=cycle,
            halted=halted,
            reason=reason,
            moves_executed=issued - squashed,
            moves_squashed=squashed,
            triggers=triggers,
        )

    # ------------------------------------------------------------------
    # the compiled tier
    # ------------------------------------------------------------------
    def _compile(self, block: _Block):
        """Generate ``block``'s function (the code generator is imported
        only when a first block gets hot)."""
        from repro.tta.blockgen import compile_block

        started = perf_counter()
        block.step = compile_block(self, block)
        self.codegen_seconds += perf_counter() - started
        self._compiled.append(block)
        if self.activity is not None:
            words = self._fetched(block, block.length)
            block.word = words[0]
            block.last_word = words[-1]
            block.inner = sum((a ^ b).bit_count() for a, b in zip(words, words[1:]))
            block.cold = not all(self._execs[block.entry:block.entry + block.length])
        return block.step

    @property
    def compiled_blocks(self) -> int:
        """How many blocks this simulator has compiled."""
        return len(self._compiled)

    @property
    def compiled_cycles(self) -> int:
        """Cycles run by generated code, over every run so far."""
        return sum(block.calls * block.length for block in self._compiled)

    def _first_runs(self, block: _Block, cycle: int, count: int) -> None:
        """Count an entry at ``cycle`` that ran the block's first ``count``
        instructions in the exec counts, stamping any first execution."""
        execs = self._execs
        firsts = self._firsts
        for offset in range(count):
            pc = block.entry + offset
            if not execs[pc]:
                firsts[pc] = cycle + offset
            execs[pc] += 1
        block.cold = not all(execs[block.entry:block.entry + block.length])

    def _fold_runs(self) -> None:
        """Add the compiled entries not yet counted to the exec counts."""
        execs = self._execs
        for block in self._compiled:
            runs = block.calls - block.folded
            if runs:
                for pc in range(block.entry, block.entry + block.length):
                    execs[pc] += runs
                block.folded = block.calls

    def _unwind(self, block: _Block, cycle: int, last_word: int, fetch_toggles: int):
        """Leave the counts of a compiled entry at ``cycle`` that raised as
        the interpreter leaves them; return the run's new cycle, pc,
        pending jump, last fetched word and fetch toggles.

        The generated code has already written its locals back and queued
        its in-flight results; ``block.stop[0]`` names the faulting offset
        and, if the jump had committed, its target.
        """
        offset, target = block.stop[0]
        pending = None
        if target is not None:
            # The jump's BRANCH_DELAY_SLOTS delay slots end the block, so
            # it is due in the block's last cycle.
            pending = (cycle + block.length - 1, target)
        if self.activity is not None:
            self._fold_runs()
            words = self._fetched(block, offset + 1)
            fetch_toggles += sum(
                (a ^ b).bit_count() for a, b in zip([last_word, *words], words)
            )
            last_word = words[-1]
            self._first_runs(block, cycle, offset + 1)
        pc = block.entry + offset
        return cycle + offset, pc, pending, last_word, fetch_toggles

    def _fetched(self, block: _Block, count: int) -> list[int]:
        """The words of the block's first ``count`` instructions."""
        return [self._code[pc][5] for pc in range(block.entry, block.entry + count)]

    def _fold_activity(self) -> None:
        """Refill the trace from the execution counts and toggle slots.

        Each ledger event adds its move's unsquashed count to its key
        and stamps the key's first touch (see the module docstring); a
        trace dict lists its keys in stamp order.
        """
        act = self.activity
        execs = self._execs
        firsts = self._firsts
        lives = self._lives
        live_firsts = self._live_firsts
        span = self._span
        cycles = self.cycle
        stamps = [{} for _ in _TABLES]    # per table: slot -> first stamp
        counts = [{} for _ in _TABLES]    # per table: slot -> events
        for pc, ledger in enumerate(self._ledgers):
            runs = execs[pc]
            if not runs:
                continue
            for live, events in ledger:
                if live is None:
                    n, at = runs, firsts[pc]
                else:
                    n = lives[live]
                    if not n:
                        continue
                    at = live_firsts[live]
                for table, slot, rank, delay in events:
                    if at + delay >= cycles:
                        continue            # a result still in flight
                    stamp = (at + delay) * span + rank
                    first = stamps[table]
                    if stamp < first.get(slot, stamp + 1):
                        first[slot] = stamp
                    tally = counts[table]
                    tally[slot] = tally.get(slot, 0) + n
        names = self._slot_keys
        toggles = self._toggles
        order = [sorted(first, key=first.__getitem__) for first in stamps]
        for field, table, toggled in _FIELDS:
            values = toggles if toggled else counts[table]
            target = getattr(act, field)
            target.clear()
            target.update((names[slot], values[slot]) for slot in order[table])
        act.guard_toggles = toggles[self._guard_slot]
        act.fetch_words = sum(execs)
        act.fetch_toggles = self._fetch_toggles
        act.cycles = cycles


def _guard_index_or_raise(port: str) -> int:
    if port.startswith("g") and port[1:].isdigit():
        return int(port[1:])
    raise SimulationError(f"bad guard register name {port!r}")
