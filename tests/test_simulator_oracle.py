"""Differential test: the simulator against its two-pass predecessor.

The shipped :class:`~repro.tta.simulator.TTASimulator` runs a program
decoded once and counts switching activity by resolved ids;
``tests.oracles.TTASimulator`` is the earlier interpreter that executed
each move and then classified it again for the trace.  Every run must
agree on the result, the final architectural state and every
:class:`~repro.tta.activity.ActivityTrace` field -- dicts compared as
item lists, because the energy model sums in key order.  Faulty programs
must raise the same exception at the same cycle, and a run split by
``max_cycles`` must leave what the oracle leaves.

The simulator runs a hot straight-line block as one generated function
(:mod:`repro.tta.blockgen`).  The checks run the shipped simulator under
each of :data:`BOUNDS`: the default selection rule, and
``HOT_BLOCK_INSTRUCTIONS`` set to 0, which compiles every qualifying
block on its first entry.  The compiled-tier tests also compare a run
that raises inside generated code with the same run interpreted,
internal counts included.

``tests/simulator_corpus.py`` loops :func:`_check` over a larger grid.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from functools import lru_cache

import pytest

from repro.apps.registry import build_workload, workload_names
from repro.explore.evaluate import EvaluationContext
from repro.explore.space import build_architecture_cached, space_by_name
from repro.study import workload_profile
from repro.tta.activity import ActivityTrace
from repro.tta.arch import ArchitectureError
from repro.tta.encoding import EncodingError
from repro.tta.isa import Guard, Instruction, Literal, Move, PortRef, Program
from repro.tta import simulator
from repro.tta.simulator import DMEM_WORDS, SimulationError, TTASimulator

from tests import oracles
from tests.conftest import make_arch

MAX_CYCLES = 5_000_000
#: crypt runs long; two crypt-space templates stand in for its grid.
CRYPT_CONFIGS = ("b4-alu3-16r2R2W", "b1-alu1-8r1R1W+12r1R1W")


@lru_cache(maxsize=None)
def _context(workload: str, width: int) -> EvaluationContext:
    return EvaluationContext(
        build_workload(workload), workload_profile(workload, width), width
    )


def _items(value):
    return list(value.items()) if isinstance(value, dict) else value


def _trace(trace: ActivityTrace | None) -> list | None:
    """Every trace field, dicts as ordered item lists."""
    return None if trace is None else [
        (f.name, _items(getattr(trace, f.name)))
        for f in dataclasses.fields(ActivityTrace)
    ]


def _snapshot(sim, result) -> dict:
    """Everything a run leaves behind, dicts as ordered item lists."""
    return {
        "result": dataclasses.astuple(result),
        "pc": sim.pc,
        "rf": [
            [sim.rf_value(rf.name, reg) for reg in range(rf.spec.num_regs)]
            for rf in sim.arch.rfs
        ],
        "dmem": _items(sim.dmem),
        "guards": sim.guards,
        "trace": _trace(sim.activity),
    }


@contextmanager
def _compiling(bound: int):
    """Set the simulator's block-compilation bound (0: compile every
    qualifying block on its first entry)."""
    saved = simulator.HOT_BLOCK_INSTRUCTIONS
    simulator.HOT_BLOCK_INSTRUCTIONS = bound
    try:
        yield
    finally:
        simulator.HOT_BLOCK_INSTRUCTIONS = saved


#: The block-compilation bounds every check runs the shipped simulator
#: under, by label: the module's own, and 0, which compiles every
#: qualifying block on its first entry.
BOUNDS = {"default": simulator.HOT_BLOCK_INSTRUCTIONS, "forced": 0}


def _check(
    workload: str, config, width: int, activity: bool, times: dict | None = None
) -> bool:
    """Run the oracle once and the shipped simulator under each of
    :data:`BOUNDS` on one compiled point, and compare; False if
    infeasible.

    ``times``, if given, accumulates host seconds per bound label and
    for the oracle."""
    point = _context(workload, width).evaluate(config, keep_compile_result=True)
    if not point.feasible:
        return False
    program = point.compile_result.program
    arch = build_architecture_cached(config, width)
    label = f"{workload} on {config.label()} at w{width}, activity={activity}"
    started = time.perf_counter()
    sim = oracles.TTASimulator(arch, program, activity=activity)
    result = sim.run(max_cycles=MAX_CYCLES)
    assert result.halted, f"{workload} on {config.label()} did not halt"
    oracle = _snapshot(sim, result)
    seconds = {"oracle": time.perf_counter() - started}
    for rule, bound in BOUNDS.items():
        with _compiling(bound):
            started = time.perf_counter()
            sim = TTASimulator(arch, program, activity=activity)
            result = sim.run(max_cycles=MAX_CYCLES)
            seconds[rule] = time.perf_counter() - started
        assert _snapshot(sim, result) == oracle, f"{label}, {rule} bound"
    if times is not None:
        for key, value in seconds.items():
            times[key] = times.get(key, 0.0) + value
    return True


@pytest.mark.parametrize(
    "workload", [name for name in workload_names() if name != "crypt"]
)
def test_simulator_matches_oracle(workload):
    """Every small/dsp template that compiles, w8/w16, tracing off/on,
    under the default rule and with every qualifying block compiled."""
    runs = 0
    for config in space_by_name("small") + space_by_name("dsp"):
        for width in (8, 16):
            for activity in (False, True):
                runs += _check(workload, config, width, activity)
    assert runs >= 48          # at least the 12 dsp templates x 2 x 2


@pytest.mark.parametrize("label", CRYPT_CONFIGS)
def test_crypt_traced_matches_oracle(label):
    config = next(c for c in space_by_name("crypt") if c.label() == label)
    assert _check("crypt", config, 8, activity=True)


# ----------------------------------------------------------------------
# error paths and split runs
# ----------------------------------------------------------------------
#: One 4-word RF with one read and one write port; 32 bits wide, so an
#: LSU address can reach past ``DMEM_WORDS``.
FAULT_ARCH = make_arch(3, width=32, rf_setups=((4, 1, 1),), with_mul=True)


def _move(src, dst: str, **fields) -> Move:
    """A move from ``unit.port`` (or an int literal) to ``unit.port``."""
    source = Literal(src) if isinstance(src, int) else PortRef(*src.split("."))
    return Move(source, PortRef(*dst.split(".")), **fields)


#: fault -> (moves of the faulting instruction, error, message fragment)
FAULTS = {
    "result read before any result": (
        [_move("alu0.y", "rf0.w0", dst_reg=0)],
        SimulationError, "read of alu0.y before any result (eq. 3)",
    ),
    "rf read-port overflow": (
        [_move("rf0.r0", "alu0.a", src_reg=0),
         _move("rf0.r0", "guard.g1", src_reg=1)],
        RuntimeError, "read-port overflow: 2 reads in one cycle",
    ),
    "rf write-port overflow": (
        [_move(1, "rf0.w0", dst_reg=0), _move(2, "rf0.w0", dst_reg=1)],
        RuntimeError, "write-port overflow: 2 writes in one cycle",
    ),
    "rf read without register index": (
        [_move("rf0.r0", "alu0.a")],
        SimulationError, "RF read rf0.r0 without register index",
    ),
    "rf read index out of range": (
        [_move("rf0.r0", "alu0.a", src_reg=4)],
        IndexError, "address 4 outside [0, 4)",
    ),
    "rf write without register index": (
        [_move(1, "rf0.w0")],
        SimulationError, "RF write rf0.w0 without register index",
    ),
    "rf write index out of range": (
        [_move(1, "rf0.w0", dst_reg=-1)],
        IndexError, "address -1 outside [0, 4)",
    ),
    "bad guard name read": (
        [_move("guard.gx", "alu0.a")],
        SimulationError, "bad guard register name 'gx'",
    ),
    "bad guard name write": (
        [_move(1, "guard.x0")],
        SimulationError, "bad guard register name 'x0'",
    ),
    "guard index out of range": (
        [_move(1, "alu0.a", guard=Guard(9))],
        IndexError, "list index out of range",
    ),
    "guard register write out of range": (
        [_move(1, "guard.g7")],
        IndexError, "list assignment index out of range",
    ),
    "unknown port": (
        [_move(1, "alu0.q")], SimulationError, "unknown port alu0.q",
    ),
    "unknown unit": (
        [_move(1, "nope.a")], ArchitectureError, "no unit named 'nope'",
    ),
    "write to an unwritable unit": (
        [_move(1, "imm0.value")],
        SimulationError, "imm0.value is not a writable unit",
    ),
    "read from an unreadable unit": (
        [_move("pc.target", "alu0.a")],
        SimulationError, "pc.target is not a readable unit",
    ),
    "trigger without opcode": (
        [_move(1, "alu0.b")], SimulationError, "trigger on alu0 without opcode",
    ),
    "opcode the unit lacks": (
        [_move(1, "alu0.b", opcode="jump")],
        SimulationError, "alu0 cannot execute 'jump'",
    ),
    "pc trigger without jump": (
        [_move(1, "pc.target", opcode="add")],
        SimulationError, "PC trigger with opcode 'add'",
    ),
    "lsu address out of range": (
        [_move(DMEM_WORDS + 5, "lsu0.addr", opcode="ld")],
        SimulationError, f"data address {DMEM_WORDS + 5:#x} out of range",
    ),
    "bad lsu opcode": (
        [_move(1, "lsu0.addr", opcode="add")],
        SimulationError, "LSU opcode 'add' invalid",
    ),
}


def _program(name: str, *instructions: tuple[list[Move], bool]) -> Program:
    """One instruction per (moves, halt): the moves on the first buses."""
    program = Program(name=name)
    for moves, halt in instructions:
        pad = [None] * (FAULT_ARCH.num_buses - len(moves))
        program.append(Instruction(slots=moves + pad, halt=halt))
    return program


def _fault_program(moves: list[Move], variant: str) -> Program:
    """Prologue, the faulting instruction, a halting nop.

    ``variant``: ``"runs"`` executes the faulting instruction in cycle 1;
    ``"squashed"`` guards each of its moves with the false guard g0;
    ``"after halt"`` halts the prologue, so it never issues.
    """
    if variant == "squashed":
        moves = [dataclasses.replace(m, guard=Guard(0)) for m in moves]
    return _program(
        variant,
        ([_move(3, "rf0.w0", dst_reg=2)], variant == "after halt"),
        (moves, False),
        ([], True),
    )


def _outcome(simulator, program: Program, activity: bool):
    """The run's snapshot, or (error type, message, cycle) if it raised;
    the cycle is None when construction raised."""
    sim = None
    try:
        sim = simulator(FAULT_ARCH, program, activity=activity)
        result = sim.run(max_cycles=100)
    except Exception as exc:
        return type(exc), str(exc), None if sim is None else sim.cycle
    return _snapshot(sim, result)


@pytest.mark.parametrize("activity", [False, True])
@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_raises_like_oracle(fault, activity):
    """Same exception, message and cycle as the oracle; squashed or
    never issued, the same faulting move raises nothing."""
    moves, error, message = FAULTS[fault]
    outcomes = {}
    for variant in ("runs", "squashed", "after halt"):
        program = _fault_program(moves, variant)
        shipped = _outcome(TTASimulator, program, activity)
        assert shipped == _outcome(oracles.TTASimulator, program, activity), (
            variant
        )
        outcomes[variant] = shipped
    raised = outcomes["runs"]
    if activity:
        # A traced run encodes the program up front: the encoder
        # rejects, at construction, a move whose port, unit or opcode
        # the format lacks, or whose register or guard index does not
        # fit its field, squashed or not.  The oracle's outcome is the
        # spec.
        assert isinstance(raised, tuple) and raised[2] in (None, 1)
        assert raised[2] is not None or raised[0] is EncodingError
        assert raised[2] is None or isinstance(outcomes["after halt"], dict)
        return
    assert raised == (error, raised[1], 1) and message in raised[1]
    assert isinstance(outcomes["squashed"], dict)
    assert isinstance(outcomes["after halt"], dict)


def test_raised_run_folds_nothing():
    """A traced run that raises leaves ``activity`` as the runs before it
    left it (empty before the first) and stops in the faulting cycle,
    as :meth:`TTASimulator.run` documents: the faulting run's activity
    is not folded in.  The oracle records events up to the faulting
    move, so it cannot serve here."""
    empty = _trace(ActivityTrace(width=FAULT_ARCH.width))
    raised = 0
    for fault, (moves, error, _message) in FAULTS.items():
        program = _fault_program(moves, "runs")
        try:
            first = TTASimulator(FAULT_ARCH, program, activity=True)
        except EncodingError:
            continue                    # rejected before any run
        resumed = TTASimulator(FAULT_ARCH, program, activity=True)
        resumed.run(max_cycles=1)       # the prologue
        prologue = _trace(resumed.activity)
        for sim, before in ((first, empty), (resumed, prologue)):
            with pytest.raises(error):
                sim.run(max_cycles=100)
            assert (sim.cycle, sim.pc) == (1, 1), fault
            assert _trace(sim.activity) == before, fault
        raised += 1
    assert raised >= 5


@pytest.mark.parametrize("activity", [False, True])
@pytest.mark.parametrize("target", range(3, 9))
def test_jump_targets_wrap_like_oracle(target, activity):
    """A jump target is taken modulo the program length plus one: the
    length itself ends the program, longer targets wrap around."""
    program = _program(
        "wrap",
        ([_move(target, "pc.target", opcode="jump")], False),
        ([], False),                                        # delay slot
        ([_move(1, "rf0.w0", dst_reg=0)], False),
        ([], True),
    )
    sim = oracles.TTASimulator(FAULT_ARCH, program, activity=activity)
    oracle = _snapshot(sim, sim.run(max_cycles=50))
    for rule, bound in BOUNDS.items():
        with _compiling(bound):
            sim = TTASimulator(FAULT_ARCH, program, activity=activity)
            assert _snapshot(sim, sim.run(max_cycles=50)) == oracle, rule


@pytest.mark.parametrize("activity", [False, True])
@pytest.mark.parametrize(
    "workload,label",
    [("gcd", "b1-alu1-8r1R1W"), ("dotprod", "b2-alu1-mul1-8r1R1W")],
)
def test_split_runs_match_oracle(workload, label, activity):
    """``run(max_cycles=k)``, ``run()``, ``run()`` again after the halt:
    every leg's result, state and trace as the oracle's, for every k
    (latency-2 loads and multiplies are in flight at some splits)."""
    config = next(
        c for s in ("small", "dsp") for c in space_by_name(s) if c.label() == label
    )
    point = _context(workload, 8).evaluate(config, keep_compile_result=True)
    program = point.compile_result.program
    arch = build_architecture_cached(config, 8)
    cycles = TTASimulator(arch, program).run().cycles
    for k in range(1, cycles + 1):
        sim = oracles.TTASimulator(arch, program, activity=activity)
        oracle = [
            _snapshot(sim, sim.run(max_cycles=limit))
            for limit in (k, MAX_CYCLES, MAX_CYCLES)
        ]
        assert oracle[1]["result"][1], "the second leg halts"
        for rule, bound in BOUNDS.items():
            with _compiling(bound):
                sim = TTASimulator(arch, program, activity=activity)
                shipped = [
                    _snapshot(sim, sim.run(max_cycles=limit))
                    for limit in (k, MAX_CYCLES, MAX_CYCLES)
                ]
            assert shipped == oracle, f"split at {k}, {rule} bound"


# ----------------------------------------------------------------------
# the traced fold: first touches and counts the replay must reconstruct
# ----------------------------------------------------------------------
#: FAULT_ARCH with two read ports on its RF: one instruction reads it twice.
TWO_READ_ARCH = make_arch(3, width=32, rf_setups=((4, 2, 1),), with_mul=True)


def _legs_match_oracle(program: Program, arch=FAULT_ARCH) -> None:
    """Traced, both simulators leave the same snapshot after every leg of
    every split: ``run(max_cycles=k)`` for each k up to one past the
    halt, then ``run()`` twice (each re-run executes the halting
    instruction again).  The shipped simulator runs under each of
    :data:`BOUNDS`."""
    cycles = TTASimulator(arch, program).run(max_cycles=50).cycles
    for k in range(1, cycles + 2):
        sim = oracles.TTASimulator(arch, program, activity=True)
        limits = (k, 50, 50)
        oracle = [_snapshot(sim, sim.run(max_cycles=limit)) for limit in limits]
        for rule, bound in BOUNDS.items():
            with _compiling(bound):
                sim = TTASimulator(arch, program, activity=True)
                shipped = [
                    _snapshot(sim, sim.run(max_cycles=limit)) for limit in limits
                ]
            assert shipped == oracle, f"split at {k}, {rule} bound"


@pytest.mark.parametrize("invert", [False, True])
def test_guarded_move_live_after_a_squash(invert):
    """A guarded move squashed the first time its instruction runs and
    live the second time first touches its keys in the later cycle."""
    live = 0 if invert else 1          # the g1 value the moves run on
    guard = Guard(1, invert=invert)
    program = _program(
        "guarded",
        ([_move(1 - live, "guard.g1")], False),
        # jump back once (g2 is clear only the first time), and a
        # guarded operand and trigger
        ([_move(1, "pc.target", opcode="jump", guard=Guard(2, invert=True)),
          _move(6, "mul0.a", guard=guard),
          _move(7, "mul0.b", opcode="mul", guard=guard)], False),
        # the delay slot
        ([_move(live, "guard.g1"), _move(1, "guard.g2"),
          _move(5, "alu0.b", opcode="add")], False),
        ([], True),
    )
    _legs_match_oracle(program)


def test_result_in_flight_at_halt():
    """Results still in flight when the program halts have not landed:
    their result ports stay out of the trace until a re-run reaches
    their due cycle."""
    program = _program(
        "in flight at halt",
        ([_move(3, "mul0.a"), _move(4, "mul0.b", opcode="mul")], False),
        ([_move(5, "lsu0.addr", opcode="ld")], True),
    )
    _legs_match_oracle(program)


def test_result_in_flight_at_a_cut():
    """A run cut by ``max_cycles`` with latency-2 results in flight, then
    resumed: each lands, and first touches its port, in the later leg."""
    program = _program(
        "in flight at a cut",
        ([_move(3, "mul0.a"), _move(4, "mul0.b", opcode="mul")], False),
        ([_move(6, "lsu0.addr", opcode="ld"),
          _move(1, "alu0.a"), _move(2, "alu0.b", opcode="add")], False),
        ([_move("mul0.y", "rf0.w0", dst_reg=0)], False),
        ([_move("lsu0.rdata", "rf0.w0", dst_reg=1)], False),
        ([], True),
    )
    _legs_match_oracle(program)


def test_two_reads_of_one_rf_in_one_instruction():
    """Two reads of one RF in one instruction, through two ports and
    through one: two reads each, and the read path toggles between
    them in bus order."""
    program = _program(
        "two reads",
        ([_move(1, "rf0.w0", dst_reg=1)], False),
        ([_move(2, "rf0.w0", dst_reg=2)], False),
        ([_move("rf0.r0", "mul0.a", src_reg=1),
          _move("rf0.r1", "mul0.b", src_reg=2, opcode="mul")], False),
        ([_move("rf0.r0", "alu0.a", src_reg=2),
          _move("rf0.r0", "alu0.b", src_reg=1, opcode="add")], True),
    )
    _legs_match_oracle(program, TWO_READ_ARCH)


#: Where the crypt run is cut: its first cycles; cycles 5, 7, 41, 42 and
#: 150, which (at this schedule) each leave a unit's first result in
#: flight; and cycles inside its loops.
CRYPT_SPLITS = (1, 2, 3, 5, 7, 41, 42, 150, 331, 4096)


def test_crypt_split_runs_match_oracle():
    """crypt cut by ``max_cycles`` at a handful of cycles, then run to its
    halt: the cut leaves the oracle's snapshot at that cycle, and the
    resumed run the oracle's whole run, its result counting only its
    own moves."""
    config = next(c for c in space_by_name("crypt") if c.label() == CRYPT_CONFIGS[0])
    point = _context("crypt", 8).evaluate(config, keep_compile_result=True)
    program = point.compile_result.program
    arch = build_architecture_cached(config, 8)
    whole = oracles.TTASimulator(arch, program, activity=True)
    done = _snapshot(whole, whole.run(max_cycles=MAX_CYCLES))
    for k in CRYPT_SPLITS:
        oracle = oracles.TTASimulator(arch, program, activity=True)
        cut = _snapshot(oracle, oracle.run(max_cycles=k))
        counts = [a - b for a, b in zip(done["result"][3:], cut["result"][3:])]
        resumed = dict(done, result=(*done["result"][:3], *counts))
        for rule, bound in BOUNDS.items():
            with _compiling(bound):
                sim = TTASimulator(arch, program, activity=True)
                assert _snapshot(sim, sim.run(max_cycles=k)) == cut, (
                    f"cut at {k}, {rule} bound"
                )
                assert _snapshot(sim, sim.run(max_cycles=MAX_CYCLES)) == resumed, (
                    f"resumed after {k}, {rule} bound"
                )


# ----------------------------------------------------------------------
# the compiled tier: faults, cuts and edges inside generated code
# ----------------------------------------------------------------------
def _internals(sim) -> dict:
    """What a later run reads or folds, beside the architectural state."""
    state = {
        "cycle": sim.cycle,
        "pc": sim.pc,
        "pending": sim._pending_jump,
        "regs": sim._regs,
        "results": sim._results,
        "due": sim._due,
    }
    if sim.activity is not None:
        sim._fold_runs()
        state.update(
            toggles=sim._toggles, execs=sim._execs, firsts=sim._firsts,
            lives=sim._lives, live_firsts=sim._live_firsts,
            fetch=(sim._last_word, sim._fetch_toggles),
        )
    return state


def _raise_inside_block(program: Program, activity: bool, error: str):
    """Run ``program`` to its fault under each of :data:`BOUNDS` --
    interpreted under the default, compiled when forced: both raise the
    oracle's error at its cycle and leave the same state and the same
    internal counts; the compiled run raised inside generated code.  A
    run that resumes after the fault is repaired leaves both alike too."""
    oracle = oracles.TTASimulator(FAULT_ARCH, program, activity=activity)
    with pytest.raises(SimulationError) as caught:
        oracle.run(max_cycles=200)
    expected = (str(caught.value), oracle.cycle, oracle.pc)
    assert error in expected[0]
    runs = []
    for rule, bound in BOUNDS.items():
        with _compiling(bound):
            sim = TTASimulator(FAULT_ARCH, program, activity=activity)
            with pytest.raises(SimulationError) as caught:
                sim.run(max_cycles=200)
        assert (str(caught.value), sim.cycle, sim.pc) == expected, rule
        assert [sim.rf_value("rf0", r) for r in range(4)] == [
            oracle.rf_value("rf0", r) for r in range(4)
        ]
        assert (_items(sim.dmem), sim.guards) == (_items(oracle.dmem), oracle.guards)
        runs.append(sim)
    interpreted, compiled = runs
    assert compiled._compiled and compiled._compiled[0].calls >= 1, (
        "the fault must come on a later compiled entry"
    )
    assert not interpreted._compiled
    assert _internals(compiled) == _internals(interpreted)
    assert compiled.activity == interpreted.activity
    return compiled, interpreted


def _resume_alike(compiled, interpreted, repair) -> None:
    """Repair the fault in both, run on for a while, compare everything."""
    snapshots = []
    for sim in (compiled, interpreted):
        repair(sim)
        result = sim.run(max_cycles=sim.cycle + 12)
        snapshots.append((_snapshot(sim, result), _internals(sim)))
    assert snapshots[0] == snapshots[1]


#: The address doubles thrice per entry of the block at pc 2 and feeds a
#: load, so the third entry's load faults past ``DMEM_WORDS``; a
#: multiply in flight at the fault lands inside the block, another one
#: crosses its edge.
WALKING_ADDRESS = _program(
    "walking address",
    ([_move(1, "alu0.a"), _move(8, "alu0.b", opcode="shl"),
      _move(3, "mul0.a")], False),
    ([], False),
    ([_move("alu0.y", "alu0.a"), _move(3, "alu0.b", opcode="shl"),
      _move(7, "mul0.b", opcode="mul")], False),
    ([_move("alu0.y", "lsu0.addr", opcode="ld")], False),
    ([_move(2, "pc.target", opcode="jump"), _move("mul0.y", "mul0.a"),
      _move(5, "mul0.b", opcode="mul")], False),
    ([_move("lsu0.rdata", "rf0.w0", dst_reg=1)], False),   # the delay slot
    ([], True),
)


def _counting(guarded_read: str, flips: int = 1) -> Program:
    """A block at pc 2 that counts in alu0.y and copies the count's low
    bit to g1, then, in the delay slot, moves ``guarded_read`` into r0 on
    g1: squashed on the first entry, live on the second."""
    return _program(
        "counting",
        ([_move(1, "alu0.a"), _move(0, "alu0.b", opcode="add")], False),
        ([], False),
        ([_move("alu0.y", "alu0.a"), _move(flips, "alu0.b", opcode="add")], False),
        ([_move("alu0.y", "guard.g1"), _move("alu0.y", "rf0.w0", dst_reg=2)],
         False),
        ([_move(2, "pc.target", opcode="jump")], False),
        ([_move(guarded_read, "rf0.w0", dst_reg=0, guard=Guard(1))], False),
        ([], True),
    )


@pytest.mark.parametrize("activity", [False, True])
def test_address_fault_inside_a_compiled_block(activity):
    """A data address that walks out of range faults in the third entry
    of a compiled block: the error, cycle and state are the oracle's, and
    the internal counts (and a repaired resumption) the interpreter's."""
    compiled, interpreted = _raise_inside_block(
        WALKING_ADDRESS, activity, "out of range"
    )
    assert compiled._due, "a multiply was in flight at the fault"

    def repair(sim):
        sim._results[0] = 1                      # alu0.y back in range

    _resume_alike(compiled, interpreted, repair)


#: ``_counting("mul0.y")`` with a multiply that is always squashed (on
#: g2, set in the prologue) landing in the block before the read.
SQUASHED_PRODUCER = _program(
    "squashed producer",
    ([_move(1, "alu0.a"), _move(0, "alu0.b", opcode="add"),
      _move(1, "guard.g2")], False),
    ([], False),
    ([_move("alu0.y", "alu0.a"), _move(1, "alu0.b", opcode="add"),
      _move(5, "mul0.b", opcode="mul", guard=Guard(2, invert=True))], False),
    ([_move("alu0.y", "guard.g1")], False),
    ([_move(2, "pc.target", opcode="jump")], False),
    ([_move("mul0.y", "rf0.w0", dst_reg=0, guard=Guard(1))], False),
    ([], True),
)


@pytest.mark.parametrize("activity", [False, True])
@pytest.mark.parametrize(
    "program", [_counting("mul0.y"), SQUASHED_PRODUCER], ids=lambda p: p.name
)
def test_eq3_fault_inside_a_compiled_block(program, activity):
    """A guarded read of a unit that never produced a result (its one
    trigger, if any, squashed), squashed on the block's first entry and
    live on its second, faults inside generated code after the jump
    committed: the pending jump, the counts and a repaired resumption
    are the interpreter's."""
    compiled, interpreted = _raise_inside_block(
        program, activity, "before any result (eq. 3)"
    )
    assert compiled._pending_jump is not None

    def repair(sim):
        sim._results[2] = 9                      # mul0.y now holds a result

    _resume_alike(compiled, interpreted, repair)


def test_guarded_move_squashed_on_some_entries():
    """A guarded move in a compiled block, live on every other entry:
    the traced legs of every split match the oracle."""
    _legs_match_oracle(_counting("alu0.y"))


def test_results_in_flight_across_the_block_edge():
    """Results that cross the block edge land in the next entry's first
    cycles, in unit order: two alu0 results of one instruction in trigger
    order, then a multiply.  One more multiply, and two alu0 results of
    one instruction, land inside the block."""
    program = _program(
        "across the edge",
        ([_move(1, "alu0.a"), _move(4, "alu0.b", opcode="add"),
          _move(3, "mul0.a")], False),
        ([], False),
        ([_move(1, "alu0.b", opcode="add"), _move("alu0.y", "rf0.w0", dst_reg=0),
          _move(2, "mul0.b", opcode="mul")], False),
        ([_move(8, "alu0.b", opcode="add"), _move(9, "alu0.b", opcode="add")],
         False),
        ([_move(2, "pc.target", opcode="jump"),
          _move("alu0.y", "mul0.b", opcode="mul"),
          _move(5, "alu0.b", opcode="add")], False),
        ([_move("alu0.y", "alu0.a"), _move(6, "alu0.b", opcode="add"),
          _move(7, "alu0.b", opcode="add")], False),
        ([], True),
    )
    _legs_match_oracle(program)


def _guard_first(write: Move) -> Program:
    """A block at pc 2 whose first instruction makes ``write`` to g1 (from
    an RF word or a result), before the results queued ahead of the entry
    land; the delay slot reads g1."""
    return _program(
        f"g1 from {write.src} first",
        ([_move(1, "alu0.a"), _move(0, "alu0.b", opcode="add")], False),
        ([_move(1, "rf0.w0", dst_reg=0)], False),
        ([write, _move("alu0.y", "alu0.a"),
          _move(1, "alu0.b", opcode="add")], False),
        ([_move("alu0.y", "rf0.w0", dst_reg=0)], False),
        ([_move(2, "pc.target", opcode="jump")], False),
        ([_move(7, "rf0.w0", dst_reg=1, guard=Guard(1))], False),
        ([], True),
    )


#: A block writing g1 and g2 from results that differ, then g1 again
#: on g2.
GUARDS_TWICE = _program(
    "guards written twice",
    ([_move(1, "alu0.a"), _move(0, "alu0.b", opcode="add")], False),
    ([], False),
    ([_move("alu0.y", "alu0.a"), _move(1, "alu0.b", opcode="add")], False),
    ([_move("alu0.y", "guard.g1"), _move("alu0.y", "alu0.a"),
      _move(1, "alu0.b", opcode="add")], False),
    ([_move(2, "pc.target", opcode="jump"), _move("alu0.y", "guard.g2")], False),
    ([_move("alu0.y", "guard.g1", guard=Guard(2)),
      _move(7, "rf0.w0", dst_reg=1, guard=Guard(1))], False),
    ([], True),
)


@pytest.mark.parametrize(
    "program",
    [_guard_first(_move("rf0.r0", "guard.g1", src_reg=0)),
     _guard_first(_move("alu0.y", "guard.g1")), GUARDS_TWICE],
    ids=lambda p: p.name,
)
def test_guard_bits_written_in_a_block(program):
    """Guard bits written from values only known at run time: each write
    toggles the guard bits from the value it overwrites."""
    _legs_match_oracle(program)


def test_first_entry_cut_then_compiled():
    """A block whose first entry is cut by ``max_cycles`` -- at each of
    its cycles and at its very start -- and then resumed: every leg
    matches the oracle, and a cut at the start leaves instructions whose
    first execution is compiled."""
    program = _counting("alu0.y", flips=2)
    _legs_match_oracle(program)
    with _compiling(BOUNDS["forced"]):
        sim = TTASimulator(FAULT_ARCH, program, activity=True)
        sim.run(max_cycles=2)                    # stops at the block's entry
        assert (sim.pc, sim._execs[2:6]) == (2, [0, 0, 0, 0])
        sim.run(max_cycles=6)
    assert sim._compiled[0].calls == 1 and sim._firsts[2:6] == [2, 3, 4, 5]
