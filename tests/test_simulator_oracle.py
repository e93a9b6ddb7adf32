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

``tests/simulator_corpus.py`` loops :func:`_check` over a larger grid.
"""

from __future__ import annotations

import dataclasses
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


def _check(workload: str, config, width: int, activity: bool) -> bool:
    """Run both simulators on one compiled point; False if infeasible."""
    point = _context(workload, width).evaluate(config, keep_compile_result=True)
    if not point.feasible:
        return False
    program = point.compile_result.program
    arch = build_architecture_cached(config, width)
    snapshots = []
    for simulator in (TTASimulator, oracles.TTASimulator):
        sim = simulator(arch, program, activity=activity)
        result = sim.run(max_cycles=MAX_CYCLES)
        assert result.halted, f"{workload} on {config.label()} did not halt"
        snapshots.append(_snapshot(sim, result))
    shipped, oracle = snapshots
    assert shipped == oracle, (
        f"{workload} on {config.label()} at w{width}, activity={activity}"
    )
    return True


@pytest.mark.parametrize(
    "workload", [name for name in workload_names() if name != "crypt"]
)
def test_simulator_matches_oracle(workload):
    """Every small/dsp template that compiles, w8/w16, tracing off/on."""
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
    snapshots = []
    for simulator in (TTASimulator, oracles.TTASimulator):
        sim = simulator(FAULT_ARCH, program, activity=activity)
        snapshots.append(_snapshot(sim, sim.run(max_cycles=50)))
    shipped, oracle = snapshots
    assert shipped == oracle


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
        legs = []
        for simulator in (TTASimulator, oracles.TTASimulator):
            sim = simulator(arch, program, activity=activity)
            legs.append([
                _snapshot(sim, sim.run(max_cycles=limit))
                for limit in (k, MAX_CYCLES, MAX_CYCLES)
            ])
        shipped, oracle = legs
        assert shipped == oracle, f"split at {k}"
        assert shipped[1]["result"][1], "the second leg halts"


# ----------------------------------------------------------------------
# the traced fold: first touches and counts the replay must reconstruct
# ----------------------------------------------------------------------
#: FAULT_ARCH with two read ports on its RF: one instruction reads it twice.
TWO_READ_ARCH = make_arch(3, width=32, rf_setups=((4, 2, 1),), with_mul=True)


def _legs_match_oracle(program: Program, arch=FAULT_ARCH) -> None:
    """Traced, both simulators leave the same snapshot after every leg of
    every split: ``run(max_cycles=k)`` for each k up to one past the
    halt, then ``run()`` twice (each re-run executes the halting
    instruction again)."""
    cycles = TTASimulator(arch, program).run(max_cycles=50).cycles
    for k in range(1, cycles + 2):
        legs = []
        for simulator in (TTASimulator, oracles.TTASimulator):
            sim = simulator(arch, program, activity=True)
            legs.append([
                _snapshot(sim, sim.run(max_cycles=limit)) for limit in (k, 50, 50)
            ])
        shipped, oracle = legs
        assert shipped == oracle, f"split at {k}"


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
        sim = TTASimulator(arch, program, activity=True)
        assert _snapshot(sim, sim.run(max_cycles=k)) == cut, f"cut at {k}"
        counts = [a - b for a, b in zip(done["result"][3:], cut["result"][3:])]
        resumed = dict(done, result=(*done["result"][:3], *counts))
        assert _snapshot(sim, sim.run(max_cycles=MAX_CYCLES)) == resumed, (
            f"resumed after {k}"
        )
