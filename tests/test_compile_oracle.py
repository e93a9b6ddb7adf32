"""Differential test: the compile path against its predecessor.

The shipped scheduler resolves each unit's ports, the shared
:class:`~repro.tta.isa.PortRef`\\ s and the fusable compares once per
``schedule_allocated`` call, and the shipped validator checks each move
in one pass over per-call port records.  ``tests/oracles.py`` keeps the
scheduler that re-derived all of that per operation and the validator
that checked each move through three helper calls.  Both must produce
the same program (every slot's ``Move``, the listing, block cycles and
starts, the move count), the same ``ScheduleError`` message and the same
``TimingViolation`` list, in order, with ``strict`` on and off.

The corpus: every registered workload on the ``small`` and ``dsp``
spaces at widths 8 and 16 (infeasible points included: their scheduler
errors must match too), crypt on a slice of the ``crypt`` space,
``tests/test_compiler_fuzz.py``'s random programs, branch-fusion
variants, and seeded mutations of scheduled programs that raise every
kind of finding, several per instruction, in front of both validators.
``tests/compile_corpus.py`` runs the whole workload x space x width
grid.
"""

from __future__ import annotations

import dataclasses
import random
from functools import lru_cache

import pytest

from repro.apps.registry import build_workload, workload_names
from repro.compiler import IRBuilder
from repro.compiler.regalloc import AllocationError, allocate
from repro.compiler.scheduler import schedule_allocated
from repro.components.spec import ComponentKind
from repro.explore.space import build_architecture_cached, space_by_name
from repro.study import workload_profile
from repro.tta.arch import Architecture
from repro.tta.isa import (
    GUARD_UNIT,
    Guard,
    Instruction,
    Literal,
    Move,
    PortRef,
    Program,
)
from repro.tta.timing import validate_program

from tests import oracles
from tests.conftest import make_arch
from tests.test_compiler_fuzz import _SHAPES, _random_program

WIDTHS = (8, 16)
#: Every 14th crypt-space template (12 of 168); the corpus script runs all.
CRYPT_SLICE = tuple(space_by_name("crypt"))[::14]


@lru_cache(maxsize=None)
def _workload(name: str, width: int):
    fn = build_workload(name)
    fn.validate()
    return fn, workload_profile(name, width)


def _outcome(schedule, rewritten, allocation, arch, validate):
    """A schedule's result as comparable data and its program, or its
    error and None."""
    try:
        result = schedule(rewritten, allocation, arch, validate=validate)
    except Exception as exc:  # noqa: BLE001 - any error must match
        return ("error", type(exc).__name__, str(exc)), None
    program = result.program
    return {
        "slots": [list(i.slots) for i in program.instructions],
        "halt": [i.halt for i in program.instructions],
        "labels": [i.label for i in program.instructions],
        "program_labels": list(program.labels.items()),
        "data": list(program.data.items()),
        "name": program.name,
        "listing": program.listing(),
        "block_cycles": list(result.block_cycles.items()),
        "block_starts": list(result.block_starts.items()),
        "total_moves": result.total_moves,
        "allocation": result.allocation is allocation,
    }, program


def _check_validators(arch: Architecture, program: Program) -> None:
    for strict in (False, True):
        shipped = validate_program(arch, program, strict=strict)
        expected = oracles.validate_program(arch, program, strict=strict)
        assert shipped == expected, (arch.name, strict)


def check_schedule(rewritten, allocation, arch: Architecture) -> bool:
    """Compare both schedulers (and validators) on one input.

    Returns whether the point compiled and validated; raises
    ``AssertionError`` on the first difference.
    """
    for validate in (False, True):
        shipped, program = _outcome(
            schedule_allocated, rewritten, allocation, arch, validate
        )
        expected, _ = _outcome(
            oracles.schedule_allocated, rewritten, allocation, arch, validate
        )
        assert shipped == expected, (arch.name, validate)
        if program is not None and not validate:
            _check_validators(arch, program)
    return program is not None


def check_point(workload: str, config, width: int) -> bool | None:
    """Compare one (workload, template, width); None if it cannot allocate."""
    fn, profile = _workload(workload, width)
    arch = build_architecture_cached(config, width)
    try:
        rewritten, allocation = allocate(fn, arch, profile)
    except AllocationError:
        return None
    return check_schedule(rewritten, allocation, arch)


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("space", ("small", "dsp"))
@pytest.mark.parametrize("workload", workload_names())
def test_workload_grid_matches_oracle(workload, space, width):
    for config in space_by_name(space):
        check_point(workload, config, width)


@pytest.mark.parametrize("width", WIDTHS)
def test_crypt_slice_matches_oracle(width):
    compiled = [check_point("crypt", config, width) for config in CRYPT_SLICE]
    assert any(compiled)


@pytest.mark.parametrize("seed", range(40))
def test_fuzz_programs_match_oracle(seed):
    fn = _random_program(seed)
    fn.validate()
    arch = make_arch(**_SHAPES[seed % len(_SHAPES)])
    rewritten, allocation = allocate(fn, arch)
    assert check_schedule(rewritten, allocation, arch)


def _branchy(variant: str):
    """Branch conditions that can or cannot be fused into guard g0.

    ``shared``: two blocks branch on one compare; ``read``: an op also
    reads the compare's result; ``redefined``: the block's last write
    of the condition is not a compare; ``fusable``: none of these.
    """
    b = IRBuilder(f"branchy-{variant}")
    b.block("entry")
    x = b.li(5, "%x")
    cond = b.ltu(x, 3, "%c")
    if variant == "redefined":
        b.and_(x, 1, cond)
    if variant == "read":
        b.store(8, cond)
    b.branch(cond, "then", "other", invert=variant == "fusable")
    b.block("then")
    b.store(0, x)
    if variant == "shared":
        b.branch(cond, "done", "other")
    else:
        b.jump("done")
    b.block("other")
    b.store(1, x)
    b.jump("done")
    b.block("done")
    b.halt()
    return b.finish()


@pytest.mark.parametrize("variant", ("fusable", "shared", "read", "redefined"))
@pytest.mark.parametrize("buses", (1, 2, 3))
def test_branch_fusion_matches_oracle(variant, buses):
    fn = _branchy(variant)
    fn.validate()
    arch = make_arch(num_buses=buses)
    rewritten, allocation = allocate(fn, arch)
    assert check_schedule(rewritten, allocation, arch)


def test_sparse_connectivity_errors_match_oracle():
    """The scheduler ignores connectivity, so a sparse template makes the
    validating schedule fail: both must fail with the same message."""
    fn, profile = _workload("gcd", 16)
    base = make_arch(num_buses=3)
    arch = _sparse(base)
    rewritten, allocation = allocate(fn, arch, profile)
    assert not check_schedule(rewritten, allocation, arch)


# ----------------------------------------------------------------------
# seeded mutations: every finding kind, several per instruction
# ----------------------------------------------------------------------
def _sparse(arch: Architecture) -> Architecture:
    """``arch`` with every other port wired to bus 0 only."""
    ports = sorted(arch.connectivity)
    return Architecture(
        f"{arch.name}-sparse",
        arch.width,
        arch.num_buses,
        list(arch.units.values()),
        connectivity={key: frozenset({0}) for key in ports[::2]},
        num_guard_regs=arch.num_guard_regs,
    )


def _without_imm(arch: Architecture) -> Architecture:
    return Architecture(
        f"{arch.name}-noimm",
        arch.width,
        arch.num_buses,
        [u for u in arch.units.values() if u.spec.kind is not ComponentKind.IMM],
        num_guard_regs=arch.num_guard_regs,
    )


def _copy(program: Program) -> Program:
    return Program(
        instructions=[
            Instruction(list(i.slots), i.halt, i.label) for i in program.instructions
        ],
        labels=dict(program.labels),
        data=dict(program.data),
        name=program.name,
    )


def _moves(program: Program, where=lambda move: True) -> list[tuple[int, int]]:
    return [
        (cycle, bus)
        for cycle, instruction in enumerate(program.instructions)
        for bus, move in enumerate(instruction.slots)
        if move is not None and where(move)
    ]


def _edit(program: Program, rng, where, **changes) -> None:
    """Replace one move matching ``where`` (if any) with ``changes``."""
    spots = _moves(program, where)
    if spots:
        cycle, bus = rng.choice(spots)
        slots = program.instructions[cycle].slots
        slots[bus] = dataclasses.replace(slots[bus], **changes)


def _ports(arch: Architecture, inputs: bool) -> list[PortRef]:
    return [
        PortRef(unit.name, port.name)
        for unit in arch.units.values()
        for port in unit.spec.ports
        if port.is_input == inputs
    ]


def _swap_buses(rng, program, arch):
    spots = _moves(program)
    if spots:
        cycle, bus = rng.choice(spots)
        slots = program.instructions[cycle].slots
        other = rng.randrange(len(slots))
        slots[bus], slots[other] = slots[other], slots[bus]


def _swap_cycles(rng, program, arch):
    spots = _moves(program)
    if spots:
        cycle, bus = rng.choice(spots)
        other = rng.choice(program.instructions).slots
        here = program.instructions[cycle].slots
        spot = rng.randrange(len(other))
        here[bus], other[spot] = other[spot], here[bus]


def _duplicate(rng, program, arch):
    spots = _moves(program)
    if spots:
        cycle, bus = rng.choice(spots)
        slots = program.instructions[cycle].slots
        slots[rng.randrange(len(slots))] = slots[bus]


def _drop(rng, program, arch):
    spots = _moves(program)
    if spots:
        cycle, bus = rng.choice(spots)
        program.instructions[cycle].slots[bus] = None


def _bad_register(rng, program, arch):
    bad = rng.choice([-1, 1000, None])
    if rng.random() < 0.5:
        _edit(program, rng, lambda m: m.src_reg is not None, src_reg=bad)
    else:
        _edit(program, rng, lambda m: m.dst_reg is not None, dst_reg=bad)


def _bad_guard(rng, program, arch):
    pick = rng.randrange(3)
    if pick == 0:
        _edit(program, rng, lambda m: True, guard=Guard(rng.choice([-1, 4, 99])))
    elif pick == 1:
        dst = PortRef(GUARD_UNIT, rng.choice(["g9", "gx", "g", "g3", "g4"]))
        _edit(program, rng, lambda m: True, dst=dst)
    else:
        src = PortRef(GUARD_UNIT, rng.choice(["g12", "q0", "g1", "g4"]))
        _edit(program, rng, lambda m: True, src=src)


def _unknown_port(rng, program, arch):
    unit = rng.choice(sorted(arch.units))
    ref = rng.choice([PortRef("nosuch", "p"), PortRef(unit, "nope")])
    if rng.random() < 0.5:
        _edit(program, rng, lambda m: True, dst=ref)
    else:
        _edit(program, rng, lambda m: True, src=ref)


def _wrong_direction(rng, program, arch):
    if rng.random() < 0.5:
        _edit(program, rng, lambda m: True, dst=rng.choice(_ports(arch, False)))
    else:
        _edit(program, rng, lambda m: True, src=rng.choice(_ports(arch, True)))


def _bad_opcode(rng, program, arch):
    opcode = rng.choice(["bogus", None, "mul", "jump", "ld", "add", "st", "eq"])
    _edit(program, rng, lambda m: m.opcode is not None, opcode=opcode)


def _long_literal(rng, program, arch):
    """A long immediate: on one bus, often followed by a non-empty
    instruction; on more, often sharing its instruction."""
    value = rng.choice([1000, -1000, 127, 128, -129, 1 << 20])
    _edit(program, rng, lambda m: True, src=Literal(value))


def _jump_target(rng, program, arch):
    target = rng.choice([len(program), len(program) + 1, -1, 10_000, 0])
    _edit(program, rng, lambda m: m.opcode == "jump", src=Literal(target))


MUTATIONS = (
    _swap_buses,
    _swap_cycles,
    _duplicate,
    _drop,
    _bad_register,
    _bad_guard,
    _unknown_port,
    _wrong_direction,
    _bad_opcode,
    _long_literal,
    _jump_target,
)


@lru_cache(maxsize=None)
def _bases() -> tuple[tuple[Architecture, Program], ...]:
    """Scheduled programs to mutate: one- to four-bus templates."""
    bases = []
    for workload, space, width in (
        ("gcd", "small", 8), ("crc16", "small", 16), ("fir", "dsp", 16),
    ):
        fn, profile = _workload(workload, width)
        for config in tuple(space_by_name(space))[::3]:
            arch = build_architecture_cached(config, width)
            try:
                rewritten, allocation = allocate(fn, arch, profile)
                result = schedule_allocated(rewritten, allocation, arch)
            except Exception:  # noqa: BLE001 - infeasible templates
                continue
            bases.append((arch, result.program))
    for seed, shape in enumerate(_SHAPES):
        arch = make_arch(**shape)
        fn = _random_program(seed)
        rewritten, allocation = allocate(fn, arch)
        bases.append((arch, schedule_allocated(rewritten, allocation, arch).program))
    return tuple(bases)


def test_one_bus_long_immediate_before_busy_instruction():
    """Pinned case: a 1-bus long immediate followed by a non-empty
    instruction is a slot-budget finding; before an empty one it is not."""
    arch = make_arch(num_buses=1)
    fn = _random_program(3)
    rewritten, allocation = allocate(fn, arch)
    program = schedule_allocated(rewritten, allocation, arch).program
    busy = next(
        c for c in range(len(program) - 1)
        if program.instructions[c].slots[0] is not None
        and program.instructions[c + 1].slots[0] is not None
    )
    mutated = _copy(program)
    move = mutated.instructions[busy].slots[0]
    mutated.instructions[busy].slots[0] = dataclasses.replace(move, src=Literal(999))
    findings = validate_program(arch, mutated)
    assert any("long immediates exceed" in str(v) for v in findings)
    _check_validators(arch, mutated)
    _check_validators(_without_imm(arch), mutated)


#: One fragment of each finding the validator can make.
FINDINGS = (
    "out of range", "bad guard destination", "bad guard source",
    "unknown unit", "unknown port", "is not an input port",
    "is not an output port", "not connected to bus", "bad register index",
    "not supported by", "LSU opcode", "PC opcode",
    "outside program", "long immediate needs an immediate unit",
    "long immediates exceed", "moves write", "drives", "used 2x",
    "before any result is ready", "overwritten unread",
)


def test_one_move_on_both_ends_of_a_register_file_port():
    """Pinned case: a single move reading and writing one RF port uses
    that port twice, though no other move shares its instruction."""
    arch = make_arch(num_buses=2)
    port = PortRef("rf0", "w0")
    move = Move(port, port, src_reg=0, dst_reg=0)
    program = Program(instructions=[Instruction([move, None])])
    findings = [str(v) for v in validate_program(arch, program)]
    assert "cycle 0, bus 0: register-file port rf0.w0 used 2x" in findings
    _check_validators(arch, program)


def test_mutated_programs_match_oracle():
    rng = random.Random(2024)
    bases = _bases()
    seen = set()
    for _ in range(480):
        arch, program = rng.choice(bases)
        mutated = _copy(program)
        for _ in range(rng.randint(1, 3)):
            rng.choice(MUTATIONS)(rng, mutated, arch)
        variant = rng.choice((arch, _sparse(arch), _without_imm(arch)))
        _check_validators(variant, mutated)
        for finding in validate_program(variant, mutated):
            seen.update(f for f in FINDINGS if f in finding.message)
    assert seen == set(FINDINGS), set(FINDINGS) - seen
