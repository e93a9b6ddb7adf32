"""Move ISA data model tests."""

import pytest

from repro.tta import Guard, Instruction, Literal, Move, PortRef, Program
from repro.tta.isa import fits_short_immediate


def test_move_formatting():
    m = Move(
        src=PortRef("rf0", "r0"),
        dst=PortRef("alu0", "b"),
        opcode="add",
        src_reg=3,
        guard=Guard(1, invert=True),
    )
    text = str(m)
    assert "rf0.r0[3]" in text
    assert "alu0.b:add" in text
    assert "(!g1)" in text


def test_literal_move():
    m = Move(src=Literal(42), dst=PortRef("alu0", "a"))
    assert m.is_immediate()
    assert not m.needs_long_immediate()
    assert "#42" in str(m)


def test_long_immediate_threshold():
    for value, fits in ((127, True), (128, False), (-128, True), (-129, False)):
        assert fits_short_immediate(value) is fits
        long = Move(Literal(value), PortRef("x", "p")).needs_long_immediate()
        assert long is not fits


def test_instruction_slots_used():
    short = Move(Literal(5), PortRef("alu0", "a"))
    long = Move(Literal(1000), PortRef("alu0", "b"))
    instr = Instruction(slots=[short, long, None])
    assert len(instr.moves) == 2
    assert instr.slots_used() == 3


def test_instruction_bus_of():
    m = Move(Literal(5), PortRef("alu0", "a"))
    instr = Instruction(slots=[None, m])
    assert instr.bus_of(m) == 1
    with pytest.raises(ValueError):
        instr.bus_of(Move(Literal(1), PortRef("x", "y")))


def test_program_labels():
    p = Program()
    p.append(Instruction(slots=[None], label="start"))
    p.append(Instruction(slots=[None]))
    p.append(Instruction(slots=[None], label="loop"))
    assert p.labels == {"start": 0, "loop": 2}
    assert len(p) == 3


def test_program_duplicate_label_rejected():
    p = Program()
    p.append(Instruction(slots=[None], label="x"))
    with pytest.raises(ValueError):
        p.append(Instruction(slots=[None], label="x"))


def test_program_listing_contains_moves():
    p = Program(name="demo")
    p.append(Instruction(slots=[Move(Literal(1), PortRef("rf0", "w0"), dst_reg=0)]))
    listing = p.listing()
    assert "demo" in listing
    assert "#1" in listing
    assert "rf0.w0[0]" in listing
