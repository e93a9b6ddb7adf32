"""Binary move encoding: roundtrips and format properties."""

import dataclasses

import pytest

from repro.apps import build_gcd_ir
from repro.compiler import IRInterpreter, compile_ir
from repro.tta import Guard, Literal, Move, PortRef, assemble
from repro.tta.encoding import EncodingError, MoveEncoder

from tests.conftest import make_arch


def _moves_equal(a, b):
    if a is None or b is None:
        return a is b
    return (
        a.src == b.src
        and a.dst == b.dst
        and a.opcode == b.opcode
        and (a.src_reg or 0) == (b.src_reg or 0)
        and (a.dst_reg or 0) == (b.dst_reg or 0)
        and a.guard == b.guard
    )


def test_format_fields_positive(arch2):
    encoder = MoveEncoder(arch2)
    fmt = encoder.format
    assert fmt.slot_bits > 10
    assert fmt.instruction_bits == 2 * fmt.slot_bits + fmt.imm_ext_bits


def test_single_move_roundtrip(arch2):
    encoder = MoveEncoder(arch2)
    move = Move(
        src=PortRef("rf0", "r0"),
        dst=PortRef("alu0", "b"),
        opcode="add",
        src_reg=5,
        guard=Guard(2, invert=True),
    )
    slot, long_imm = encoder.encode_move(move)
    decoded = encoder.decode_move(slot, long_imm or 0)
    assert _moves_equal(move, decoded)


def test_short_immediate_roundtrip(arch2):
    encoder = MoveEncoder(arch2)
    for value in (0, 1, 127, -1, -128):
        move = Move(src=Literal(value), dst=PortRef("alu0", "a"))
        slot, long_imm = encoder.encode_move(move)
        assert long_imm is None
        decoded = encoder.decode_move(slot, 0)
        assert decoded.src == Literal(value)


def test_long_immediate_roundtrip(arch2):
    encoder = MoveEncoder(arch2)
    for value in (128, 1000, 0x7FFF, -129):
        move = Move(src=Literal(value), dst=PortRef("rf0", "w0"), dst_reg=3)
        slot, long_imm = encoder.encode_move(move)
        assert long_imm is not None
        decoded = encoder.decode_move(slot, long_imm)
        assert decoded.src == Literal(value)
        assert decoded.dst_reg == 3


def test_empty_slot_is_zero(arch2):
    encoder = MoveEncoder(arch2)
    assert encoder.decode_move(0, 0) is None
    # and no real move encodes to zero
    move = Move(src=PortRef("alu0", "y"), dst=PortRef("rf0", "w0"), dst_reg=0)
    slot, _ = encoder.encode_move(move)
    assert slot != 0


def test_unknown_port_rejected(arch2):
    encoder = MoveEncoder(arch2)
    with pytest.raises(EncodingError):
        encoder.encode_move(Move(src=PortRef("ghost", "y"),
                                 dst=PortRef("rf0", "w0"), dst_reg=0))
    with pytest.raises(EncodingError):
        encoder.encode_move(Move(src=Literal(1), dst=PortRef("ghost", "a")))


def test_assembled_program_roundtrip(arch2):
    program = assemble(
        """
        #5 -> alu0.a ; #1000 -> rf0.w0[2]
    loop:
        rf0.r0[2] -> alu0.b:add
        alu0.y -> rf0.w0[0]
        (g0) @loop -> pc.target:jump
        halt
        """,
        arch2,
    )
    encoder = MoveEncoder(arch2)
    words = encoder.encode_program(program)
    assert len(words) == len(program.instructions)
    for word, original in zip(words, program.instructions):
        decoded = encoder.decode_instruction(word)
        for a, b in zip(original.slots, decoded.slots):
            assert _moves_equal(a, b), (str(a), str(b))


@pytest.mark.parametrize("buses", [1, 2, 3])
def test_compiled_program_roundtrip(buses):
    arch = make_arch(buses)
    fn = build_gcd_ir(252, 105)
    profile = IRInterpreter(fn, width=16).run().block_counts
    compiled = compile_ir(fn, arch, profile=profile)
    encoder = MoveEncoder(arch)
    words = encoder.encode_program(compiled.program)
    for word, original in zip(words, compiled.program.instructions):
        decoded = encoder.decode_instruction(word)
        for a, b in zip(original.slots, decoded.slots):
            assert _moves_equal(a, b), (str(a), str(b))


def test_instruction_memory_grows_with_buses():
    fn = build_gcd_ir(24, 36)
    profile = IRInterpreter(fn, width=16).run().block_counts
    widths = {}
    for buses in (1, 3):
        arch = make_arch(buses)
        compiled = compile_ir(fn, arch, profile=profile)
        encoder = MoveEncoder(arch)
        widths[buses] = encoder.format.instruction_bits
        assert encoder.program_memory_bits(compiled.program) == len(
            compiled.program.instructions
        ) * encoder.format.instruction_bits
    assert widths[3] > widths[1]


def test_register_index_must_fit_its_field():
    """A 4-register RF gives 2 index bits: register 3 encodes, while 4,
    7 and -1 would spill into the next field or make the word negative,
    so they raise, naming the field."""
    encoder = MoveEncoder(make_arch(2, rf_setups=((4, 1, 1),)))
    assert encoder.format.src_index_bits == 2
    assert encoder.format.dst_index_bits == 2
    read = Move(src=PortRef("rf0", "r0"), dst=PortRef("alu0", "a"), src_reg=3)
    write = Move(src=Literal(1), dst=PortRef("rf0", "w0"), dst_reg=3)
    for move in (read, write):
        slot, long_imm = encoder.encode_move(move)
        assert slot > 0
        assert _moves_equal(move, encoder.decode_move(slot, long_imm or 0))
    for reg in (4, 7, -1):
        with pytest.raises(EncodingError, match=f"src_reg {reg} .*2-bit"):
            encoder.encode_move(dataclasses.replace(read, src_reg=reg))
        with pytest.raises(EncodingError, match=f"dst_reg {reg} .*2-bit"):
            encoder.encode_move(dataclasses.replace(write, dst_reg=reg))


def test_guard_index_must_fit_its_field(arch2):
    encoder = MoveEncoder(arch2)
    bits = encoder.format.guard_bits - 2
    move = Move(src=Literal(1), dst=PortRef("alu0", "a"))
    last = dataclasses.replace(move, guard=Guard((1 << bits) - 1))
    slot, _ = encoder.encode_move(last)
    assert encoder.decode_move(slot, 0).guard == last.guard
    for index in (1 << bits, -1):
        with pytest.raises(EncodingError, match=f"guard index {index} "):
            encoder.encode_move(dataclasses.replace(move, guard=Guard(index)))
