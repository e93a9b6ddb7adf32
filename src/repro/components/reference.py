"""Behavioural reference models for the datapath components.

These are the golden models: the gate-level generators are differentially
tested against them, and the TTA simulator executes them directly (the
gate level exists for area/test back-annotation, not for speed).

Each model is stated once, as a table of two-operand functions per
width (:func:`alu_function`, :func:`cmp_function`, :func:`mul_function`,
:func:`lsu_extend_function`); the ``*_reference`` functions look their
operation up there.  The simulator resolves a move's function once, when
it decodes the program, and calls it directly for every execution.
"""

from __future__ import annotations

from functools import cache
from typing import Callable

from repro.util.bitops import mask, sign_extend, to_signed, to_unsigned

#: ALU operation mnemonics in opcode order (3-bit opcode).
ALU_OPS: tuple[str, ...] = ("add", "sub", "and", "or", "xor", "shl", "shr", "sra")

#: Comparator mnemonics in opcode order (3-bit opcode; 6/7 alias eq/ne).
CMP_OPS: tuple[str, ...] = ("eq", "ne", "ltu", "geu", "lts", "ges")

#: Load/store extension modes (2-bit opcode inside the LSU).
LSU_OPS: tuple[str, ...] = ("word", "low_signed", "low_unsigned", "high")

#: Multiplier mnemonic (single-op FU).
MUL_OPS: tuple[str, ...] = ("mul",)

#: Stand-alone shifter mnemonics (subset of the ALU's shift group).
SHIFTER_OPS: tuple[str, ...] = ("shl", "shr", "sra")

#: A datapath operation on two words (operands need not be masked).
Operation = Callable[[int, int], int]


def shift_amount(b: int, width: int) -> int:
    """Shift count the hardware sees: low log2(width) bits of ``b``."""
    if width & (width - 1) == 0:
        return b & (width - 1)
    return b % width


@cache
def _alu_table(width: int) -> dict[str, Operation]:
    m = mask(width)
    return {
        "add": lambda a, b: ((a & m) + (b & m)) & m,
        "sub": lambda a, b: ((a & m) - (b & m)) & m,
        "and": lambda a, b: a & b & m,
        "or": lambda a, b: (a | b) & m,
        "xor": lambda a, b: (a ^ b) & m,
        "shl": lambda a, b: ((a & m) << shift_amount(b & m, width)) & m,
        "shr": lambda a, b: (a & m) >> shift_amount(b & m, width),
        "sra": lambda a, b: to_unsigned(
            to_signed(a, width) >> shift_amount(b & m, width), width
        ),
    }


@cache
def _cmp_table(width: int) -> dict[str, Operation]:
    m = mask(width)
    return {
        "eq": lambda a, b: int((a & m) == (b & m)),
        "ne": lambda a, b: int((a & m) != (b & m)),
        "ltu": lambda a, b: int((a & m) < (b & m)),
        "geu": lambda a, b: int((a & m) >= (b & m)),
        "lts": lambda a, b: int(to_signed(a, width) < to_signed(b, width)),
        "ges": lambda a, b: int(to_signed(a, width) >= to_signed(b, width)),
    }


@cache
def _lsu_extend_table(width: int) -> dict[str, Callable[[int], int]]:
    m = mask(width)
    half = width // 2
    low = mask(half)
    return {
        "word": lambda data: data & m,
        "low_signed": lambda data: sign_extend(data & m & low, half, width),
        "low_unsigned": lambda data: data & m & low,
        "high": lambda data: (data & m) >> half,
    }


def alu_function(op: str, width: int) -> Operation:
    """The ALU's ``op`` at ``width`` bits: ``f(a, b)`` -> result word."""
    try:
        return _alu_table(width)[op]
    except KeyError:
        raise ValueError(f"unknown ALU op: {op}") from None


def cmp_function(op: str, width: int) -> Operation:
    """The comparator's ``op`` at ``width`` bits: ``f(a, b)`` -> 0 or 1."""
    try:
        return _cmp_table(width)[op]
    except KeyError:
        raise ValueError(f"unknown CMP op: {op}") from None


@cache
def mul_function(width: int) -> Operation:
    """The multiplier at ``width`` bits: low ``width`` bits of a * b."""
    m = mask(width)
    return lambda a, b: ((a & m) * (b & m)) & m


def lsu_extend_function(mode: str, width: int) -> Callable[[int], int]:
    """The LSU read-path extension ``mode`` at ``width`` bits."""
    try:
        return _lsu_extend_table(width)[mode]
    except KeyError:
        raise ValueError(f"unknown LSU mode: {mode}") from None


def alu_reference(op: str, a: int, b: int, width: int) -> int:
    """Golden ALU: returns the ``width``-bit result of ``op`` on a, b."""
    return alu_function(op, width)(a, b)


def cmp_reference(op: str, a: int, b: int, width: int) -> int:
    """Golden comparator: returns 0 or 1."""
    return cmp_function(op, width)(a, b)


def lsu_extend_reference(mode: str, data: int, width: int) -> int:
    """Golden LSU read-path extension unit (byte/halfword handling)."""
    return lsu_extend_function(mode, width)(data)


def mul_reference(a: int, b: int, width: int) -> int:
    """Golden multiplier: low ``width`` bits of the product."""
    return mul_function(width)(a, b)


def shifter_reference(op: str, a: int, b: int, width: int) -> int:
    """Golden stand-alone shifter (same semantics as the ALU shift group)."""
    if op not in SHIFTER_OPS:
        raise ValueError(f"unknown shifter op: {op}")
    return alu_reference(op, a, b, width)
