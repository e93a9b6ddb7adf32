"""Primitive cell library.

A deliberately small, generic standard-cell library: the paper's flow only
needs *relative* area/delay numbers to rank architectures, so unit weights
loosely follow a typical CMOS library (NAND cheapest, XOR most expensive).

Cell evaluation works on *pattern vectors*: each signal value is a Python int
whose bit ``k`` holds the signal's logic value under pattern ``k``.  Because
Python ints are arbitrary precision this gives free N-way bit-parallel
simulation, which the ATPG fault simulator relies on.
"""

from __future__ import annotations

import enum


class CellType(enum.Enum):
    """Primitive combinational cell types (flip-flops live outside cores)."""

    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    CONST0 = "const0"
    CONST1 = "const1"


#: Relative cell area (NAND2-equivalents, loosely after a 0.35um library).
CELL_AREA: dict[CellType, float] = {
    CellType.BUF: 0.75,
    CellType.NOT: 0.5,
    CellType.AND: 1.25,
    CellType.OR: 1.25,
    CellType.NAND: 1.0,
    CellType.NOR: 1.0,
    CellType.XOR: 2.5,
    CellType.XNOR: 2.5,
    CellType.CONST0: 0.0,
    CellType.CONST1: 0.0,
}

#: Relative cell delay (normalised inverter delays).
CELL_DELAY: dict[CellType, float] = {
    CellType.BUF: 1.0,
    CellType.NOT: 0.5,
    CellType.AND: 1.5,
    CellType.OR: 1.5,
    CellType.NAND: 1.0,
    CellType.NOR: 1.0,
    CellType.XOR: 2.0,
    CellType.XNOR: 2.0,
    CellType.CONST0: 0.0,
    CellType.CONST1: 0.0,
}

#: Extra area per input beyond the second, for fan-in > 2 gates.
_EXTRA_INPUT_AREA = 0.5

#: Allowed fan-in range per cell type.
FAN_IN: dict[CellType, tuple[int, int]] = {
    CellType.BUF: (1, 1),
    CellType.NOT: (1, 1),
    CellType.AND: (2, 4),
    CellType.OR: (2, 4),
    CellType.NAND: (2, 4),
    CellType.NOR: (2, 4),
    CellType.XOR: (2, 2),
    CellType.XNOR: (2, 2),
    CellType.CONST0: (0, 0),
    CellType.CONST1: (0, 0),
}

#: Logic of every cell with inputs: (controlling value or ``None``, output
#: inversion).  A controlling value at any input fixes the output to
#: ``controlling ^ inversion``; a cell without one computes the parity of
#: its inputs (BUF and NOT are one-input parity), inverted when
#: ``inversion`` is 1.  This is the one statement of gate semantics:
#: bit-parallel :func:`evaluate_cell`, PODEM's three-valued ``eval3``, its
#: objective and backtrace (:mod:`repro.atpg.podem`) and structural
#: equivalence collapsing (:func:`repro.atpg.faults.collapse_faults`) all
#: read it.
GATE_LOGIC: dict[CellType, tuple[int | None, int]] = {
    CellType.BUF: (None, 0),
    CellType.NOT: (None, 1),
    CellType.AND: (0, 0),
    CellType.NAND: (0, 1),
    CellType.OR: (1, 0),
    CellType.NOR: (1, 1),
    CellType.XOR: (None, 0),
    CellType.XNOR: (None, 1),
}


def cell_area(cell_type: CellType, fan_in: int) -> float:
    """Area of one cell instance, growing mildly with fan-in."""
    base = CELL_AREA[cell_type]
    extra = max(0, fan_in - 2) * _EXTRA_INPUT_AREA
    return base + extra


def cell_delay(cell_type: CellType, fan_in: int) -> float:
    """Propagation delay of one cell instance."""
    base = CELL_DELAY[cell_type]
    extra = max(0, fan_in - 2) * 0.25
    return base + extra


def evaluate_cell(cell_type: CellType, inputs: list[int], all_ones: int) -> int:
    """Evaluate one cell on bit-parallel pattern vectors.

    ``all_ones`` is the mask covering every simulated pattern; inversion is
    XOR with that mask so unused high bits stay zero.
    """
    if cell_type is CellType.CONST0:
        return 0
    if cell_type is CellType.CONST1:
        return all_ones
    controlling, inversion = GATE_LOGIC[cell_type]
    acc = inputs[0]
    if controlling is None:
        for v in inputs[1:]:
            acc ^= v
    elif controlling:
        for v in inputs[1:]:
            acc |= v
    else:
        for v in inputs[1:]:
            acc &= v
    return acc ^ all_ones if inversion else acc
