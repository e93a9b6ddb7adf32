"""Transport-triggered architecture core.

The TTA template of Fig. 1: functional units and register files hang off
an interconnection network of move buses through input/output sockets;
the only operation is the *move*, and writing a unit's trigger register
starts its operation (hybrid pipelining, Fig. 3).

* :mod:`repro.tta.arch` — the architecture template (units, buses,
  port->bus connectivity);
* :mod:`repro.tta.isa` — moves, guards, instructions, programs;
* :mod:`repro.tta.timing` — the transport timing relations (eqs. 2-8)
  as a program validator;
* :mod:`repro.tta.simulator` — a cycle-accurate simulator that decodes
  its program once and runs the decoded moves;
* :mod:`repro.tta.assembler` — a small textual move-assembly format.
"""

from repro.tta.activity import ActivityTrace, hamming
from repro.tta.arch import Architecture, ArchitectureError, UnitInstance
from repro.tta.isa import (
    GUARD_UNIT,
    Guard,
    Instruction,
    Literal,
    Move,
    PortRef,
    Program,
)
from repro.tta.timing import TimingViolation, validate_program
from repro.tta.simulator import SimResult, TTASimulator
from repro.tta.assembler import assemble, AssemblerError
from repro.tta.encoding import InstructionFormat, MoveEncoder

__all__ = [
    "ActivityTrace",
    "Architecture",
    "ArchitectureError",
    "AssemblerError",
    "hamming",
    "GUARD_UNIT",
    "Guard",
    "Instruction",
    "InstructionFormat",
    "Literal",
    "Move",
    "MoveEncoder",
    "PortRef",
    "Program",
    "SimResult",
    "TTASimulator",
    "TimingViolation",
    "UnitInstance",
    "assemble",
    "validate_program",
]
