"""Move ISA: the single operation of a TTA.

A :class:`Move` transports one word from a source (unit output port,
immediate literal) to a destination (unit input port, guard register,
program counter).  Moves may be *guarded* by a boolean guard register and
carry an opcode when the destination is a trigger port.

An :class:`Instruction` is one bus-slot vector — at most one move per bus
per cycle; long immediates consume a second slot (the MOVE framework
steals the bits of an adjacent slot for the extended immediate field).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Pseudo-unit holding the boolean guard registers.
GUARD_UNIT = "guard"

#: Short immediates ride inside the move's source field.
SHORT_IMM_BITS = 8

_SHORT_IMM_LIMIT = 1 << (SHORT_IMM_BITS - 1)


def fits_short_immediate(value: int) -> bool:
    """True when ``value`` fits the short source field (sign-extended).

    The one statement of the rule: a literal outside it is a *long*
    immediate, which takes a second bus slot (or, on a one-bus machine,
    the next instruction) for its extension word.
    """
    return -_SHORT_IMM_LIMIT <= value < _SHORT_IMM_LIMIT


@dataclass(frozen=True, slots=True)
class PortRef:
    """A unit port, e.g. ``alu0.a`` or ``rf0.r0``."""

    unit: str
    port: str

    def __str__(self) -> str:
        return f"{self.unit}.{self.port}"


@dataclass(frozen=True, slots=True)
class Literal:
    """An immediate move source."""

    value: int

    def __str__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True, slots=True)
class Guard:
    """Move predicate: guard register ``index``, optionally inverted."""

    index: int
    invert: bool = False

    def __str__(self) -> str:
        return f"(!g{self.index})" if self.invert else f"(g{self.index})"


@dataclass(frozen=True, slots=True)
class Move:
    """One data transport.

    ``opcode`` — operation launched when ``dst`` is a trigger port (or
    the LSU/PC command).  ``src_reg``/``dst_reg`` — register index when
    the source/destination port belongs to a register file.
    """

    src: PortRef | Literal
    dst: PortRef
    opcode: str | None = None
    src_reg: int | None = None
    dst_reg: int | None = None
    guard: Guard | None = None

    def is_immediate(self) -> bool:
        return isinstance(self.src, Literal)

    def needs_long_immediate(self) -> bool:
        """True when the literal does not fit the short source field."""
        src = self.src
        return isinstance(src, Literal) and not fits_short_immediate(src.value)

    def __str__(self) -> str:
        parts = []
        if self.guard is not None:
            parts.append(str(self.guard))
        src = str(self.src)
        if self.src_reg is not None:
            src += f"[{self.src_reg}]"
        dst = str(self.dst)
        if self.dst_reg is not None:
            dst += f"[{self.dst_reg}]"
        if self.opcode is not None:
            dst += f":{self.opcode}"
        parts.append(f"{src} -> {dst}")
        return " ".join(parts)


@dataclass(slots=True)
class Instruction:
    """One cycle's bus-slot vector: ``slots[b]`` is the move on bus b."""

    slots: list[Move | None]
    halt: bool = False
    label: str | None = None

    @property
    def moves(self) -> list[Move]:
        return [m for m in self.slots if m is not None]

    def bus_of(self, move: Move) -> int:
        for bus, slot in enumerate(self.slots):
            if slot is move:
                return bus
        raise ValueError("move not in instruction")

    def slots_used(self) -> int:
        """Bus slots consumed, counting long-immediate extension slots."""
        used = len(self.moves)
        used += sum(1 for m in self.moves if m.needs_long_immediate())
        return used

    def __str__(self) -> str:
        body = " ; ".join(str(m) if m else "nop" for m in self.slots)
        tag = f"{self.label}: " if self.label else ""
        return f"{tag}{body}{'  [halt]' if self.halt else ''}"


@dataclass
class Program:
    """A scheduled move program plus initial data-memory image."""

    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)
    data: dict[int, int] = field(default_factory=dict)   # dmem address -> word
    name: str = "program"

    def append(self, instruction: Instruction) -> int:
        if instruction.label:
            if instruction.label in self.labels:
                raise ValueError(f"duplicate label {instruction.label!r}")
            self.labels[instruction.label] = len(self.instructions)
        self.instructions.append(instruction)
        return len(self.instructions) - 1

    def __len__(self) -> int:
        return len(self.instructions)

    def listing(self) -> str:
        lines = [f"; program {self.name}"]
        for index, instruction in enumerate(self.instructions):
            lines.append(f"{index:5d}: {instruction}")
        return "\n".join(lines)
