"""Binary move encoding: instruction formats and program memory size.

A TTA instruction is one move slot per bus; each slot carries a guard
field, a source field (socket address + register index, or a short
immediate) and a destination field (socket address + register index +
opcode).  Long immediates borrow the extension field.  This module
derives the field widths from a concrete architecture, packs programs
into binary words, and decodes them back — which pins the format down
and gives the explorer an instruction-memory size figure.

The encoding follows the MOVE framework's layout in spirit: socket
addresses are small dense ids, short immediates ride in the source
field, and the instruction width is ``num_buses * slot_width`` plus one
long-immediate extension field.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.components.spec import ComponentKind
from repro.tta.arch import Architecture
from repro.tta.isa import (
    GUARD_UNIT,
    Guard,
    Instruction,
    Literal,
    Move,
    PortRef,
    Program,
    SHORT_IMM_BITS,
)


class EncodingError(Exception):
    """Move not representable in this architecture's format."""


def _bits_for(count: int) -> int:
    """Bits to address ``count`` distinct values (>= 1)."""
    return max(1, (max(count, 1) - 1).bit_length() or 1)


def _fit(field: str, value: int, bits: int) -> int:
    """``value`` if it fits an unsigned ``bits``-bit field, else raise.

    Unchecked, a too-large index spills into the next field and a
    negative one makes the whole instruction word negative.
    """
    if not 0 <= value < 1 << bits:
        raise EncodingError(
            f"{field} {value} does not fit its {bits}-bit field"
        )
    return value


@dataclass(frozen=True)
class InstructionFormat:
    """Field widths derived from one architecture."""

    num_buses: int
    guard_bits: int        # 1 valid + 1 polarity + index
    src_addr_bits: int     # 1 imm flag + max(socket id, short imm)
    src_index_bits: int    # RF register index on the source side
    dst_addr_bits: int
    dst_index_bits: int
    opcode_bits: int
    imm_ext_bits: int      # shared long-immediate extension field

    @property
    def slot_bits(self) -> int:
        return (
            self.guard_bits
            + self.src_addr_bits
            + self.src_index_bits
            + self.dst_addr_bits
            + self.dst_index_bits
            + self.opcode_bits
        )

    @property
    def instruction_bits(self) -> int:
        """Total instruction word width (the 'very long' in VLIW)."""
        return self.num_buses * self.slot_bits + self.imm_ext_bits


class MoveEncoder:
    """Binary encoder/decoder bound to one architecture."""

    def __init__(self, arch: Architecture):
        self.arch = arch
        self._sources: list[tuple[str, str]] = []
        self._destinations: list[tuple[str, str]] = []
        for unit in arch.units.values():
            for port in unit.spec.ports:
                key = (unit.name, port.name)
                if port.is_input:
                    self._destinations.append(key)
                else:
                    self._sources.append(key)
        for g in range(arch.num_guard_regs):
            self._sources.append((GUARD_UNIT, f"g{g}"))
            self._destinations.append((GUARD_UNIT, f"g{g}"))
        self._src_id = {key: i for i, key in enumerate(self._sources)}
        # Destination ids are 1-based so an all-zero slot means "empty".
        self._dst_id = {key: i + 1 for i, key in enumerate(self._destinations)}

        opcodes: set[str] = set()
        max_regs = 1
        for unit in arch.units.values():
            opcodes.update(unit.spec.ops)
            if unit.spec.kind is ComponentKind.RF:
                max_regs = max(max_regs, unit.spec.num_regs)
        opcodes.update(("ld", "ld_ls", "ld_lu", "ld_h", "st", "jump"))
        self._opcodes = sorted(opcodes)
        self._opcode_id = {op: i + 1 for i, op in enumerate(self._opcodes)}

        self.format = InstructionFormat(
            num_buses=arch.num_buses,
            guard_bits=2 + _bits_for(arch.num_guard_regs),
            src_addr_bits=1
            + max(_bits_for(len(self._sources)), SHORT_IMM_BITS),
            src_index_bits=_bits_for(max_regs),
            dst_addr_bits=_bits_for(len(self._destinations) + 1),
            dst_index_bits=_bits_for(max_regs),
            opcode_bits=_bits_for(len(self._opcodes) + 1),
            imm_ext_bits=arch.width,
        )

    # -- read-only views for downstream consumers (RTL elaboration) ----
    @property
    def sources(self) -> tuple[tuple[str, str], ...]:
        """All (unit, port) source keys in source-id order."""
        return tuple(self._sources)

    @property
    def destinations(self) -> tuple[tuple[str, str], ...]:
        """All (unit, port) destination keys, id ``i + 1`` for entry i."""
        return tuple(self._destinations)

    @property
    def opcodes(self) -> tuple[str, ...]:
        """All opcode mnemonics, id ``i + 1`` for entry i."""
        return tuple(self._opcodes)

    def source_id(self, unit: str, port: str) -> int:
        """0-based socket address of an output port (or guard reg)."""
        return self._src_id[(unit, port)]

    def destination_id(self, unit: str, port: str) -> int:
        """1-based socket address of an input port (0 = empty slot)."""
        return self._dst_id[(unit, port)]

    def opcode_id(self, op: str) -> int:
        """1-based encoded opcode id (0 = no opcode)."""
        return self._opcode_id[op]

    # ------------------------------------------------------------------
    def encode_move(self, move: Move) -> tuple[int, int | None]:
        """Pack one move into its slot value; returns (slot, long_imm).

        Raises :class:`EncodingError` for a port, unit or opcode the
        format lacks, and for a register or guard index that is negative
        or does not fit its field.
        """
        fmt = self.format
        value = 0

        # guard field
        if move.guard is not None:
            index = _fit("guard index", move.guard.index, fmt.guard_bits - 2)
            g = 1 | (move.guard.invert << 1) | (index << 2)
        else:
            g = 0
        value |= g

        # source field
        shift = fmt.guard_bits
        long_imm: int | None = None
        if isinstance(move.src, Literal):
            imm = move.src.value
            if move.needs_long_immediate():
                long_imm = imm & ((1 << fmt.imm_ext_bits) - 1)
                # data travels in the extension field; the all-ones source
                # index below marks this slot as the extension's consumer
                src_field = 1
            else:
                payload = imm & ((1 << SHORT_IMM_BITS) - 1)
                src_field = 1 | (payload << 1)
        else:
            key = (move.src.unit, move.src.port)
            if key not in self._src_id:
                raise EncodingError(f"unknown source {move.src}")
            src_field = self._src_id[key] << 1
        value |= (src_field & ((1 << fmt.src_addr_bits) - 1)) << shift

        # source register index / long-imm marker
        shift += fmt.src_addr_bits
        src_index = _fit("src_reg", move.src_reg or 0, fmt.src_index_bits)
        if long_imm is not None:
            src_index = (1 << fmt.src_index_bits) - 1
        value |= src_index << shift

        # destination
        shift += fmt.src_index_bits
        key = (move.dst.unit, move.dst.port)
        if key not in self._dst_id:
            raise EncodingError(f"unknown destination {move.dst}")
        value |= self._dst_id[key] << shift

        shift += fmt.dst_addr_bits
        dst_index = _fit("dst_reg", move.dst_reg or 0, fmt.dst_index_bits)
        value |= dst_index << shift

        shift += fmt.dst_index_bits
        if move.opcode is not None:
            if move.opcode not in self._opcode_id:
                raise EncodingError(f"unknown opcode {move.opcode!r}")
            value |= self._opcode_id[move.opcode] << shift
        return value, long_imm

    def decode_move(self, slot: int, long_imm: int) -> Move | None:
        """Inverse of :meth:`encode_move` (None for an empty slot)."""
        fmt = self.format
        if slot == 0:
            return None
        g = slot & ((1 << fmt.guard_bits) - 1)
        guard = None
        if g & 1:
            guard = Guard(index=g >> 2, invert=bool((g >> 1) & 1))

        shift = fmt.guard_bits
        src_field = (slot >> shift) & ((1 << fmt.src_addr_bits) - 1)
        shift += fmt.src_addr_bits
        src_index = (slot >> shift) & ((1 << fmt.src_index_bits) - 1)
        shift += fmt.src_index_bits
        dst_id = (slot >> shift) & ((1 << fmt.dst_addr_bits) - 1)
        shift += fmt.dst_addr_bits
        dst_index = (slot >> shift) & ((1 << fmt.dst_index_bits) - 1)
        shift += fmt.dst_index_bits
        opcode_id = (slot >> shift) & ((1 << fmt.opcode_bits) - 1)

        src: PortRef | Literal
        src_reg = None
        if src_field & 1:
            if src_index == (1 << fmt.src_index_bits) - 1:
                # long immediate: sign-extend from the extension field
                raw = long_imm
                if raw >> (fmt.imm_ext_bits - 1):
                    raw -= 1 << fmt.imm_ext_bits
                src = Literal(raw)
            else:
                raw = (src_field >> 1) & ((1 << SHORT_IMM_BITS) - 1)
                if raw >> (SHORT_IMM_BITS - 1):
                    raw -= 1 << SHORT_IMM_BITS
                src = Literal(raw)
        else:
            unit, port = self._sources[src_field >> 1]
            src = PortRef(unit, port)
            if self.arch.units.get(unit) is not None:
                if self.arch.unit(unit).spec.kind is ComponentKind.RF:
                    src_reg = src_index

        unit, port = self._destinations[dst_id - 1]
        dst = PortRef(unit, port)
        dst_reg = None
        if unit in self.arch.units:
            if self.arch.unit(unit).spec.kind is ComponentKind.RF:
                dst_reg = dst_index
        opcode = None
        if opcode_id:
            opcode = self._opcodes[opcode_id - 1]
        return Move(
            src=src, dst=dst, opcode=opcode,
            src_reg=src_reg, dst_reg=dst_reg, guard=guard,
        )

    # ------------------------------------------------------------------
    def encode_instruction(self, instruction: Instruction) -> int:
        fmt = self.format
        word = 0
        long_imm_value = 0
        for bus, move in enumerate(instruction.slots):
            if move is None:
                continue
            slot, long_imm = self.encode_move(move)
            if long_imm is not None:
                long_imm_value = long_imm
            word |= slot << (bus * fmt.slot_bits)
        word |= long_imm_value << (fmt.num_buses * fmt.slot_bits)
        return word

    def decode_instruction(self, word: int) -> Instruction:
        fmt = self.format
        long_imm = word >> (fmt.num_buses * fmt.slot_bits)
        slots = []
        for bus in range(fmt.num_buses):
            slot = (word >> (bus * fmt.slot_bits)) & ((1 << fmt.slot_bits) - 1)
            slots.append(self.decode_move(slot, long_imm))
        return Instruction(slots=slots)

    def encode_program(self, program: Program) -> list[int]:
        return [self.encode_instruction(i) for i in program.instructions]

    def program_memory_bits(self, program: Program) -> int:
        """Instruction-memory footprint of a scheduled program."""
        return len(program.instructions) * self.format.instruction_bits
