"""Three-address IR with basic blocks.

Deliberately small: word-sized virtual registers, explicit memory ops,
compare ops producing 0/1, and three terminators (jump, conditional
branch, halt).  The Crypt kernel and the other workloads are authored
against :class:`IRBuilder`; the interpreter executes the IR directly and
the scheduler lowers it to move programs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Arithmetic/logic opcodes (map 1:1 onto FU ops).
ALU_OPCODES = {"add", "sub", "and", "or", "xor", "shl", "shr", "sra"}
MUL_OPCODES = {"mul"}
CMP_OPCODES = {"eq", "ne", "ltu", "geu", "lts", "ges"}
LOAD_OPCODES = {"ld", "ld_ls", "ld_lu", "ld_h"}
STORE_OPCODES = {"st"}
MISC_OPCODES = {"li", "mov"}
ALL_OPCODES = (
    ALU_OPCODES | MUL_OPCODES | CMP_OPCODES | LOAD_OPCODES | STORE_OPCODES
    | MISC_OPCODES
)

#: An operand is a virtual-register name or an int literal.
Operand = "str | int"


class IRError(Exception):
    """Malformed IR."""


@dataclass
class Op:
    """One three-address operation.

    * ALU/MUL/CMP: ``dst = opcode(a, b)``
    * ``li``: ``dst = a`` (literal)        * ``mov``: ``dst = a`` (vreg)
    * loads: ``dst = mem[a]``              * ``st``: ``mem[a] = b``
    """

    opcode: str
    dst: str | None
    a: str | int | None = None
    b: str | int | None = None

    def __post_init__(self) -> None:
        if self.opcode not in ALL_OPCODES:
            raise IRError(f"unknown IR opcode {self.opcode!r}")
        if self.opcode in STORE_OPCODES:
            if self.dst is not None:
                raise IRError("store has no destination register")
        elif self.dst is None:
            raise IRError(f"{self.opcode} needs a destination")

    def sources(self) -> list[str]:
        """Virtual registers read by this op."""
        out = []
        for operand in (self.a, self.b):
            if isinstance(operand, str):
                out.append(operand)
        return out

    def __str__(self) -> str:
        if self.opcode in STORE_OPCODES:
            return f"mem[{self.a}] = {self.b}"
        if self.opcode in LOAD_OPCODES:
            return f"{self.dst} = {self.opcode} mem[{self.a}]"
        if self.opcode == "li":
            return f"{self.dst} = #{self.a}"
        if self.opcode == "mov":
            return f"{self.dst} = {self.a}"
        return f"{self.dst} = {self.opcode}({self.a}, {self.b})"


@dataclass(frozen=True)
class Jump:
    target: str

    def __str__(self) -> str:
        return f"jump {self.target}"


@dataclass(frozen=True)
class Branch:
    """Branch on a boolean vreg: taken -> ``if_true`` else ``if_false``."""

    cond: str
    if_true: str
    if_false: str
    invert: bool = False

    def __str__(self) -> str:
        c = f"!{self.cond}" if self.invert else self.cond
        return f"branch {c} ? {self.if_true} : {self.if_false}"


@dataclass(frozen=True)
class Halt:
    def __str__(self) -> str:
        return "halt"


Terminator = Jump | Branch | Halt


@dataclass
class Block:
    name: str
    ops: list[Op] = field(default_factory=list)
    terminator: Terminator | None = None

    def successors(self) -> list[str]:
        if isinstance(self.terminator, Jump):
            return [self.terminator.target]
        if isinstance(self.terminator, Branch):
            return [self.terminator.if_true, self.terminator.if_false]
        return []


@dataclass
class IRFunction:
    """A whole compilable unit: blocks, entry point, initial data image."""

    name: str
    blocks: dict[str, Block] = field(default_factory=dict)
    entry: str = "entry"
    data: dict[int, int] = field(default_factory=dict)

    def block_order(self) -> list[Block]:
        """Blocks in insertion order (dicts preserve it)."""
        return list(self.blocks.values())

    def validate(self) -> None:
        if self.entry not in self.blocks:
            raise IRError(f"entry block {self.entry!r} missing")
        for block in self.blocks.values():
            if block.terminator is None:
                raise IRError(f"block {block.name!r} lacks a terminator")
            for successor in block.successors():
                if successor not in self.blocks:
                    raise IRError(
                        f"block {block.name!r} targets missing {successor!r}"
                    )

    def listing(self) -> str:
        lines = [f"; ir function {self.name}"]
        for block in self.block_order():
            lines.append(f"{block.name}:")
            for op in block.ops:
                lines.append(f"    {op}")
            lines.append(f"    {block.terminator}")
        return "\n".join(lines)


class IRBuilder:
    """Convenience construction API.

    Example::

        b = IRBuilder("demo")
        b.block("entry")
        x = b.li(5)
        y = b.add(x, 7)
        b.halt()
        fn = b.finish()
    """

    def __init__(self, name: str):
        self._fn = IRFunction(name)
        self._current: Block | None = None
        self._counter = 0

    # -- structure ------------------------------------------------------
    def block(self, name: str) -> str:
        if name in self._fn.blocks:
            raise IRError(f"duplicate block {name!r}")
        blk = Block(name)
        self._fn.blocks[name] = blk
        if len(self._fn.blocks) == 1:
            self._fn.entry = name
        self._current = blk
        return name

    def data_word(self, addr: int, value: int) -> None:
        self._fn.data[addr] = value

    def data_table(self, addr: int, values: list[int]) -> int:
        for offset, value in enumerate(values):
            self._fn.data[addr + offset] = value
        return addr

    def finish(self) -> IRFunction:
        self._fn.validate()
        return self._fn

    # -- op emission ------------------------------------------------------
    def fresh(self, stem: str = "t") -> str:
        self._counter += 1
        return f"%{stem}{self._counter}"

    def _emit(self, op: Op) -> str | None:
        if self._current is None:
            raise IRError("no current block")
        if self._current.terminator is not None:
            raise IRError(f"block {self._current.name!r} already terminated")
        self._current.ops.append(op)
        return op.dst

    def _binary(self, opcode: str, a, b, dst: str | None = None) -> str:
        dst = dst or self.fresh()
        self._emit(Op(opcode, dst, a, b))
        return dst

    def li(self, value: int, dst: str | None = None) -> str:
        dst = dst or self.fresh("c")
        self._emit(Op("li", dst, value))
        return dst

    def mov(self, a: str, dst: str | None = None) -> str:
        dst = dst or self.fresh()
        self._emit(Op("mov", dst, a))
        return dst

    def add(self, a, b, dst=None) -> str: return self._binary("add", a, b, dst)
    def sub(self, a, b, dst=None) -> str: return self._binary("sub", a, b, dst)
    def and_(self, a, b, dst=None) -> str: return self._binary("and", a, b, dst)
    def or_(self, a, b, dst=None) -> str: return self._binary("or", a, b, dst)
    def xor(self, a, b, dst=None) -> str: return self._binary("xor", a, b, dst)
    def shl(self, a, b, dst=None) -> str: return self._binary("shl", a, b, dst)
    def shr(self, a, b, dst=None) -> str: return self._binary("shr", a, b, dst)
    def sra(self, a, b, dst=None) -> str: return self._binary("sra", a, b, dst)
    def mul(self, a, b, dst=None) -> str: return self._binary("mul", a, b, dst)

    def eq(self, a, b, dst=None) -> str: return self._binary("eq", a, b, dst)
    def ne(self, a, b, dst=None) -> str: return self._binary("ne", a, b, dst)
    def ltu(self, a, b, dst=None) -> str: return self._binary("ltu", a, b, dst)
    def geu(self, a, b, dst=None) -> str: return self._binary("geu", a, b, dst)
    def lts(self, a, b, dst=None) -> str: return self._binary("lts", a, b, dst)
    def ges(self, a, b, dst=None) -> str: return self._binary("ges", a, b, dst)

    def load(self, addr, mode: str = "ld", dst=None) -> str:
        dst = dst or self.fresh("m")
        self._emit(Op(mode, dst, addr))
        return dst

    def store(self, addr, value) -> None:
        self._emit(Op("st", None, addr, value))

    # -- terminators ------------------------------------------------------
    def _terminate(self, terminator: Terminator) -> None:
        if self._current is None:
            raise IRError("no current block")
        if self._current.terminator is not None:
            raise IRError(f"block {self._current.name!r} already terminated")
        self._current.terminator = terminator

    def jump(self, target: str) -> None:
        self._terminate(Jump(target))

    def branch(self, cond: str, if_true: str, if_false: str, invert=False) -> None:
        self._terminate(Branch(cond, if_true, if_false, invert))

    def halt(self) -> None:
        self._terminate(Halt())
