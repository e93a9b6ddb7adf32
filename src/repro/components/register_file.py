"""Register files: behavioural multi-port memory and flip-flop netlist.

The paper's cost model assumes register files are implemented as
*multi-ported memories* tested with marching patterns [14, 15]; the
flip-flop implementation only exists as the strawman that full scan would
require ("RF1 and RF2 could not have been tested with full scan, unless
implemented as a set of flip-flops").  Both are provided:

* :class:`MultiPortMemory` — the behavioural model used by the TTA
  simulator and by the march-test engine in :mod:`repro.memtest`.
* :func:`build_ff_register_file` — a gate-level flip-flop implementation
  (combinational core with present-state pseudo-inputs / next-state
  pseudo-outputs) used only for the full-scan comparison in Table 1.
"""

from __future__ import annotations

from repro.netlist.builder import WordBuilder
from repro.netlist.netlist import Netlist
from repro.util.bitops import mask


class MultiPortMemory:
    """Behavioural ``num_words`` x ``width`` memory with port bookkeeping.

    Reads and writes are issued per cycle; the model enforces the port
    limits and applies a fixed write-before-read ordering inside a cycle
    (the TTA's RF semantics: a value written in cycle *k* is readable in
    cycle *k*; simultaneous write+read of the same word returns the new
    value, as in a write-through register file).
    """

    def __init__(
        self,
        num_words: int,
        width: int,
        read_ports: int = 1,
        write_ports: int = 1,
    ):
        if num_words < 1:
            raise ValueError("memory needs at least one word")
        if read_ports < 1 or write_ports < 1:
            raise ValueError("memory needs at least one port per direction")
        self.num_words = num_words
        self.width = width
        self.read_ports = read_ports
        self.write_ports = write_ports
        self._data = [0] * num_words
        self._reads_this_cycle = 0
        self._writes_this_cycle = 0

    def _check_addr(self, addr: int) -> None:
        if not 0 <= addr < self.num_words:
            raise IndexError(f"address {addr} outside [0, {self.num_words})")

    def new_cycle(self) -> None:
        """Reset the per-cycle port usage counters."""
        self._reads_this_cycle = 0
        self._writes_this_cycle = 0

    def read(self, addr: int) -> int:
        """Port-checked read (counts against ``read_ports``)."""
        self._check_addr(addr)
        self._reads_this_cycle += 1
        if self._reads_this_cycle > self.read_ports:
            raise RuntimeError(
                f"read-port overflow: {self._reads_this_cycle} reads in one "
                f"cycle, only {self.read_ports} ports"
            )
        return self._data[addr]

    def write(self, addr: int, value: int) -> None:
        """Port-checked write (counts against ``write_ports``)."""
        self._check_addr(addr)
        self._writes_this_cycle += 1
        if self._writes_this_cycle > self.write_ports:
            raise RuntimeError(
                f"write-port overflow: {self._writes_this_cycle} writes in "
                f"one cycle, only {self.write_ports} ports"
            )
        self._data[addr] = value & mask(self.width)

    @property
    def words(self) -> list[int]:
        """The live word list, for a caller that has already checked the
        addresses and port counts it will use (the TTA simulator's decoded
        program); writers must store ``width``-bit values."""
        return self._data

    def peek(self, addr: int) -> int:
        """Debug read that bypasses port accounting."""
        self._check_addr(addr)
        return self._data[addr]

    def dump(self) -> list[int]:
        return list(self._data)


def build_ff_register_file(
    num_words: int = 8,
    width: int = 16,
    read_ports: int = 1,
    write_ports: int = 1,
    name: str = "rfff",
) -> Netlist:
    """Flip-flop register-file combinational core (full-scan strawman).

    PIs: per write port ``w{p}addr``, ``w{p}data``, ``w{p}en``; per read
    port ``r{p}addr``; plus pseudo-inputs ``q{r}`` (present state of each
    register).  POs: per read port ``r{p}data``; plus pseudo-outputs
    ``d{r}`` (next state).  The scan chain in the comparison covers the
    ``num_words * width`` state bits.
    """
    if num_words < 2:
        raise ValueError("register count must be >= 2")
    abits = (num_words - 1).bit_length()
    wb = WordBuilder(f"{name}{num_words}x{width}")

    waddr = [wb.input_word(f"w{p}addr", abits) for p in range(write_ports)]
    wdata = [wb.input_word(f"w{p}data", width) for p in range(write_ports)]
    wen = [wb.input_bit(f"w{p}en") for p in range(write_ports)]
    raddr = [wb.input_word(f"r{p}addr", abits) for p in range(read_ports)]
    state = [wb.input_word(f"q{r}", width) for r in range(num_words)]

    # Write path: per register, later write ports take priority.  The
    # decoder naturally covers 2**abits selects; out-of-range addresses
    # simply strobe nothing (selects beyond num_words are dropped).
    next_state = [list(s) for s in state]
    for p in range(write_ports):
        sel = wb.decoder(waddr[p])
        for r in range(num_words):
            strobe = wb.and_(sel[r], wen[p])
            next_state[r] = wb.mux2_word(strobe, next_state[r], wdata[p])

    # Read path: mux tree over the *current* state per port.
    for p in range(read_ports):
        data = wb.mux_tree(list(raddr[p]), state)
        wb.output_word(f"r{p}data", data)

    for r in range(num_words):
        wb.output_word(f"d{r}", next_state[r])
    wb.netlist.check()
    return wb.netlist
