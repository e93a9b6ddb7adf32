"""Switching-activity accounting for the cycle-accurate simulator.

The defining property of a TTA is that *every* data transport is
software-visible, which makes dynamic energy directly observable from a
simulation: each bus, socket, port and register toggles exactly when a
move drives a new value across it.  :class:`ActivityTrace` is the
per-run event ledger the simulator fills when tracing is enabled —
Hamming-distance toggle counts per resource plus event counts — and the
:mod:`repro.energy` model turns into energy via per-event weights
derived from the gate-level view.

Event taxonomy (what is counted, and against what previous value):

* **bus toggles** — bits flipped on a move bus between consecutive
  transports it carries (a bus holds its last driven value);
* **port toggles** — bits flipped in a unit input register (operand or
  trigger) on commit, and in an FU/LSU result register when a finished
  operation lands;
* **RF read/write toggles** — bits flipped on a register file's read
  path between consecutive reads, and in the addressed storage cell on
  a write;
* **fetch toggles** — bits flipped between consecutive instruction
  words on the instruction-memory read path (the encoded binary words
  of :class:`repro.tta.encoding.MoveEncoder`);
* **event counts** — transports per bus and per socket, triggers per
  unit (FU/LSU/PC), reads/writes per RF, fetched words, guard-bit
  flips.

All counters are exact integers; the trace is purely observational and
never alters simulation semantics.  The simulator does not fill the
trace event by event.  While it runs it counts only what values decide —
the toggles, into lists indexed by resource — plus how often each
instruction and each guarded move ran.  The event counts follow from the
schedule: when a run returns, each move's static transports, accesses
and activations are multiplied by its execution count, and every dict
is rebuilt in first-touch order (see :mod:`repro.tta.simulator`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.bitops import popcount


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two non-negative words."""
    return popcount(a ^ b)


@dataclass
class ActivityTrace:
    """Per-run switching-activity ledger (filled by the simulator).

    Every dict is in *first-touch* order: a key appears when the run
    first records an event for it (a toggle count of 0 included), and
    keys follow the order of those first events.  The order is part of
    the result: :func:`repro.energy.report.breakdown_from_trace` sums
    floating-point energies in dict order, so a different order could
    change the last bits of an energy.
    """

    width: int
    cycles: int = 0

    # bus index -> counters
    bus_toggles: dict[int, int] = field(default_factory=dict)
    bus_transports: dict[int, int] = field(default_factory=dict)

    # (unit, port) -> counters
    port_toggles: dict[tuple[str, str], int] = field(default_factory=dict)
    socket_transports: dict[tuple[str, str], int] = field(
        default_factory=dict
    )

    # unit name -> counters
    fu_activations: dict[str, int] = field(default_factory=dict)
    rf_reads: dict[str, int] = field(default_factory=dict)
    rf_writes: dict[str, int] = field(default_factory=dict)
    rf_read_toggles: dict[str, int] = field(default_factory=dict)
    rf_write_toggles: dict[str, int] = field(default_factory=dict)

    guard_toggles: int = 0
    fetch_words: int = 0
    fetch_toggles: int = 0

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def total_transports(self) -> int:
        return sum(self.bus_transports.values())
