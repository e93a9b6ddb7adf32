"""64-way bit-parallel stuck-at fault simulation (PPSFP).

The good circuit is simulated once per word of up to 64 packed patterns;
each still-active fault is then re-simulated only through its fanout cone
(:func:`~repro.atpg.faults.fault_cone`) with a sparse value overlay.
Detected faults are dropped by the caller.
"""

from __future__ import annotations

from repro.atpg.faults import Fault, fault_cone
from repro.netlist.cells import evaluate_cell
from repro.netlist.netlist import Netlist

#: Patterns packed per simulation word.
WORD = 64


def pack_patterns(netlist: Netlist, patterns: list[int]) -> dict[int, int]:
    """Pack per-pattern PI words into per-PI pattern vectors.

    ``patterns[k]`` holds pattern *k* as an integer whose bit *i* is the
    value of ``netlist.inputs[i]``.  The result maps PI net id -> vector
    whose bit *k* is that PI's value under pattern *k*.
    """
    vectors: dict[int, int] = {pi: 0 for pi in netlist.inputs}
    for k, pattern in enumerate(patterns):
        for i, pi in enumerate(netlist.inputs):
            if (pattern >> i) & 1:
                vectors[pi] |= 1 << k
    return vectors


class FaultSimulator:
    """Reusable fault-simulation context for one netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._cone_cache: dict[tuple[int, int | None], tuple[int, ...]] = {}
        self._po_set = set(netlist.outputs)

    # ------------------------------------------------------------------
    def _cone(self, fault: Fault) -> tuple[int, ...]:
        """:func:`fault_cone`, memoized per fault site."""
        key = (fault.net, fault.gate)
        cone = self._cone_cache.get(key)
        if cone is None:
            cone = self._cone_cache[key] = fault_cone(self.netlist, fault)
        return cone

    # ------------------------------------------------------------------
    def simulate_word(
        self,
        patterns: list[int],
        faults: list[Fault],
    ) -> dict[Fault, int]:
        """Fault-simulate up to :data:`WORD` patterns against ``faults``.

        Returns a map fault -> detection mask (bit *k* set when pattern
        *k* propagates the fault to at least one primary output).
        """
        if len(patterns) > WORD:
            raise ValueError(f"at most {WORD} patterns per word")
        num = len(patterns)
        all_ones = (1 << num) - 1
        pi_vectors = pack_patterns(self.netlist, patterns)
        good = self.netlist.evaluate(pi_vectors, num)

        gates = self.netlist.gates
        nets = self.netlist.nets
        detections: dict[Fault, int] = {}

        for fault in faults:
            stuck_vec = all_ones if fault.stuck_at else 0
            overlay: dict[int, int] = {}

            if not fault.is_branch:
                # Activation requires the good value to differ somewhere.
                if good[fault.net] == stuck_vec:
                    detections[fault] = 0
                    continue
                overlay[fault.net] = stuck_vec

            detect = 0
            for gid in self._cone(fault):
                gate = gates[gid]
                ins = [overlay.get(n, good[n]) for n in gate.inputs]
                if fault.is_branch and gid == fault.gate:
                    ins[fault.pin] = stuck_vec
                value = evaluate_cell(gate.cell_type, ins, all_ones)
                if value == good[gate.output]:
                    # Converged back to good value: only record if the net
                    # was previously diverged, to keep the overlay small.
                    if gate.output in overlay:
                        overlay[gate.output] = value
                    continue
                overlay[gate.output] = value
                if gate.output in self._po_set:
                    detect |= value ^ good[gate.output]
            if not fault.is_branch and fault.net in self._po_set:
                detect |= overlay[fault.net] ^ good[fault.net]
            detections[fault] = detect & all_ones
        return detections
