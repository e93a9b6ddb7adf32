"""64-way bit-parallel stuck-at fault simulation (PPSFP).

Each gate's bit-parallel function is compiled once per netlist, straight
from the cell library's :data:`~repro.netlist.cells.GATE_LOGIC` table,
all gates in one ``compile`` call.  The good circuit is simulated once
per word of up to 64 packed patterns; each fault then runs on a full
copy of the good values (no sparse overlay), re-evaluated only over its
fanout cone (:func:`~repro.atpg.faults.fault_cone`), and is detected
where the copy's primary outputs differ from the good ones.  Detected
faults are dropped by the caller.
"""

from __future__ import annotations

from typing import Callable

from repro.atpg.faults import Fault, fault_cone
from repro.netlist.cells import GATE_LOGIC, CellType, evaluate_cell
from repro.netlist.netlist import Netlist

#: Patterns packed per simulation word.
WORD = 64

#: Python operator that folds a gate's inputs, by controlling value.
_FOLD = {None: " ^ ", 0: " & ", 1: " | "}


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


def _compile_gates(netlist: Netlist) -> list[Callable[[list[int], int], int]]:
    """One bit-parallel evaluator per gate id, ``g(values, all_ones)``.

    Each evaluator computes what :func:`evaluate_cell` computes for its
    gate, with the input nets and the fold written out.  The evaluators
    read no globals, so they share an empty namespace: nothing refers
    back to them, and they are freed with their simulator.
    """
    bodies = []
    for gate in netlist.gates:
        if gate.cell_type is CellType.CONST0:
            body = "0"
        elif gate.cell_type is CellType.CONST1:
            body = "m"
        else:
            controlling, inversion = GATE_LOGIC[gate.cell_type]
            body = _FOLD[controlling].join(f"v[{src}]" for src in gate.inputs)
            if inversion:
                body = f"({body}) ^ m"
        bodies.append(f"lambda v, m: {body}")
    source = f"[{', '.join(bodies)}]"
    return eval(compile(source, "<fault simulation>", "eval"), {})


class FaultSimulator:
    """Reusable fault-simulation context for one netlist."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self._po_set = set(netlist.outputs)
        #: (output net, compiled evaluator) per gate id.
        self._steps = [
            (gate.output, evaluate)
            for gate, evaluate in zip(netlist.gates, _compile_gates(netlist))
        ]
        self._good_steps = [self._steps[gid] for gid in netlist.topological_order()]
        self._site_cache: dict[
            tuple[int, int | None], tuple[list[tuple], tuple[int, ...]]
        ] = {}

    # ------------------------------------------------------------------
    def _site(self, fault: Fault) -> tuple[list[tuple], tuple[int, ...]]:
        """The fault's cone as steps, and the POs the fault can reach.

        Memoized per fault site.  A branch fault's own gate is left out of
        the steps (every other cone gate lies downstream of it):
        :meth:`simulate_word` evaluates it first, with the pin forced.
        """
        key = (fault.net, fault.gate)
        site = self._site_cache.get(key)
        if site is None:
            cone = fault_cone(self.netlist, fault)
            steps = [self._steps[gid] for gid in cone if gid != fault.gate]
            reached = [self._steps[gid][0] for gid in cone]
            if not fault.is_branch:
                reached.append(fault.net)
            observed = tuple(net for net in reached if net in self._po_set)
            site = self._site_cache[key] = (steps, observed)
        return site

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
        all_ones = (1 << len(patterns)) - 1
        good = [0] * self.netlist.num_nets
        for pi, vector in pack_patterns(self.netlist, patterns).items():
            good[pi] = vector
        for out, evaluate in self._good_steps:
            good[out] = evaluate(good, all_ones)

        gates = self.netlist.gates
        detections: dict[Fault, int] = {}
        for fault in faults:
            stuck_vec = all_ones if fault.stuck_at else 0
            if not fault.is_branch and good[fault.net] == stuck_vec:
                # Activation requires the good value to differ somewhere.
                detections[fault] = 0
                continue
            steps, observed = self._site(fault)
            values = list(good)
            if fault.is_branch:
                gate = gates[fault.gate]
                ins = [values[n] for n in gate.inputs]
                ins[fault.pin] = stuck_vec
                values[gate.output] = evaluate_cell(gate.cell_type, ins, all_ones)
            else:
                values[fault.net] = stuck_vec
            for out, evaluate in steps:
                values[out] = evaluate(values, all_ones)
            detect = 0
            for po in observed:
                detect |= values[po] ^ good[po]
            detections[fault] = detect
        return detections
