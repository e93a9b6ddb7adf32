"""PODEM test generation for single stuck-at faults.

Classic PODEM (Goel 1981): decisions are made only on primary inputs,
guided by *objectives* (activate the fault, then advance the D-frontier)
that are *backtraced* through X-valued nets to a PI.  Implication is a
three-valued simulation of the good machine over the whole netlist, then
of the faulty machine over the fault's fanout cone only
(:func:`~repro.atpg.faults.fault_cone`): outside the cone the two
machines agree, and every gate with a D input lies inside it, so the
D-frontier is scanned over the cone too.  Gate semantics come from the
cell library's :data:`~repro.netlist.cells.GATE_LOGIC` table.

Outcomes: ``DETECTED`` (with a test pattern), ``UNTESTABLE`` (search space
exhausted — a redundancy proof) or ``ABORTED`` (backtrack limit hit).
Aborted faults are counted as undetected, which is what keeps component
fault coverage realistically below 100% (cf. Table 1's 99.48-99.78%).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.atpg.faults import Fault, fault_cone
from repro.netlist.cells import GATE_LOGIC, CellType
from repro.netlist.netlist import Netlist

#: Three-valued logic constants.
ZERO, ONE, X = 0, 1, 2


def eval3(cell_type: CellType, ins: list[int]) -> int:
    """Evaluate one cell in {0, 1, X} logic."""
    if cell_type is CellType.CONST0:
        return ZERO
    if cell_type is CellType.CONST1:
        return ONE
    controlling, inversion = GATE_LOGIC[cell_type]
    if controlling is None:
        if X in ins:
            return X
        out = inversion
        for v in ins:
            out ^= v
        return out
    if controlling in ins:
        return controlling ^ inversion
    if X in ins:
        return X
    return (1 - controlling) ^ inversion


class PodemOutcome(enum.Enum):
    DETECTED = "detected"
    UNTESTABLE = "untestable"
    ABORTED = "aborted"


@dataclass
class PodemResult:
    outcome: PodemOutcome
    pattern: int | None      # packed by PI order, unassigned PIs = 0
    backtracks: int


class Podem:
    """PODEM engine bound to one netlist."""

    def __init__(self, netlist: Netlist, backtrack_limit: int = 64):
        self.netlist = netlist
        self.backtrack_limit = backtrack_limit
        self._order = netlist.topological_order()
        self._pi_index = {pi: i for i, pi in enumerate(netlist.inputs)}
        self._po_set = set(netlist.outputs)
        # Observability: min levels to a PO (orders the D-frontier).
        self._depth = self._po_distance()
        # Controllability: levels from the PIs (guides backtrace choices).
        self._level = self._pi_distance()

    def _po_distance(self) -> dict[int, int]:
        depth = {po: 0 for po in self._po_set}
        for gid in reversed(self._order):
            gate = self.netlist.gates[gid]
            d_out = depth.get(gate.output)
            if d_out is None:
                continue
            for src in gate.inputs:
                prev = depth.get(src)
                if prev is None or d_out + 1 < prev:
                    depth[src] = d_out + 1
        return depth

    def _pi_distance(self) -> list[int]:
        level = [0] * self.netlist.num_nets
        for gid in self._order:
            gate = self.netlist.gates[gid]
            level[gate.output] = 1 + max(
                (level[src] for src in gate.inputs), default=0
            )
        return level

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def _simulate(
        self, assignment: dict[int, int], fault: Fault, cone: tuple[int, ...]
    ) -> tuple[list[int], list[int]]:
        """Three-valued good/faulty simulation under a partial assignment.

        The faulty machine starts as a copy of the good one and is
        re-evaluated only on ``cone``; no cone gate drives a stem fault's
        net, so the stuck value is set once, up front.
        """
        gates = self.netlist.gates
        good = [X] * self.netlist.num_nets
        for pi in self.netlist.inputs:
            good[pi] = assignment.get(pi, X)
        for gid in self._order:
            gate = gates[gid]
            good[gate.output] = eval3(gate.cell_type, [good[n] for n in gate.inputs])
        faulty = list(good)
        if not fault.is_branch:
            faulty[fault.net] = fault.stuck_at
        for gid in cone:
            gate = gates[gid]
            f_ins = [faulty[n] for n in gate.inputs]
            if gid == fault.gate:
                f_ins[fault.pin] = fault.stuck_at
            faulty[gate.output] = eval3(gate.cell_type, f_ins)
        return good, faulty

    def _detected(self, good: list[int], faulty: list[int]) -> bool:
        return any(
            good[po] != X and faulty[po] != X and good[po] != faulty[po]
            for po in self._po_set
        )

    # ------------------------------------------------------------------
    # objective / backtrace
    # ------------------------------------------------------------------
    def _objective(
        self,
        good: list[int],
        faulty: list[int],
        fault: Fault,
        cone: tuple[int, ...],
    ) -> tuple[int, int] | None:
        """Next (net, value) goal, or None when the search must back up."""
        site_good = good[fault.net]
        if site_good == X:
            return fault.net, 1 - fault.stuck_at
        if site_good == fault.stuck_at:
            return None  # activation conflict: current assignment kills it

        # Fault active: advance the D-frontier.
        frontier = self._d_frontier(good, faulty, fault, cone)
        if not frontier:
            return None
        if not self._x_path_exists(frontier, good, faulty):
            return None
        gate = self.netlist.gates[frontier[0]]
        controlling, _inversion = GATE_LOGIC[gate.cell_type]
        for src in gate.inputs:
            if good[src] == X:
                return src, ZERO if controlling is None else 1 - controlling
        return None

    def _d_frontier(
        self,
        good: list[int],
        faulty: list[int],
        fault: Fault,
        cone: tuple[int, ...],
    ) -> list[int]:
        """Gates with a D/D' input and an X output, nearest-to-PO first.

        Only cone gates can read a D, and ``cone`` is in topological
        order, so equal depths keep the order of a whole-netlist scan.
        """
        frontier = []
        for gid in cone:
            gate = self.netlist.gates[gid]
            out = gate.output
            if good[out] != X and faulty[out] != X:
                continue
            for pin, src in enumerate(gate.inputs):
                g, f = good[src], faulty[src]
                if fault.is_branch and gid == fault.gate and pin == fault.pin:
                    f = fault.stuck_at
                if g != X and f != X and g != f:
                    frontier.append(gid)
                    break
        frontier.sort(
            key=lambda gid: self._depth.get(self.netlist.gates[gid].output, 1 << 30)
        )
        return frontier

    def _x_path_exists(
        self, frontier: list[int], good: list[int], faulty: list[int]
    ) -> bool:
        """Forward path of X nets from any frontier gate to a PO?"""
        stack = [self.netlist.gates[gid].output for gid in frontier]
        seen: set[int] = set()
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            if good[net] != X and faulty[net] != X:
                continue
            if net in self._po_set:
                return True
            for succ in self.netlist.nets[net].fanout:
                stack.append(self.netlist.gates[succ].output)
        return False

    def _backtrace(
        self, net: int, value: int, good: list[int]
    ) -> tuple[int, int] | None:
        """Walk an objective back through X nets to an unassigned PI."""
        nl = self.netlist
        for _hop in range(nl.num_nets + 1):
            driver = nl.nets[net].driver
            if driver is None:
                if net in self._pi_index and good[net] == X:
                    return net, value
                return None
            gate = nl.gates[driver]
            if gate.cell_type not in GATE_LOGIC:   # a constant cell
                return None
            controlling, inversion = GATE_LOGIC[gate.cell_type]
            value ^= inversion
            x_inputs = [src for src in gate.inputs if good[src] == X]
            if not x_inputs:
                return None
            if value == controlling:
                # Want the controlled output value: one input suffices ->
                # pick the easiest-to-control (shallowest) X input.
                net = min(x_inputs, key=lambda n: self._level[n])
            else:
                # All inputs must reach the non-controlling value: work on
                # the hardest (deepest) one first so conflicts surface early.
                net = max(x_inputs, key=lambda n: self._level[n])
                if controlling is not None:
                    value = 1 - controlling
        return None

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def generate(self, fault: Fault) -> PodemResult:
        """Try to generate a test for ``fault``."""
        cone = fault_cone(self.netlist, fault)
        assignment: dict[int, int] = {}
        stack: list[list] = []   # [pi, value, flipped]
        backtracks = 0

        while True:
            good, faulty = self._simulate(assignment, fault, cone)
            if self._detected(good, faulty):
                return PodemResult(
                    PodemOutcome.DETECTED, self._pack(assignment), backtracks
                )

            step: tuple[int, int] | None = None
            objective = self._objective(good, faulty, fault, cone)
            if objective is not None:
                step = self._backtrace(objective[0], objective[1], good)

            if step is not None:
                pi, value = step
                assignment[pi] = value
                stack.append([pi, value, False])
                continue

            # Dead end: flip the most recent unflipped decision.
            backtracks += 1
            if backtracks > self.backtrack_limit:
                return PodemResult(PodemOutcome.ABORTED, None, backtracks)
            while stack and stack[-1][2]:
                pi, _value, _flipped = stack.pop()
                del assignment[pi]
            if not stack:
                return PodemResult(PodemOutcome.UNTESTABLE, None, backtracks)
            stack[-1][2] = True
            stack[-1][1] ^= 1
            assignment[stack[-1][0]] = stack[-1][1]

    def _pack(self, assignment: dict[int, int]) -> int:
        pattern = 0
        for pi, value in assignment.items():
            if value == ONE:
                pattern |= 1 << self._pi_index[pi]
        return pattern
