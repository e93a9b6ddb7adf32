"""Single stuck-at fault model with structural equivalence collapsing.

Fault sites follow the classic convention: one pair of faults per *stem*
(every driven or primary-input net) and one pair per *branch* (a gate
input pin whose source net fans out to more than one load; single-load
pins are identical to their stem).

Equivalence collapsing applies the standard gate-local rules, read off
the cell library's :data:`~repro.netlist.cells.GATE_LOGIC` table: a
one-input cell passes both values through (in s-a-v == out
s-a-(v ^ inversion)), and a gate with controlling value c has
in s-a-c == out s-a-(c ^ inversion) on every pin.  Union-find keeps one
representative per class.

A fault can only change the gates of its fanout cone
(:func:`fault_cone`); everywhere else the faulty machine is the good one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.cells import GATE_LOGIC
from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class Fault:
    """One single stuck-at fault.

    ``gate``/``pin`` are set for branch (gate-input) faults and ``None``
    for stem faults; ``net`` is always the electrical net of the site.
    """

    net: int
    stuck_at: int
    gate: int | None = None
    pin: int | None = None

    @property
    def is_branch(self) -> bool:
        return self.gate is not None

    def describe(self, netlist: Netlist) -> str:
        base = f"{netlist.net_name(self.net)} s-a-{self.stuck_at}"
        if self.is_branch:
            return f"{base} @ gate g{self.gate}.pin{self.pin}"
        return base


def enumerate_faults(netlist: Netlist) -> list[Fault]:
    """All stem and branch stuck-at faults of a netlist (uncollapsed)."""
    faults: list[Fault] = []
    for net in netlist.nets:
        is_stem = net.driver is not None or net.nid in netlist.inputs
        is_used = net.fanout or net.nid in netlist.outputs
        if is_stem and is_used:
            faults.append(Fault(net.nid, 0))
            faults.append(Fault(net.nid, 1))
    for gate in netlist.gates:
        for pin, src in enumerate(gate.inputs):
            if len(netlist.nets[src].fanout) > 1:
                faults.append(Fault(src, 0, gate=gate.gid, pin=pin))
                faults.append(Fault(src, 1, gate=gate.gid, pin=pin))
    return faults


def fault_cone(netlist: Netlist, fault: Fault) -> tuple[int, ...]:
    """Gate ids ``fault`` can influence, in topological order.

    A stem fault reaches the readers of its net and everything after
    them; a branch fault reaches its own gate and that gate's fanout.
    """
    if fault.is_branch:
        gates = netlist.fanout_cone(netlist.gates[fault.gate].output)
        gates.add(fault.gate)
    else:
        gates = netlist.fanout_cone(fault.net)
    return tuple(sorted(gates, key=netlist.topological_position().__getitem__))


class _UnionFind:
    def __init__(self) -> None:
        self._parent: dict[Fault, Fault] = {}

    def find(self, item: Fault) -> Fault:
        parent = self._parent.setdefault(item, item)
        if parent is item:
            return item
        root = self.find(parent)
        self._parent[item] = root
        return root

    def union(self, a: Fault, b: Fault) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


def collapse_faults(
    netlist: Netlist, faults: list[Fault] | None = None
) -> tuple[list[Fault], dict[Fault, Fault]]:
    """Equivalence-collapse a fault list.

    Returns ``(representatives, class_map)`` where ``class_map`` sends
    every original fault to its class representative.
    """
    if faults is None:
        faults = enumerate_faults(netlist)
    fault_set = set(faults)
    uf = _UnionFind()

    def pin_fault(gate_id: int, pin: int, src: int, value: int) -> Fault:
        branch = Fault(src, value, gate=gate_id, pin=pin)
        if branch in fault_set:
            return branch
        return Fault(src, value)

    for gate in netlist.gates:
        out = gate.output
        if Fault(out, 0) not in fault_set or gate.cell_type not in GATE_LOGIC:
            continue
        controlling, inversion = GATE_LOGIC[gate.cell_type]
        if controlling is not None:
            out_fault = Fault(out, controlling ^ inversion)
            for pin, src in enumerate(gate.inputs):
                candidate = pin_fault(gate.gid, pin, src, controlling)
                if candidate in fault_set:
                    uf.union(out_fault, candidate)
        elif len(gate.inputs) == 1:
            for value in (0, 1):
                uf.union(
                    Fault(out, value ^ inversion),
                    pin_fault(gate.gid, 0, gate.inputs[0], value),
                )

    class_map = {f: uf.find(f) for f in faults}
    seen: set[Fault] = set()
    representatives: list[Fault] = []
    for f in faults:
        rep = class_map[f]
        if rep not in seen:
            seen.add(rep)
            representatives.append(rep)
    return representatives, class_map
