"""Combinational gate-level netlist with bit-parallel evaluation.

The netlist is a DAG of primitive cells over named nets.  Sequential elements
(pipeline registers, socket flip-flops, scan cells) are modelled *outside*
the combinational core — exactly the view an ATPG tool has of a full-scan
design — so this class stays purely combinational and acyclic.

Values are bit-parallel pattern vectors (see :mod:`repro.netlist.cells`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netlist.cells import FAN_IN, CellType, evaluate_cell


class NetlistError(Exception):
    """Structural error in a netlist (cycle, bad fan-in, missing driver...)."""


@dataclass
class Net:
    """A single-bit signal."""

    nid: int
    name: str
    driver: int | None = None          # gate id, or None for PI/const-less nets
    fanout: list[int] = field(default_factory=list)   # gate ids reading this net


@dataclass
class Gate:
    """One primitive cell instance."""

    gid: int
    cell_type: CellType
    inputs: list[int]                  # net ids
    output: int                        # net id


class Netlist:
    """A named combinational netlist.

    Typical use::

        nl = Netlist("adder")
        a = nl.add_input("a")
        b = nl.add_input("b")
        s = nl.add_gate(CellType.XOR, [a, b], name="s")
        nl.add_output(s)
        values = nl.evaluate({a: 0b01, b: 0b11}, num_patterns=2)
    """

    def __init__(self, name: str):
        self.name = name
        self.nets: list[Net] = []
        self.gates: list[Gate] = []
        self.inputs: list[int] = []    # PI net ids, in declaration order
        self.outputs: list[int] = []   # PO net ids, in declaration order
        self._order: list[int] | None = None   # cached topological gate order
        self._position: list[int] | None = None  # gate id -> index in _order

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def new_net(self, name: str | None = None) -> int:
        """Create a floating net and return its id."""
        nid = len(self.nets)
        self.nets.append(Net(nid, name or f"n{nid}"))
        self._invalidate()
        return nid

    def add_input(self, name: str | None = None) -> int:
        """Create a primary-input net."""
        nid = self.new_net(name or f"in{len(self.inputs)}")
        self.inputs.append(nid)
        return nid

    def add_output(self, net: int) -> int:
        """Mark an existing net as a primary output."""
        self._check_net(net)
        self.outputs.append(net)
        return net

    def add_gate(
        self,
        cell_type: CellType,
        inputs: list[int],
        output: int | None = None,
        name: str | None = None,
    ) -> int:
        """Instantiate a cell; returns the output net id."""
        lo, hi = FAN_IN[cell_type]
        if not lo <= len(inputs) <= hi:
            raise NetlistError(
                f"{cell_type.value} fan-in {len(inputs)} outside [{lo}, {hi}]"
            )
        for net in inputs:
            self._check_net(net)
        if output is None:
            output = self.new_net(name)
        else:
            self._check_net(output)
        out_net = self.nets[output]
        if out_net.driver is not None:
            raise NetlistError(f"net {out_net.name} already driven")
        if output in self.inputs:
            raise NetlistError(f"cannot drive primary input {out_net.name}")

        gid = len(self.gates)
        self.gates.append(Gate(gid, cell_type, list(inputs), output))
        out_net.driver = gid
        for net in inputs:
            self.nets[net].fanout.append(gid)
        self._invalidate()
        return output

    def _check_net(self, net: int) -> None:
        if not 0 <= net < len(self.nets):
            raise NetlistError(f"unknown net id {net}")

    def _invalidate(self) -> None:
        self._order = None
        self._position = None

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def net_name(self, net: int) -> str:
        return self.nets[net].name

    def topological_order(self) -> list[int]:
        """Gate ids in evaluation order; raises on combinational cycles."""
        if self._order is not None:
            return self._order
        indegree = [0] * len(self.gates)
        for gate in self.gates:
            for net in gate.inputs:
                if self.nets[net].driver is not None:
                    indegree[gate.gid] += 1
        ready = [g.gid for g in self.gates if indegree[g.gid] == 0]
        order: list[int] = []
        head = 0
        while head < len(ready):
            gid = ready[head]
            head += 1
            order.append(gid)
            out = self.gates[gid].output
            for succ in self.nets[out].fanout:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.gates):
            raise NetlistError(f"combinational cycle in netlist '{self.name}'")
        self._order = order
        return order

    def topological_position(self) -> list[int]:
        """Index of every gate id in :meth:`topological_order`, cached."""
        if self._position is None:
            position = [0] * len(self.gates)
            for i, gid in enumerate(self.topological_order()):
                position[gid] = i
            self._position = position
        return self._position

    def check(self) -> None:
        """Validate structural invariants; raises :class:`NetlistError`."""
        self.topological_order()
        for net in self.nets:
            if net.driver is None and net.nid not in self.inputs and net.fanout:
                raise NetlistError(f"net {net.name} read but undriven")
        for po in self.outputs:
            n = self.nets[po]
            if n.driver is None and po not in self.inputs:
                raise NetlistError(f"output {n.name} undriven")

    def fanout_cone(self, net: int) -> set[int]:
        """All gate ids transitively reachable from ``net``."""
        seen: set[int] = set()
        stack = list(self.nets[net].fanout)
        while stack:
            gid = stack.pop()
            if gid in seen:
                continue
            seen.add(gid)
            stack.extend(self.nets[self.gates[gid].output].fanout)
        return seen

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def evaluate(self, pi_values: dict[int, int], num_patterns: int = 1) -> list[int]:
        """Bit-parallel logic simulation.

        ``pi_values`` maps PI net id -> pattern vector (bit k = pattern k).
        Returns a list of pattern vectors indexed by net id; undriven,
        unassigned nets evaluate to 0.
        """
        all_ones = (1 << num_patterns) - 1
        values = [0] * len(self.nets)
        for pi in self.inputs:
            values[pi] = pi_values.get(pi, 0) & all_ones
        for gid in self.topological_order():
            gate = self.gates[gid]
            ins = [values[n] for n in gate.inputs]
            values[gate.output] = evaluate_cell(gate.cell_type, ins, all_ones)
        return values

    def evaluate_outputs(
        self, pi_values: dict[int, int], num_patterns: int = 1
    ) -> list[int]:
        """Like :meth:`evaluate` but returns only PO vectors, in PO order."""
        values = self.evaluate(pi_values, num_patterns)
        return [values[po] for po in self.outputs]

    def evaluate_words(
        self, input_words: dict[str, int], widths: dict[str, int] | None = None
    ) -> dict[str, int]:
        """Single-pattern, word-level convenience evaluation.

        Interprets PI names of the form ``word[i]`` as bit ``i`` of ``word``
        and likewise reassembles outputs.  Scalar nets use their plain name.
        """
        pi_values: dict[int, int] = {}
        for pi in self.inputs:
            name = self.nets[pi].name
            base, index = _split_indexed(name)
            if base in input_words:
                pi_values[pi] = (input_words[base] >> index) & 1
        values = self.evaluate(pi_values, num_patterns=1)
        out: dict[str, int] = {}
        for po in self.outputs:
            name = self.nets[po].name
            base, index = _split_indexed(name)
            out.setdefault(base, 0)
            if values[po] & 1:
                out[base] |= 1 << index
        return out


def _split_indexed(name: str) -> tuple[str, int]:
    """Split ``"word[3]"`` into ``("word", 3)``; plain names get index 0."""
    if name.endswith("]") and "[" in name:
        base, _, idx = name[:-1].rpartition("[")
        try:
            return base, int(idx)
        except ValueError:
            return name, 0
    return name, 0
