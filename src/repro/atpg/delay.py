"""Transition (delay) fault testing.

Sec. 3.2: "the functional test of the components may also be used for
delay fault tests, since it basically checks not only the structure of
the components but also their timing relations (2-8)."

A transition fault — a net slow to rise or slow to fall — needs a
*pattern pair*: an initialisation pattern that puts the net at the
pre-transition value, immediately followed by a launch/capture pattern
that (a) flips the net and (b) propagates the late value to an output
(i.e. detects the corresponding stuck-at fault).  When the paper's
functional test streams its stuck-at patterns back-to-back through the
component pipeline, every *consecutive* pair in the sequence doubles as
a delay test; this module measures that coverage and greedily reorders /
extends the sequence to raise it.

Stuck-at detections come from 64-pattern words: each distinct pattern
is fault-simulated once, :data:`~repro.atpg.faultsim.WORD` patterns per
call, against every transition fault's stuck-at equivalent, and every
pair is then answered from those results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.atpg.faults import Fault
from repro.atpg.faultsim import WORD, FaultSimulator
from repro.netlist.netlist import Netlist


@dataclass(frozen=True)
class TransitionFault:
    """Net ``net`` slow to rise (``rising=True``) or slow to fall."""

    net: int
    rising: bool

    def describe(self, netlist: Netlist) -> str:
        kind = "slow-to-rise" if self.rising else "slow-to-fall"
        return f"{netlist.net_name(self.net)} {kind}"

    @property
    def stuck_equivalent(self) -> Fault:
        """The stuck-at fault the capture pattern must detect.

        A node that fails to rise behaves, for the capture pattern, like
        a stuck-at-0 (and vice versa).
        """
        return Fault(self.net, 0 if self.rising else 1)


def enumerate_transition_faults(netlist: Netlist) -> list[TransitionFault]:
    """Both transition faults on every driven or primary-input stem."""
    out: list[TransitionFault] = []
    for net in netlist.nets:
        is_stem = net.driver is not None or net.nid in netlist.inputs
        is_used = bool(net.fanout) or net.nid in netlist.outputs
        if is_stem and is_used:
            out.append(TransitionFault(net.nid, rising=True))
            out.append(TransitionFault(net.nid, rising=False))
    return out


@dataclass
class DelayCoverage:
    """Transition coverage of one ordered pattern sequence."""

    netlist_name: str
    num_faults: int
    detected: int
    sequence_length: int

    @property
    def coverage(self) -> float:
        if self.num_faults == 0:
            return 100.0
        return 100.0 * self.detected / self.num_faults


class DelayAnalyzer:
    """Transition-fault analysis over a netlist and pattern sequences."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.sim = FaultSimulator(netlist)
        self.faults = enumerate_transition_faults(netlist)
        self._stuck = [fault.stuck_equivalent for fault in self.faults]
        #: pattern -> the stuck-at equivalents it detects.
        self._detections: dict[int, set[Fault]] = {}

    # ------------------------------------------------------------------
    def _net_values(self, pattern: int) -> list[int]:
        pi_map = {
            pi: (pattern >> i) & 1 for i, pi in enumerate(self.netlist.inputs)
        }
        return self.netlist.evaluate(pi_map, 1)

    def _simulate(self, patterns: list[int]) -> None:
        """Record what each pattern not seen yet detects, a word per call."""
        fresh = [p for p in dict.fromkeys(patterns) if p not in self._detections]
        for start in range(0, len(fresh), WORD):
            word = fresh[start : start + WORD]
            masks = self.sim.simulate_word(word, self._stuck)
            for k, pattern in enumerate(word):
                self._detections[pattern] = {
                    fault for fault, mask in masks.items() if (mask >> k) & 1
                }

    def _detects_stuck(self, pattern: int, fault: Fault) -> bool:
        if pattern not in self._detections:
            self._simulate([pattern])
        return fault in self._detections[pattern]

    def pair_detects(self, init: int, capture: int, fault: TransitionFault) -> bool:
        """Does the ordered pair (init, capture) detect ``fault``?

        init must set the pre-transition value; capture must flip the
        net and observe the stuck-at equivalent.
        """
        pre = 0 if fault.rising else 1
        init_values = self._net_values(init)
        if init_values[fault.net] != pre:
            return False
        capture_values = self._net_values(capture)
        if capture_values[fault.net] != 1 - pre:
            return False
        return self._detects_stuck(capture, fault.stuck_equivalent)

    # ------------------------------------------------------------------
    def coverage_of_sequence(self, patterns: list[int]) -> DelayCoverage:
        """Transition coverage of *consecutive* pairs in one sequence.

        This is exactly what the paper's functional application gives for
        free: pattern k initialises the pair (k, k+1) launches/captures.
        """
        detected: set[TransitionFault] = set()
        if len(patterns) >= 2:
            value_cache = [self._net_values(p) for p in patterns]
            self._simulate(patterns)
            remaining = list(self.faults)
            for fault in remaining:
                if fault in detected:
                    continue
                stuck = fault.stuck_equivalent
                pre = 0 if fault.rising else 1
                for k in range(len(patterns) - 1):
                    if value_cache[k][fault.net] != pre:
                        continue
                    if value_cache[k + 1][fault.net] != 1 - pre:
                        continue
                    if self._detects_stuck(patterns[k + 1], stuck):
                        detected.add(fault)
                        break
        return DelayCoverage(
            netlist_name=self.netlist.name,
            num_faults=len(self.faults),
            detected=len(detected),
            sequence_length=len(patterns),
        )

    def augment_sequence(
        self, patterns: list[int], max_extra: int = 64
    ) -> list[int]:
        """Greedily append initialisation patterns to raise pair coverage.

        For each uncovered transition fault whose stuck-at equivalent is
        detected by some pattern ``c`` in the set, prepend-before-``c`` a
        copy of a pattern that holds the pre-transition value (reusing
        set members only — no new ATPG), until the budget runs out.
        """
        sequence = list(patterns)
        extra = 0
        value_cache = {p: self._net_values(p) for p in set(sequence)}
        self._simulate(sequence)

        for fault in self.faults:
            if extra >= max_extra:
                break
            pre = 0 if fault.rising else 1
            stuck = fault.stuck_equivalent
            # already covered by a consecutive pair?
            if any(
                value_cache[sequence[k]][fault.net] == pre
                and value_cache[sequence[k + 1]][fault.net] == 1 - pre
                and self._detects_stuck(sequence[k + 1], stuck)
                for k in range(len(sequence) - 1)
            ):
                continue
            capture = next(
                (
                    p
                    for p in sequence
                    if value_cache[p][fault.net] == 1 - pre
                    and self._detects_stuck(p, stuck)
                ),
                None,
            )
            if capture is None:
                continue
            init = next(
                (p for p in sequence if value_cache[p][fault.net] == pre),
                None,
            )
            if init is None:
                continue
            position = sequence.index(capture)
            sequence.insert(position, init)
            extra += 1
        return sequence


def delay_test_cycles(num_pairs: int, transport_latency: int) -> int:
    """Application cost of delay pairs through the transport path.

    Each pair is two back-to-back functional patterns; the launch and
    capture ride the pipeline one cycle apart, so a pair costs
    ``CD + 1`` cycles (the paper's at-speed argument: the existing
    timing relations provide the launch/capture clocking for free).
    """
    if num_pairs < 0 or transport_latency < 1:
        raise ValueError("invalid delay-test parameters")
    return num_pairs * (transport_latency + 1)
