"""Differential test: the ATPG against its interpreted, whole-netlist predecessor.

The shipped gate evaluators read the cell library's ``GATE_LOGIC`` table,
PODEM implies through one generated function per netlist and
re-simulates the faulty machine only on ``fault_cone``, fault simulation
runs compiled gates on a copy of the good values, and compaction and
transition-fault analysis simulate 64 patterns per call.
``tests.oracles`` keeps the earlier code that wrote the gate facts out per
evaluator, interpreted the whole netlist gate by gate and simulated one
pattern per call.  Every gate value, implied value, detection mask, fault
class, PODEM decision, kept pattern and delay-coverage figure must agree.
The corpus is the socket and the w8 library cores at production
settings, two full-scan views, alu8 with PODEM cut off at its first
backtrack, and a hand-built netlist with every cell type at every legal
fan-in.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from repro.atpg import FaultSimulator, Podem, collapse_faults, run_atpg
from repro.atpg.delay import DelayAnalyzer
from repro.atpg.engine import _compact
from repro.atpg.faults import fault_cone
from repro.atpg.podem import eval3
from repro.components.library import (
    alu_spec,
    cmp_spec,
    component_datasheet,
    imm_spec,
    lsu_spec,
    mul_spec,
    pc_spec,
    rf_spec,
    shifter_spec,
)
from repro.components.socket import build_socket
from repro.components.spec import ComponentKind
from repro.netlist import Netlist, WordBuilder
from repro.netlist.cells import FAN_IN, CellType, evaluate_cell
from repro.scan.scanview import scan_view
from repro.testcost.backannotate import (
    ATPG_BACKTRACK_LIMIT,
    ATPG_RANDOM_WORDS,
    ATPG_SEED,
)

from tests import oracles

PRODUCTION = {
    "seed": ATPG_SEED,
    "random_words": ATPG_RANDOM_WORDS,
    "backtrack_limit": ATPG_BACKTRACK_LIMIT,
}


def _core(spec):
    return lambda: component_datasheet(spec).netlist()


def _full_scan_view(spec):
    def build():
        datasheet = component_datasheet(spec)
        core = (
            datasheet.ff_netlist()
            if spec.kind is ComponentKind.RF
            else datasheet.netlist()
        )
        return scan_view(core, [build_socket() for _ in spec.ports])

    return build


#: name -> (netlist builder, run_atpg settings).
CORPUS = {
    "socket": (build_socket, PRODUCTION),
    **{
        spec.name: (_core(spec), PRODUCTION)
        for spec in (
            cmp_spec(8), shifter_spec(8), mul_spec(8),
            lsu_spec(8), pc_spec(8), imm_spec(8),
        )
    },
    "fullscan-cmp8": (_full_scan_view(cmp_spec(8)), PRODUCTION),
    "fullscan-rf4x8_1w1r": (
        _full_scan_view(rf_spec(4, 8, read_ports=1, write_ports=1)),
        PRODUCTION,
    ),
    "alu8-bt0": (
        _core(alu_spec(8)),
        {"seed": ATPG_SEED, "random_words": 4, "backtrack_limit": 0},
    ),
}


def _every_cell() -> Netlist:
    """Every cell type at every legal fan-in, constants and a floating net.

    Gate inputs cycle through the PIs, both constants and earlier gate
    outputs, so implied values mix 0, 1 and X; every gate output is a PO.
    The floating net (``new_net``, never driven or read) must stay X.
    """
    nl = Netlist("every_cell")
    pool = [nl.add_input(f"in{i}") for i in range(4)]
    pool.append(nl.add_gate(CellType.CONST0, [], name="zero"))
    pool.append(nl.add_gate(CellType.CONST1, [], name="one"))
    nl.new_net("floating")
    for cell_type in CellType:
        lo, hi = FAN_IN[cell_type]
        for fan_in in range(max(lo, 1), hi + 1):
            start = 3 * len(pool) // 4
            ins = [pool[(start + k * 3) % len(pool)] for k in range(fan_in)]
            pool.append(nl.add_gate(cell_type, ins))
    for net in pool[4:]:
        nl.add_output(net)
    return nl


#: Implication and fault simulation also run on the hand-built netlist.
KERNEL_CORPUS = [*CORPUS, "every_cell"]


@lru_cache(maxsize=None)
def _netlist(name: str):
    if name == "every_cell":
        return _every_cell()
    return CORPUS[name][0]()


@lru_cache(maxsize=None)
def _oracle_run(name: str):
    """The oracle pipeline's result and every (fault, PodemResult) it made."""
    calls: list = []
    result = oracles.run_atpg(_netlist(name), podem_calls=calls, **CORPUS[name][1])
    return result, calls


def test_evaluate_cell_matches_oracle():
    rng = random.Random(19)
    all_ones = (1 << 64) - 1
    for cell_type in CellType:
        lo, hi = FAN_IN[cell_type]
        for fan_in in range(lo, hi + 1):
            for _ in range(50):
                ins = [rng.getrandbits(64) for _ in range(fan_in)]
                assert evaluate_cell(cell_type, ins, all_ones) == (
                    oracles.evaluate_cell(cell_type, ins, all_ones)
                ), (cell_type, ins)


def test_eval3_matches_oracle():
    for cell_type in CellType:
        lo, hi = FAN_IN[cell_type]
        for fan_in in range(lo, hi + 1):
            for ins in itertools.product((0, 1, 2), repeat=fan_in):
                assert eval3(cell_type, list(ins)) == (
                    oracles.eval3(cell_type, list(ins))
                ), (cell_type, ins)


@pytest.mark.parametrize("name", CORPUS)
def test_collapse_faults_matches_oracle(name):
    netlist = _netlist(name)
    reps, class_map = collapse_faults(netlist)
    oracle_reps, oracle_map = oracles.collapse_faults(netlist)
    assert reps == oracle_reps
    assert list(class_map.items()) == list(oracle_map.items())


@pytest.mark.parametrize("name", CORPUS)
def test_run_atpg_matches_oracle(name):
    result = run_atpg(_netlist(name), use_cache=False, **CORPUS[name][1])
    assert result.to_json() == _oracle_run(name)[0]


@pytest.mark.parametrize("name", CORPUS)
def test_podem_matches_oracle(name):
    netlist = _netlist(name)
    podem = Podem(netlist, backtrack_limit=CORPUS[name][1]["backtrack_limit"])
    calls = _oracle_run(name)[1]
    for fault, expected in calls:
        got = podem.generate(fault)
        assert (got.outcome.value, got.pattern, got.backtracks) == (
            expected.outcome.value, expected.pattern, expected.backtracks
        ), fault.describe(netlist)


@pytest.mark.parametrize("name", KERNEL_CORPUS)
def test_implication_matches_oracle(name):
    """The generated good machine and the cone's faulty pass, net for net."""
    netlist = _netlist(name)
    podem = Podem(netlist)
    oracle = oracles.Podem(netlist)
    faults = collapse_faults(netlist)[0]
    rng = random.Random(21)
    assignments = [{}, {pi: rng.getrandbits(1) for pi in netlist.inputs}]
    for _ in range(6):
        share = rng.random()
        assignments.append(
            {pi: rng.getrandbits(1) for pi in netlist.inputs if rng.random() < share}
        )
    for fault in rng.sample(faults, min(len(faults), 12)):
        cone = fault_cone(netlist, fault)
        for assignment in assignments:
            assert podem._simulate(assignment, fault, cone) == (
                oracle._simulate(assignment, fault)
            ), (fault.describe(netlist), assignment)


@pytest.mark.parametrize("name", KERNEL_CORPUS)
def test_simulate_word_matches_oracle(name):
    """Every collapsed fault's detection mask on full and partial words."""
    netlist = _netlist(name)
    faults = collapse_faults(netlist)[0]
    sim = FaultSimulator(netlist)
    oracle = oracles.FaultSimulator(netlist)
    rng = random.Random(22)
    for size in (64, 64, 17):
        word = [rng.getrandbits(len(netlist.inputs)) for _ in range(size)]
        assert sim.simulate_word(word, faults) == oracle.simulate_word(word, faults)


@pytest.mark.parametrize("name", CORPUS)
def test_compact_matches_oracle(name):
    """Three words of reversed patterns, the last one partial.

    Both sides run the shipped fault simulator (pinned above), so this
    compares only how the kept patterns are picked: one pattern per call
    in the oracle, 64 per call here.
    """
    netlist = _netlist(name)
    faults = collapse_faults(netlist)[0]
    sim = FaultSimulator(netlist)
    rng = random.Random(23)
    patterns = [rng.getrandbits(len(netlist.inputs)) for _ in range(150)]
    assert _compact(sim, faults, patterns) == (
        oracles._compact(sim, faults, patterns)
    )


def _adder4():
    wb = WordBuilder("delay_add4")
    s, c = wb.ripple_adder(wb.input_word("a", 4), wb.input_word("b", 4))
    wb.output_word("s", s)
    wb.output_bit("cout", c)
    return wb.netlist


@pytest.mark.parametrize("name", ["adder4", "cmp8"])
def test_delay_analysis_matches_oracle(name):
    """Pair coverage and augmented sequences, from 64-pattern words."""
    if name == "adder4":
        netlist = _adder4()
        patterns = run_atpg(netlist, use_cache=False).patterns
    else:
        netlist = _netlist(name)
        patterns = _oracle_run(name)[0]["patterns"]
    analyzer = DelayAnalyzer(netlist)
    oracle = oracles.DelayAnalyzer(netlist)
    assert analyzer.coverage_of_sequence(patterns) == (
        oracle.coverage_of_sequence(patterns)
    )
    for max_extra in (8, 64):
        assert analyzer.augment_sequence(patterns, max_extra) == (
            oracle.augment_sequence(patterns, max_extra)
        )
