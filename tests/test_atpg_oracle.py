"""Differential test: the ATPG against its pre-table, whole-netlist predecessor.

The shipped gate evaluators read the cell library's ``GATE_LOGIC`` table,
and PODEM re-simulates the faulty machine only on ``fault_cone``;
``tests.oracles`` keeps the earlier code that wrote the gate facts out per
evaluator and re-simulated the whole netlist.  Every gate value, fault
class, PODEM decision and pattern list must agree.  The corpus is the
socket and the w8 library cores at production settings, two full-scan
views, and alu8 with PODEM cut off at its first backtrack.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache

import pytest

from repro.atpg import Podem, collapse_faults, run_atpg
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


@lru_cache(maxsize=None)
def _netlist(name: str):
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
