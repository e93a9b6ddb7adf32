"""ATPG substrate tests: faults, fault simulation, PODEM, the engine."""

import ast
import json
import os
import random
import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atpg import (
    ATPGResult,
    Fault,
    FaultSimulator,
    Podem,
    PodemOutcome,
    collapse_faults,
    enumerate_faults,
    run_atpg,
)
from repro.atpg import engine
from repro.atpg.engine import _cache_load, _cache_store
from repro.netlist import CellType, Netlist, WordBuilder


def _and_circuit():
    nl = Netlist("and2")
    a = nl.add_input("a")
    b = nl.add_input("b")
    y = nl.add_gate(CellType.AND, [a, b], name="y")
    nl.add_output(y)
    return nl


def _adder(width=4):
    wb = WordBuilder(f"add{width}")
    a = wb.input_word("a", width)
    b = wb.input_word("b", width)
    s, c = wb.ripple_adder(a, b)
    wb.output_word("s", s)
    wb.output_bit("cout", c)
    return wb.netlist


# ----------------------------------------------------------------------
# fault enumeration and collapsing
# ----------------------------------------------------------------------
def test_enumerate_counts_and2():
    nl = _and_circuit()
    faults = enumerate_faults(nl)
    # three nets (a, b, y), no fanout branches: 6 stem faults
    assert len(faults) == 6


def test_collapse_and_gate_equivalences():
    nl = _and_circuit()
    reps, class_map = collapse_faults(nl)
    # a s-a-0 == b s-a-0 == y s-a-0 -> classes: {sa0 x3}, a1, b1, y1 = 4
    assert len(reps) == 4
    a, b = nl.inputs
    y = nl.outputs[0]
    assert class_map[Fault(a, 0)] == class_map[Fault(b, 0)] == class_map[Fault(y, 0)]


def test_collapse_not_chain():
    nl = Netlist("chain")
    a = nl.add_input("a")
    x = nl.add_gate(CellType.NOT, [a])
    y = nl.add_gate(CellType.NOT, [x])
    nl.add_output(y)
    reps, class_map = collapse_faults(nl)
    # whole chain collapses to two classes
    assert len(reps) == 2
    assert class_map[Fault(a, 0)] == class_map[Fault(x, 1)] == class_map[Fault(y, 0)]


def test_branch_faults_on_fanout():
    nl = Netlist("fan")
    a = nl.add_input("a")
    x = nl.add_gate(CellType.NOT, [a])
    y = nl.add_gate(CellType.AND, [x, a])
    z = nl.add_gate(CellType.OR, [x, a])
    nl.add_output(y)
    nl.add_output(z)
    faults = enumerate_faults(nl)
    branch = [f for f in faults if f.is_branch]
    # a fans out to 3 gates (6 pin faults), x to 2 gates (4 pin faults)
    assert len(branch) == 10


def test_fault_describe(rng):
    nl = _and_circuit()
    fault = Fault(nl.inputs[0], 1)
    assert "s-a-1" in fault.describe(nl)


# ----------------------------------------------------------------------
# fault simulation vs brute force
# ----------------------------------------------------------------------
def _brute_force_detects(nl, fault, pattern):
    """Inject by rebuilding gate evaluation manually."""
    pi_map = {pi: (pattern >> i) & 1 for i, pi in enumerate(nl.inputs)}
    good = nl.evaluate(pi_map)

    faulty = dict(pi_map)
    values = [0] * nl.num_nets
    for pi in nl.inputs:
        values[pi] = faulty.get(pi, 0)
    if not fault.is_branch:
        if nl.nets[fault.net].driver is None:
            values[fault.net] = fault.stuck_at
    from repro.netlist.cells import evaluate_cell

    for gid in nl.topological_order():
        gate = nl.gates[gid]
        ins = [values[n] for n in gate.inputs]
        if fault.is_branch and gid == fault.gate:
            ins[fault.pin] = fault.stuck_at
        values[gate.output] = evaluate_cell(gate.cell_type, ins, 1)
        if not fault.is_branch and gate.output == fault.net:
            values[gate.output] = fault.stuck_at
    return any(values[po] != good[po] for po in nl.outputs)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_faultsim_matches_bruteforce(seed):
    rng = random.Random(seed)
    nl = _adder(3)
    faults = enumerate_faults(nl)
    sim = FaultSimulator(nl)
    fault = rng.choice(faults)
    patterns = [rng.getrandbits(len(nl.inputs)) for _ in range(8)]
    masks = sim.simulate_word(patterns, [fault])[fault]
    for k, pattern in enumerate(patterns):
        assert ((masks >> k) & 1) == int(_brute_force_detects(nl, fault, pattern))


def test_faultsim_po_stem_fault():
    nl = _and_circuit()
    y = nl.outputs[0]
    sim = FaultSimulator(nl)
    # y s-a-0 detected by pattern a=b=1 (pattern 0b11)
    res = sim.simulate_word([0b11, 0b01], [Fault(y, 0)])
    assert res[Fault(y, 0)] == 0b01


# ----------------------------------------------------------------------
# PODEM
# ----------------------------------------------------------------------
def test_podem_finds_tests_for_all_adder_faults():
    nl = _adder(3)
    faults, _ = collapse_faults(nl)
    podem = Podem(nl, backtrack_limit=256)
    sim = FaultSimulator(nl)
    for fault in faults:
        result = podem.generate(fault)
        if result.outcome is PodemOutcome.DETECTED:
            assert sim.simulate_word([result.pattern], [fault])[fault], (
                f"PODEM pattern does not detect {fault.describe(nl)}"
            )
        else:
            # the const-0 carry-in makes a handful genuinely redundant
            assert result.outcome is PodemOutcome.UNTESTABLE


def test_podem_proves_redundancy():
    # y = a AND NOT a is constant 0: s-a-0 on y is untestable
    nl = Netlist("red")
    a = nl.add_input("a")
    na = nl.add_gate(CellType.NOT, [a])
    y = nl.add_gate(CellType.AND, [a, na], name="y")
    nl.add_output(y)
    podem = Podem(nl, backtrack_limit=64)
    result = podem.generate(Fault(y, 0))
    assert result.outcome is PodemOutcome.UNTESTABLE
    # ... while s-a-1 on y is testable by any pattern
    result = podem.generate(Fault(y, 1))
    assert result.outcome is PodemOutcome.DETECTED


def test_podem_xor_tree():
    wb = WordBuilder("x")
    word = wb.input_word("a", 6)
    wb.output_bit("y", wb.xor_reduce(list(word)))
    nl = wb.netlist
    faults, _ = collapse_faults(nl)
    podem = Podem(nl, backtrack_limit=128)
    sim = FaultSimulator(nl)
    detected = 0
    for fault in faults:
        result = podem.generate(fault)
        if result.outcome is PodemOutcome.DETECTED:
            assert sim.simulate_word([result.pattern], [fault])[fault]
            detected += 1
    assert detected == len(faults)   # XOR trees are fully testable


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def test_engine_full_coverage_on_adder():
    nl = _adder(4)
    result = run_atpg(nl, use_cache=False)
    assert result.aborted == 0
    assert result.fault_coverage == 100.0
    assert result.num_patterns > 0
    # verify the pattern set truly covers every detected fault
    sim = FaultSimulator(nl)
    faults, _ = collapse_faults(nl)
    remaining = list(faults)
    for pattern in result.patterns:
        det = sim.simulate_word([pattern], remaining)
        remaining = [f for f in remaining if not det[f]]
    assert len(remaining) == result.num_faults - result.detected


def test_engine_structural_redundancy_pruning():
    # a gate that drives nothing reachable: pin faults pruned instantly
    nl = Netlist("dead")
    a = nl.add_input("a")
    b = nl.add_input("b")
    y = nl.add_gate(CellType.AND, [a, b], name="y")
    nl.add_gate(CellType.OR, [a, b], name="dead")  # no PO
    nl.add_output(y)
    result = run_atpg(nl, use_cache=False, random_words=1)
    assert result.aborted == 0
    assert result.redundant >= 2      # the dead OR's faults


def test_engine_compaction_reduces_or_keeps(rng):
    nl = _adder(4)
    loose = run_atpg(nl, use_cache=False, compact=False)
    tight = run_atpg(nl, use_cache=False, compact=True)
    assert tight.num_patterns <= loose.num_patterns
    assert tight.detected == loose.detected


def test_engine_deterministic():
    nl = _adder(4)
    r1 = run_atpg(nl, use_cache=False, seed=7)
    r2 = run_atpg(nl, use_cache=False, seed=7)
    assert r1.patterns == r2.patterns
    assert r1.detected == r2.detected


def test_engine_cache_roundtrip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ATPG_CACHE", str(tmp_path))
    nl = _adder(4)
    r1 = run_atpg(nl, use_cache=True)
    r2 = run_atpg(nl, use_cache=True)
    assert r1.patterns == r2.patterns
    assert list(tmp_path.glob("*.json"))


def test_engine_cache_truncated_entry_is_rewritten(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_ATPG_CACHE", str(tmp_path))
    nl = _adder(4)
    first = run_atpg(nl, use_cache=True)
    (entry,) = tmp_path.glob("*.json")
    whole = entry.read_bytes()
    # a torn entry and an undecodable one are misses: regenerated, then
    # stored whole again
    for corrupt in (whole[: len(whole) // 2], b"\xff\xfe garbage"):
        entry.write_bytes(corrupt)
        assert run_atpg(nl, use_cache=True) == first
        assert ATPGResult.from_json(json.loads(entry.read_text())) == first


def _repro_imports(path: Path) -> set[str]:
    """Modules under ``repro`` that a source file imports."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        modules.update(n for n in names if n.startswith("repro."))
    return modules


def test_algorithm_digest_covers_its_imports():
    """Every ``repro`` module a digested source imports is digested too,
    so an edit to any code the ATPG runs changes ``algorithm_digest()``."""
    package = Path(engine.__file__).resolve().parent.parent
    listed = set(engine._ALGORITHM_SOURCES)
    for name in sorted(listed):
        for module in _repro_imports(package / name):
            rel = module.removeprefix("repro.").replace(".", "/")
            source = f"{rel}.py" if (package / f"{rel}.py").exists() else (
                f"{rel}/__init__.py"
            )
            assert source in listed, f"{name} imports {module}, not digested"


def test_engine_cache_key_versions_the_algorithm(tmp_path, monkeypatch):
    """A changed ATPG source digest misses the old entry and writes a
    second one beside it."""
    monkeypatch.setenv("REPRO_ATPG_CACHE", str(tmp_path))
    nl = _adder(4)
    first = run_atpg(nl, use_cache=True)
    assert len(list(tmp_path.glob("*.json"))) == 1
    monkeypatch.setattr(engine, "algorithm_digest", lambda: "0" * 16)
    assert run_atpg(nl, use_cache=True) == first
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_engine_cache_store_atomic_under_threads(tmp_path, monkeypatch):
    """Threads of one process storing one key never expose a torn entry
    and never leave a temp file behind."""
    monkeypatch.setenv("REPRO_ATPG_CACHE", str(tmp_path))
    result = run_atpg(_adder(4), use_cache=False)
    deadline = time.monotonic() + 1.0
    errors: list[BaseException] = []

    def hammer():
        try:
            while time.monotonic() < deadline:
                _cache_store("key", result)
                if _cache_load("key") != result:
                    raise AssertionError("reader saw a torn entry")
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=hammer)
        for _ in range(4 * (os.cpu_count() or 1) + 4)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert [p.name for p in tmp_path.iterdir()] == ["key.json"]
    assert _cache_load("key") == result


def test_coverage_properties():
    nl = _adder(4)
    r = run_atpg(nl, use_cache=False)
    assert 0.0 <= r.raw_coverage <= 100.0
    assert r.raw_coverage <= r.fault_coverage <= 100.0
