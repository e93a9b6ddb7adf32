"""Tests for the netlist graph: construction, ordering, evaluation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.netlist import CellType, Netlist, NetlistError
from repro.netlist.netlist import _split_indexed


def _xor_netlist():
    nl = Netlist("pair")
    a = nl.add_input("a")
    b = nl.add_input("b")
    x = nl.add_gate(CellType.XOR, [a, b], name="x")
    nl.add_output(x)
    return nl, a, b, x


def test_simple_evaluation():
    nl, a, b, x = _xor_netlist()
    values = nl.evaluate({a: 1, b: 0})
    assert values[x] == 1
    values = nl.evaluate({a: 1, b: 1})
    assert values[x] == 0


def test_bit_parallel_evaluation_matches_scalar():
    nl, a, b, x = _xor_netlist()
    # patterns: (a,b) = (0,0) (1,0) (0,1) (1,1)
    values = nl.evaluate({a: 0b0110, b: 0b1100}, num_patterns=4)
    assert values[x] == 0b1010


def test_fanin_limits_enforced():
    nl = Netlist("t")
    a = nl.add_input()
    with pytest.raises(NetlistError):
        nl.add_gate(CellType.NOT, [a, a])
    with pytest.raises(NetlistError):
        nl.add_gate(CellType.AND, [a])
    with pytest.raises(NetlistError):
        nl.add_gate(CellType.AND, [a] * 5)


def test_double_driver_rejected():
    nl = Netlist("t")
    a = nl.add_input()
    x = nl.add_gate(CellType.NOT, [a])
    with pytest.raises(NetlistError):
        nl.add_gate(CellType.NOT, [a], output=x)


def test_driving_primary_input_rejected():
    nl = Netlist("t")
    a = nl.add_input()
    b = nl.add_input()
    with pytest.raises(NetlistError):
        nl.add_gate(CellType.NOT, [a], output=b)


def test_cycle_detection():
    nl = Netlist("t")
    a = nl.add_input()
    loop = nl.new_net("loop")
    x = nl.add_gate(CellType.AND, [a, loop])
    # close the loop: loop driven by a gate reading x
    nl.add_gate(CellType.NOT, [x], output=loop)
    with pytest.raises(NetlistError, match="cycle"):
        nl.topological_order()


def test_unknown_net_rejected():
    nl = Netlist("t")
    with pytest.raises(NetlistError):
        nl.add_gate(CellType.NOT, [42])


def test_check_flags_undriven_used_net():
    nl = Netlist("t")
    floating = nl.new_net("floating")
    nl.add_gate(CellType.NOT, [floating])
    with pytest.raises(NetlistError, match="undriven"):
        nl.check()


def test_topological_order_respects_dependencies():
    nl = Netlist("t")
    a = nl.add_input()
    x = nl.add_gate(CellType.NOT, [a])
    y = nl.add_gate(CellType.NOT, [x])
    nl.add_output(y)
    order = nl.topological_order()
    assert order.index(nl.nets[x].driver) < order.index(nl.nets[y].driver)


def test_fanout_cone_and_fanin_cone():
    nl = Netlist("t")
    a = nl.add_input()
    b = nl.add_input()
    x = nl.add_gate(CellType.AND, [a, b])
    y = nl.add_gate(CellType.NOT, [x])
    nl.add_output(y)
    cone = nl.fanout_cone(a)
    assert cone == {nl.nets[x].driver, nl.nets[y].driver}


def test_const_cells_evaluate():
    nl = Netlist("t")
    one = nl.add_gate(CellType.CONST1, [])
    zero = nl.add_gate(CellType.CONST0, [])
    nl.add_output(one)
    nl.add_output(zero)
    vals = nl.evaluate({}, num_patterns=3)
    assert vals[one] == 0b111
    assert vals[zero] == 0


def test_evaluate_words_roundtrip():
    nl = Netlist("t")
    bits = [nl.add_input(f"a[{i}]") for i in range(4)]
    outs = [nl.add_gate(CellType.NOT, [b]) for b in bits]
    for i, o in enumerate(outs):
        nl.nets[o].name = f"y[{i}]"
        nl.add_output(o)
    result = nl.evaluate_words({"a": 0b0101})
    assert result["y"] == 0b1010


def test_split_indexed():
    assert _split_indexed("word[3]") == ("word", 3)
    assert _split_indexed("plain") == ("plain", 0)
    assert _split_indexed("odd[x]") == ("odd[x]", 0)


@given(st.integers(min_value=0, max_value=63), st.integers(min_value=1, max_value=6))
def test_parallel_patterns_agree_with_single(seed, npat):
    import random

    rng = random.Random(seed)
    nl = Netlist("rand")
    nets = [nl.add_input() for _ in range(4)]
    for _ in range(12):
        cell = rng.choice([CellType.AND, CellType.OR, CellType.XOR, CellType.NOT])
        fan = 1 if cell is CellType.NOT else 2
        ins = [rng.choice(nets) for _ in range(fan)]
        nets.append(nl.add_gate(cell, ins))
    nl.add_output(nets[-1])

    patterns = [rng.getrandbits(4) for _ in range(npat)]
    packed = {
        pi: sum(((p >> i) & 1) << k for k, p in enumerate(patterns))
        for i, pi in enumerate(nl.inputs)
    }
    parallel_out = nl.evaluate(packed, num_patterns=npat)[nl.outputs[0]]
    for k, p in enumerate(patterns):
        single = nl.evaluate(
            {pi: (p >> i) & 1 for i, pi in enumerate(nl.inputs)}
        )[nl.outputs[0]]
        assert ((parallel_out >> k) & 1) == single
