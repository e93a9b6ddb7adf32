"""Exploration: space, Pareto filtering, evaluation, selection."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_gcd_ir
from repro.explore import (
    ArchConfig,
    EvaluatedPoint,
    RFConfig,
    build_architecture,
    crypt_space,
    dominates,
    pareto_filter,
    select_architecture,
    small_space,
)
from repro.explore.selection import normalize_points
from repro.study import StudySpec, pareto_front, run_search, run_study


# ----------------------------------------------------------------------
# space
# ----------------------------------------------------------------------
def test_crypt_space_size():
    space = crypt_space()
    assert len(space) == 4 * 3 * 2 * 7
    assert len({c.label() for c in space}) == len(space)


def test_small_space_builds():
    for config in small_space():
        arch = build_architecture(config)
        assert arch.num_buses == config.num_buses
        assert arch.lsu is not None and arch.imm_unit is not None


def test_config_labels_readable():
    config = ArchConfig(num_buses=2, num_alus=2, num_shifters=1,
                        rfs=(RFConfig(8), RFConfig(12, read_ports=2)))
    label = config.label()
    assert "b2" in label and "alu2" in label and "sh1" in label
    assert config.total_registers == 20


# ----------------------------------------------------------------------
# pareto
# ----------------------------------------------------------------------
def test_dominates_basic():
    assert dominates((1, 1), (2, 2))
    assert dominates((1, 2), (1, 3))
    assert not dominates((1, 2), (1, 2))
    assert not dominates((1, 3), (2, 2))


def test_dominates_dimension_mismatch():
    with pytest.raises(ValueError):
        dominates((1,), (1, 2))


def test_pareto_filter_example():
    points = [(1, 10), (2, 5), (3, 6), (4, 4), (5, 5)]
    kept = pareto_filter(points, key=lambda p: p)
    assert kept == [(1, 10), (2, 5), (4, 4)]


def test_pareto_filter_keeps_first_of_duplicates():
    points = [("a", 1, 1), ("b", 1, 1)]
    kept = pareto_filter(points, key=lambda p: (p[1], p[2]))
    assert kept == [("a", 1, 1)]


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=0, max_value=20),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_pareto_properties(points):
    kept = pareto_filter(points, key=lambda p: p)
    assert kept, "frontier never empty"
    # no kept point dominates another kept point
    for a in kept:
        for b in kept:
            if a is not b:
                assert not dominates(a, b)
    # every dropped point is dominated by (or duplicates) a kept point
    for p in points:
        if p not in kept:
            assert any(dominates(k, p) or tuple(k) == tuple(p) for k in kept)


# ----------------------------------------------------------------------
# evaluation + explorer
# ----------------------------------------------------------------------
def test_explore_gcd_small_space():
    result = run_search(build_gcd_ir(252, 105), small_space())
    assert len(result.points) == len(small_space())
    assert any(p.feasible for p in result.points)
    pareto = pareto_front(result.points, ("area", "cycles"))
    ordered = sorted(pareto, key=lambda p: p.area)
    for a, b in zip(ordered, ordered[1:]):
        assert b.cycles < a.cycles


def test_explore_profile_recorded():
    study = run_study(
        StudySpec(name="profile", workloads="gcd", space=small_space()[:2])
    )
    result = study.single.result
    assert result.profile["entry"] == 1
    assert result.profile["check"] >= 2


# ----------------------------------------------------------------------
# selection
# ----------------------------------------------------------------------
def _points(*triples):
    out = []
    for i, (area, cycles, ft) in enumerate(triples):
        p = EvaluatedPoint(
            config=ArchConfig(num_buses=1 + i % 4),
            area=area,
            cycles=cycles,
            test_cost=ft,
        )
        out.append(p)
    return out


def test_normalize_unit_range():
    pts = _points((10, 100, 5), (20, 50, 10), (30, 25, 2))
    normalized = normalize_points(pts)
    for _p, vec in normalized:
        assert all(0.0 <= x <= 1.0 for x in vec)
    # extremes map to 0 and 1
    areas = [v[0] for _p, v in normalized]
    assert min(areas) == 0.0 and max(areas) == 1.0


def test_select_equal_weights_balances():
    pts = _points(
        (10, 100, 100),    # cheap, slow, bad test
        (50, 50, 50),      # balanced
        (100, 10, 100),    # fast, big
    )
    best = select_architecture(pts)
    assert best.point is pts[1]


def test_select_weights_steer():
    pts = _points((10, 100, 50), (50, 50, 50), (100, 10, 50))
    area_heavy = select_architecture(pts, weights=(10, 1, 1))
    time_heavy = select_architecture(pts, weights=(1, 10, 1))
    assert area_heavy.point is pts[0]
    assert time_heavy.point is pts[2]


def test_select_norm_orders():
    pts = _points((0, 100, 100), (60, 60, 60), (100, 0, 100))
    manhattan = select_architecture(pts, order=1.0)
    chebyshev = select_architecture(pts, order=float("inf"))
    assert manhattan.norm >= 0 and chebyshev.norm >= 0


def test_select_requires_test_cost():
    p = EvaluatedPoint(config=ArchConfig(num_buses=1), area=1.0, cycles=10)
    with pytest.raises(ValueError, match="test cost"):
        select_architecture([p])


def test_select_2d_mode():
    pts = _points((10, 100, 1), (100, 10, 1))
    best = select_architecture(
        pts, weights=(1.0, 1.0), key=lambda p: (p.area, p.cycles)
    )
    assert best.point in pts
    assert len(best.normalized) == 2


def test_infeasible_rejected_in_selection():
    p = EvaluatedPoint(config=ArchConfig(num_buses=1), area=1.0, cycles=None)
    with pytest.raises(ValueError, match="infeasible"):
        select_architecture([p])
