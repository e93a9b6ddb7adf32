"""CSV/JSON exporters round-trip the exploration and Table 1 data."""

import csv
import io
import json

from repro.apps import build_gcd_ir
from repro.compiler.interp import IRInterpreter
from repro.explore import EvaluatedPoint, EvaluationContext, small_space
from repro.explore import ArchConfig, RFConfig, build_architecture
from repro.reporting import (
    exploration_from_csv,
    exploration_from_json,
    exploration_to_csv,
    exploration_to_json,
    point_from_row,
    table1_to_csv,
    table1_to_json,
)
from repro.testcost import attach_test_costs, build_table1


def _points():
    workload = build_gcd_ir(24, 18)
    profile = IRInterpreter(workload, width=16).run().block_counts
    context = EvaluationContext(workload, profile, 16)
    points = [context.evaluate(config) for config in small_space()[:4]]
    feasible = [p for p in points if p.feasible]
    attach_test_costs(feasible)
    return feasible


def test_exploration_csv_parses_back():
    points = _points()
    text = exploration_to_csv(points)
    rows = list(csv.DictReader(io.StringIO(text)))
    assert len(rows) == len(points)
    assert rows[0]["architecture"] == points[0].label
    assert int(rows[0]["cycles"]) == points[0].cycles


def test_exploration_json_structure():
    points = _points()
    data = json.loads(exploration_to_json(points))
    assert len(data) == len(points)
    for entry in data:
        assert set(entry) >= {"architecture", "area", "cycles", "test_cost"}
        assert entry["feasible"] is True


def test_empty_exports():
    assert exploration_to_csv([]) == ""
    assert json.loads(exploration_to_json([])) == []


def _assert_points_equal(rebuilt, originals):
    assert len(rebuilt) == len(originals)
    for got, want in zip(rebuilt, originals):
        assert got.config == want.config
        assert got.area == want.area
        assert got.cycles == want.cycles
        assert got.test_cost == want.test_cost
        assert got.energy == want.energy


def test_energy_column_round_trips():
    point = EvaluatedPoint(
        config=ArchConfig(num_buses=2), area=10.0, cycles=50,
        energy=1234.567,
    )
    for rebuilt in (
        exploration_from_csv(exploration_to_csv([point])),
        exploration_from_json(exploration_to_json([point])),
    ):
        assert rebuilt[0].energy == 1234.567
    bare = exploration_from_csv(exploration_to_csv([
        EvaluatedPoint(config=ArchConfig(num_buses=1), area=1.0, cycles=5)
    ]))
    assert bare[0].energy is None


def test_code_size_column_round_trips():
    point = EvaluatedPoint(
        config=ArchConfig(num_buses=2), area=10.0, cycles=50,
        code_size=1100,
    )
    for rebuilt in (
        exploration_from_csv(exploration_to_csv([point])),
        exploration_from_json(exploration_to_json([point])),
    ):
        assert rebuilt[0].code_size == 1100
    bare = exploration_from_csv(exploration_to_csv([
        EvaluatedPoint(config=ArchConfig(num_buses=1), area=1.0, cycles=5)
    ]))
    assert bare[0].code_size is None


def test_csv_round_trips_through_from_dict():
    points = _points()
    rebuilt = exploration_from_csv(exploration_to_csv(points))
    _assert_points_equal(rebuilt, points)
    # and the rebuilt points serialise identically
    assert exploration_to_csv(rebuilt) == exploration_to_csv(points)


def test_json_round_trips_through_from_dict():
    points = _points()
    rebuilt = exploration_from_json(exploration_to_json(points))
    _assert_points_equal(rebuilt, points)
    assert exploration_to_json(rebuilt) == exploration_to_json(points)


def test_round_trip_keeps_infeasible_points():
    infeasible = EvaluatedPoint(
        config=ArchConfig(num_buses=1), area=7.5, cycles=None
    )
    rebuilt = exploration_from_csv(exploration_to_csv([infeasible]))
    assert rebuilt[0].cycles is None and not rebuilt[0].feasible
    assert rebuilt[0].config == infeasible.config


def test_point_from_row_requires_config():
    import pytest

    with pytest.raises(ValueError, match="config"):
        point_from_row({"architecture": "b1", "area": 1.0})


def test_table1_exports():
    arch = build_architecture(ArchConfig(num_buses=2, rfs=(RFConfig(8),)))
    rows, _ = build_table1(arch)
    text = table1_to_csv(rows)
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert len(parsed) == len(rows)
    data = json.loads(table1_to_json(rows))
    counted = [d for d in data if d["counted"]]
    for entry in counted:
        assert entry["our_approach_cycles"] < entry["full_scan_cycles"]
        assert entry["advantage"] > 1.0
