"""Result export: exploration tables and Table 1 as CSV / JSON.

Thin, dependency-free serialisers so downstream users can pull the
exploration and test-cost results into their own tooling (spreadsheets,
plotting, regression tracking) without touching internal objects.
"""

from __future__ import annotations

import csv
import io
import json

from repro.explore.evaluate import EvaluatedPoint
from repro.explore.space import ArchConfig
from repro.testcost.table import Table1Row


def exploration_rows(points: list[EvaluatedPoint]) -> list[dict]:
    """Plain-dict view of evaluated points (stable key order).

    The ``config`` column holds the full :class:`ArchConfig` as compact
    JSON (CSV-safe), so rows round-trip back into evaluated points via
    :func:`point_from_row` without loss.
    """
    rows = []
    for p in points:
        rows.append(
            {
                "architecture": p.label,
                "buses": p.config.num_buses,
                "alus": p.config.num_alus,
                "shifters": p.config.num_shifters,
                "registers": p.config.total_registers,
                "area": p.area,
                "cycles": p.cycles,
                "code_size": p.code_size,
                "test_cost": p.test_cost,
                "energy": p.energy,
                "feasible": p.feasible,
                "config": json.dumps(
                    p.config.to_dict(), sort_keys=True,
                    separators=(",", ":"),
                ),
            }
        )
    return rows


def point_from_row(row: dict) -> EvaluatedPoint:
    """Rebuild one evaluated point from an exploration row.

    Accepts both typed values (JSON) and all-string values (CSV): the
    numeric columns are coerced, and empty strings mean None.
    """
    config = row.get("config")
    if not config:
        raise ValueError("row lacks a 'config' column; cannot round-trip")
    if isinstance(config, str):
        config = json.loads(config)
    cycles = row.get("cycles")
    cycles = None if cycles in (None, "") else int(cycles)
    code_size = row.get("code_size")
    code_size = None if code_size in (None, "") else int(code_size)
    test_cost = row.get("test_cost")
    test_cost = None if test_cost in (None, "") else int(test_cost)
    energy = row.get("energy")
    energy = None if energy in (None, "") else float(energy)
    return EvaluatedPoint(
        config=ArchConfig.from_dict(config),
        area=float(row["area"]),
        cycles=cycles,
        code_size=code_size,
        test_cost=test_cost,
        energy=energy,
    )


def exploration_from_csv(text: str) -> list[EvaluatedPoint]:
    """Inverse of :func:`exploration_to_csv`."""
    return [
        point_from_row(row) for row in csv.DictReader(io.StringIO(text))
    ]


def exploration_from_json(text: str) -> list[EvaluatedPoint]:
    """Inverse of :func:`exploration_to_json`."""
    return [point_from_row(row) for row in json.loads(text)]


def exploration_to_csv(points: list[EvaluatedPoint]) -> str:
    """CSV text for a point list (header + one row per point)."""
    rows = exploration_rows(points)
    if not rows:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def exploration_to_json(points: list[EvaluatedPoint]) -> str:
    return json.dumps(exploration_rows(points), indent=2)


def study_to_dict(result) -> dict:
    """Plain-dict view of a :class:`repro.study.StudyResult`.

    Bundles the (round-trippable) spec with per-run point tables, the
    objective-vector Pareto front and the selection, so one JSON file
    captures an entire study — inputs and outputs — for archival next to
    the code that produced it.  Point rows are the same shape
    :func:`exploration_rows` emits, so they feed back through
    :func:`point_from_row`.
    """
    runs = []
    for run in result.runs:
        runs.append(
            {
                "label": run.label,
                "objectives": list(run.objectives),
                "evaluations": run.evaluations,
                "iterations": run.iterations,
                "frontier_history": list(run.frontier_history),
                "stats": {
                    "total": run.stats.total,
                    "cache_hits": run.stats.cache_hits,
                    "evaluated": run.stats.evaluated,
                    "workers": run.stats.workers,
                    "elapsed": round(run.stats.elapsed, 4),
                    "post_pass_hits": run.stats.post_pass_hits,
                    "phases": run.stats.phases,
                    "counters": run.stats.counters,
                    "histograms": run.stats.histograms,
                },
                "points": exploration_rows(run.result.points),
                "pareto": [p.label for p in run.pareto],
                "selection": None if run.selection is None else {
                    "architecture": run.selection.point.label,
                    "norm": run.selection.norm,
                    "normalized": list(run.selection.normalized),
                },
            }
        )
    return {"spec": result.spec.to_dict(), "runs": runs}


def study_to_json(result) -> str:
    """JSON text for one study result (spec + runs + fronts + winner)."""
    return json.dumps(study_to_dict(result), indent=2)


def table1_rows(rows: list[Table1Row]) -> list[dict]:
    """Plain-dict view of a Table 1 result."""
    out = []
    for row in rows:
        out.append(
            {
                "component": row.component,
                "spec": row.spec_name,
                "kind": row.kind.value,
                "full_scan_cycles": row.full_scan,
                "our_approach_cycles": row.our_approach,
                "advantage": round(row.advantage, 3),
                "nl": row.nl,
                "ftfu": row.ftfu,
                "ftrf": row.ftrf,
                "fts": row.fts,
                "fault_coverage": round(row.fault_coverage, 2),
                "counted": row.counted,
            }
        )
    return out


def table1_to_csv(rows: list[Table1Row]) -> str:
    data = table1_rows(rows)
    if not data:
        return ""
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(data[0]))
    writer.writeheader()
    writer.writerows(data)
    return buffer.getvalue()


def table1_to_json(rows: list[Table1Row]) -> str:
    return json.dumps(table1_rows(rows), indent=2)
