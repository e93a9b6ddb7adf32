"""Tests of the benchmark itself.

Run from the repository root with::

    PYTHONPATH=src python3 -m pytest perfbench/selftest.py -q

(The file name keeps it out of the default test collection: the
hermeticity test runs the benchmark.)
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
from workloads import build_specs  # noqa: E402


# ----------------------------------------------------------------------
# self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_children_once():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.x", 1.5, 2.5, 1),
        spans.Span("a.y", 2.0, 3.0, 1),   # overlaps a.x: covered once
        spans.Span("b", 5.0, 9.0, 0),
        spans.Span("b.x", 8.0, 9.5, 4),   # clipped to its parent's end
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 1.5, 1.0, 1.0, 3.0, 1.5])
    table = spans.summarize(tree)
    assert table["a.x"]["calls"] == 1
    assert table["root"]["self_s"] == pytest.approx(3.0)


def test_recorder_nests_spans_and_tail_percentile():
    recorder = spans.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    assert [(s.name, s.parent) for s in recorder.spans] == [("outer", None), ("inner", 0)]
    assert spans.tail_percentile(9) is None
    assert spans.tail_percentile(20) == 50.0
    assert spans.tail_percentile(1000) == 99.0
    assert spans.percentile([1.0, 2.0, 3.0], 50.0) == 2.0


# ----------------------------------------------------------------------
# the wrappers change no result
# ----------------------------------------------------------------------
def _front_records(spec) -> dict:
    from repro.study import Study

    return {
        run.label: sorted(
            (p.label, p.area, p.cycles, p.code_size) for p in run.pareto
        )
        for run in Study(spec).run().runs
    }


def test_wrappers_are_result_neutral_and_restored():
    from repro.atpg.engine import run_atpg
    from repro.atpg.podem import Podem
    from repro.components.socket import build_socket
    from repro.study import StudySpec
    from repro.testcost import backannotate

    spec = StudySpec(
        name="neutral", workloads=("gcd",), space="small", width=8,
        objectives=("area", "cycles", "code_size"),
    )
    plain_front = _front_records(spec)
    plain_atpg = run_atpg(build_socket(), random_words=4, use_cache=False).to_json()
    originals = (backannotate.run_atpg, Podem.__dict__["generate"])

    recorder = spans.SpanRecorder()
    with spans.installed(recorder):
        assert backannotate.run_atpg is not originals[0]
        traced_front = _front_records(spec)
        traced_atpg = backannotate.run_atpg(
            build_socket(), random_words=4, use_cache=False
        ).to_json()

    assert traced_front == plain_front
    assert traced_atpg == plain_atpg
    assert (backannotate.run_atpg, Podem.__dict__["generate"]) == originals
    names = {s.name for s in recorder.spans}
    assert {"study.search", "atpg.run", "atpg.faultsim"} <= names
    assert recorder.counters["atpg.patterns"] == len(plain_atpg["patterns"])


# ----------------------------------------------------------------------
# the seed permutes the inputs, not the results
# ----------------------------------------------------------------------
def test_seed_permutes_inputs_but_not_fronts():
    from dataclasses import replace

    orders, fronts = set(), []
    for seed in (0, 1, 2):
        specs = build_specs("warm_study", seed)
        orders.add(tuple(c.label() for c in specs[0].space) + specs[0].workloads)
        # The compile-only version of the workload: same space, same
        # base objectives, no simulation.
        fronts.append(_front_records(
            replace(specs[0], objectives=("area", "cycles", "code_size"), workers=1)
        ))
    assert len(orders) > 1
    assert fronts[0] == fronts[1] == fronts[2]

    sweeps = [build_specs("sweep_store", seed) for seed in (0, 1)]
    assert [s.name for s in sweeps[0]] != [s.name for s in sweeps[1]]
    assert sorted(s.name for s in sweeps[0]) == sorted(s.name for s in sweeps[1])


# ----------------------------------------------------------------------
# a run leaves the tree and ~/.cache/repro-tta as they were
# ----------------------------------------------------------------------
def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    if directory.exists():
        for path in sorted(directory.rglob("*")):
            h.update(str(path.relative_to(directory)).encode())
            if path.is_file():
                h.update(path.read_bytes())
    return h.hexdigest()


def _git_status() -> str | None:
    try:
        return subprocess.run(
            ["git", "status", "--porcelain", "--ignored=no"], cwd=ROOT,
            capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None


def test_run_is_hermetic():
    user_cache = Path.home() / ".cache" / "repro-tta"
    before = (_git_status(), _tree_digest(user_cache))
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "sweep_store",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if not k.startswith("REPRO_")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == ["peak_rss_mb", "setup_s", "study_s"]
    assert (_git_status(), _tree_digest(user_cache)) == before
