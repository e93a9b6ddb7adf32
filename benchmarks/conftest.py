"""Shared benchmark fixtures and artifact recording.

Every benchmark regenerates one of the paper's tables or figures and
writes a human-readable artifact under ``benchmarks/results/`` so the
regenerated rows/series survive pytest's output capture.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.study import StudySpec, run_study

RESULTS_DIR = Path(__file__).parent / "results"


def save_artifact(name: str, text: str) -> Path:
    """Write a regenerated figure/table to benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path


@pytest.fixture(scope="session")
def crypt_exploration():
    """The full Crypt design-space exploration, shared by the figure
    benches: one study of the registered ``crypt`` workload
    (``build_crypt_ir("password", "ab")``, 16-bit datapath) under the
    paper's (area, cycles, test cost) vector.  The run's ``pareto`` is
    the Fig. 8 front; ``pareto_front(run.result.points, ("area",
    "cycles"))`` is the Fig. 2 front the test costs sit on."""
    return run_study(
        StudySpec(
            name="crypt-figures",
            workloads=("crypt",),
            space="crypt",
            width=16,
            objectives=("area", "cycles", "test_cost"),
        )
    ).single
