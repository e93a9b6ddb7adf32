"""Differential test: the simulator against its two-pass predecessor.

The shipped :class:`~repro.tta.simulator.TTASimulator` records switching
activity inside its one execution pass; ``tests.oracles.TTASimulator``
is the earlier simulator that executed each move and then classified it
again for the trace.  Every run must agree on the result, the final
architectural state and every :class:`~repro.tta.activity.ActivityTrace`
field -- dicts compared as item lists, because the energy model sums in
key order.
"""

from __future__ import annotations

import dataclasses
from functools import lru_cache

import pytest

from repro.apps.registry import build_workload, workload_names
from repro.explore.evaluate import EvaluationContext
from repro.explore.space import build_architecture_cached, space_by_name
from repro.study import workload_profile
from repro.tta.activity import ActivityTrace
from repro.tta.simulator import TTASimulator

from tests import oracles

MAX_CYCLES = 5_000_000
#: crypt runs long; two crypt-space templates stand in for its grid.
CRYPT_CONFIGS = ("b4-alu3-16r2R2W", "b1-alu1-8r1R1W+12r1R1W")


@lru_cache(maxsize=None)
def _context(workload: str, width: int) -> EvaluationContext:
    return EvaluationContext(
        build_workload(workload), workload_profile(workload, width), width
    )


def _items(value):
    return list(value.items()) if isinstance(value, dict) else value


def _snapshot(sim, result) -> dict:
    """Everything a run leaves behind, dicts as ordered item lists."""
    trace = sim.activity
    return {
        "result": dataclasses.astuple(result),
        "dmem": _items(sim.dmem),
        "guards": sim.guards,
        "trace": None if trace is None else [
            (f.name, _items(getattr(trace, f.name)))
            for f in dataclasses.fields(ActivityTrace)
        ],
    }


def _check(workload: str, config, width: int, activity: bool) -> bool:
    """Run both simulators on one compiled point; False if infeasible."""
    point = _context(workload, width).evaluate(config, keep_compile_result=True)
    if not point.feasible:
        return False
    program = point.compile_result.program
    arch = build_architecture_cached(config, width)
    snapshots = []
    for simulator in (TTASimulator, oracles.TTASimulator):
        sim = simulator(arch, program, activity=activity)
        result = sim.run(max_cycles=MAX_CYCLES)
        assert result.halted, f"{workload} on {config.label()} did not halt"
        snapshots.append(_snapshot(sim, result))
    shipped, oracle = snapshots
    assert shipped == oracle, (
        f"{workload} on {config.label()} at w{width}, activity={activity}"
    )
    return True


@pytest.mark.parametrize(
    "workload", [name for name in workload_names() if name != "crypt"]
)
def test_simulator_matches_oracle(workload):
    """Every small/dsp template that compiles, w8/w16, tracing off/on."""
    runs = 0
    for config in space_by_name("small") + space_by_name("dsp"):
        for width in (8, 16):
            for activity in (False, True):
                runs += _check(workload, config, width, activity)
    assert runs >= 48          # at least the 12 dsp templates x 2 x 2


@pytest.mark.parametrize("label", CRYPT_CONFIGS)
def test_crypt_traced_matches_oracle(label):
    config = next(c for c in space_by_name("crypt") if c.label() == label)
    assert _check("crypt", config, 8, activity=True)
