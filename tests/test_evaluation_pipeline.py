"""The fast evaluation pipeline: caches must never change results.

Covers the pipeline invariants: the Pareto filter matches the naive
quadratic oracle on adversarial point sets, memoized register
allocation produces byte-identical schedules, the per-type netlist
statistics behind ``Architecture.area()`` match a from-scratch
recomputation, the feasibility pre-check agrees exactly with the
compiler, and the pool's worker entry evaluates through the same
context as the serial loop.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_gcd_ir
from repro.apps.registry import build_workload
from repro.compiler.interp import IRInterpreter
from repro.compiler.regalloc import AllocationError
from repro.compiler.scheduler import ScheduleError, compile_ir
from repro.components.library import component_datasheet
from repro.explore import (
    ArchConfig,
    EvaluationContext,
    RFConfig,
    build_architecture,
    build_architecture_cached,
    init_evaluation_worker,
    pareto_filter,
    required_fu_opcodes,
    small_space,
)
from repro.explore.evaluate import run_worker_task
from repro.explore.space import dsp_space, space_by_name
from repro.netlist.stats import netlist_stats
from repro.tta.arch import BUS_AREA_PER_BIT, CONNECTION_AREA

from tests.oracles import pareto_filter_naive


def _workload_and_profile(name="gcd"):
    if name == "gcd":
        workload = build_gcd_ir(252, 105)
    else:
        workload = build_workload(name)
    profile = IRInterpreter(workload, width=16).run().block_counts
    return workload, profile


# ----------------------------------------------------------------------
# pareto filter vs the naive oracle
# ----------------------------------------------------------------------
# Narrow value ranges force heavy ties and exact duplicates — the cases
# where a scan with sloppy strictness handling diverges from dominance.
@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_pareto_sweep_matches_naive(dim, data):
    points = data.draw(
        st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=4)] * dim),
            max_size=40,
        )
    )
    items = list(enumerate(points))     # make duplicates distinguishable
    fast = pareto_filter(items, key=lambda it: it[1])
    naive = pareto_filter_naive(items, key=lambda it: it[1])
    assert fast == naive


def test_pareto_sweep_keeps_first_duplicate_and_order():
    points = [("b", (2, 1)), ("a", (1, 2)), ("c", (1, 2)), ("d", (3, 3))]
    kept = pareto_filter(points, key=lambda p: p[1])
    # input order preserved, first duplicate kept, dominated (3,3) gone
    assert [p[0] for p in kept] == ["b", "a"]


def test_pareto_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        pareto_filter([(1, 2), (1, 2, 3)], key=lambda p: p)


def test_pareto_empty():
    assert pareto_filter([], key=lambda p: p) == []


# ----------------------------------------------------------------------
# memoized register allocation
# ----------------------------------------------------------------------
def test_memoized_regalloc_schedules_byte_identical():
    """Context-cached allocation must reproduce fresh compiles exactly."""
    workload, profile = _workload_and_profile("gcd")
    context = EvaluationContext(workload, profile, width=16)
    for config in small_space():
        point = context.evaluate(config, keep_compile_result=True)
        arch = build_architecture(config, 16)
        fresh = compile_ir(workload, arch, profile=profile)
        assert point.feasible
        assert point.compile_result is not None
        assert (
            point.compile_result.program.listing() == fresh.program.listing()
        )
        assert point.cycles == fresh.static_cycles(profile)
    # the cache really was shared: one allocation per RF arrangement
    distinct_rfs = {config.rfs for config in small_space()}
    assert set(context._allocations) == distinct_rfs


def test_context_matches_one_shot_evaluation():
    """A long-lived context's memoized evaluations equal fresh ones."""
    workload, profile = _workload_and_profile("gcd")
    context = EvaluationContext(workload, profile, width=16)
    for config in small_space():
        a = context.evaluate(config)
        b = EvaluationContext(workload, profile, 16).evaluate(config)
        assert (a.label, a.area, a.cycles) == (b.label, b.area, b.cycles)


# ----------------------------------------------------------------------
# per-type netlist-stats cache behind Architecture.area()
# ----------------------------------------------------------------------
def _reference_area(arch) -> float:
    """``Architecture.area()`` recomputed without the per-type cache.

    Re-runs :func:`netlist_stats` for every unit, with the same formulas
    and the same rounding as the cached area model.
    """
    component_area = 0.0
    for unit in arch.units.values():
        datasheet = component_datasheet(unit.spec)
        netlist = datasheet.netlist()
        if netlist is None:                 # RF macro: formula, no netlist
            core = datasheet.core_area
        else:
            core = netlist_stats(netlist).area
        component_area += round(
            core + datasheet.register_area + datasheet.socket_area, 3
        )
    bus_area = arch.num_buses * arch.width * BUS_AREA_PER_BIT
    switch_area = arch.num_connections * CONNECTION_AREA
    return round(component_area + bus_area + switch_area, 3)


@pytest.mark.parametrize("width", [8, 16])
@pytest.mark.parametrize("space", ["small", "dsp", "crypt"])
def test_cached_area_matches_fresh_netlist_stats(space, width):
    for config in space_by_name(space):
        arch = build_architecture(config, width)
        assert arch.area() == _reference_area(arch), config.label()


# ----------------------------------------------------------------------
# feasibility pre-check is exact
# ----------------------------------------------------------------------
def _compiles(workload, profile, config, width=16):
    arch = build_architecture(config, width)
    try:
        compile_ir(workload, arch, profile=profile)
        return True
    except (AllocationError, ScheduleError):
        return False


def test_precheck_rejects_exactly_what_the_compiler_rejects():
    # fir needs a multiplier: infeasible on every mul-less small-space
    # point, feasible on the dsp grid — the pre-check must agree with a
    # real compile attempt on every single configuration.
    for name, space in (("fir", small_space()), ("fir", dsp_space()),
                        ("gcd", small_space())):
        workload, profile = _workload_and_profile(name)
        context = EvaluationContext(workload, profile, width=16)
        for config in space:
            assert context.evaluate(config).feasible == _compiles(
                workload, profile, config
            ), f"{name} on {config.label()}"


def test_precheck_tiny_register_file():
    workload, profile = _workload_and_profile("gcd")
    context = EvaluationContext(workload, profile, width=16)
    config = ArchConfig(num_buses=2, rfs=(RFConfig(2),))
    point = context.evaluate(config)
    assert not point.feasible
    assert point.area > 0
    assert not _compiles(workload, profile, config)


def test_required_fu_opcodes():
    workload, _ = _workload_and_profile("fir")
    ops = required_fu_opcodes(workload)
    assert "mul" in ops
    # memory traffic and literals never require an FU
    assert not ops & {"li", "mov", "ld", "st"}


# ----------------------------------------------------------------------
# shared architecture builder + worker path
# ----------------------------------------------------------------------
def test_cached_builder_returns_shared_instance():
    config = small_space()[0]
    assert build_architecture_cached(config, 16) is build_architecture_cached(
        config, 16
    )
    # distinct widths are distinct cache entries
    assert build_architecture_cached(config, 16) is not (
        build_architecture_cached(config, 32)
    )


def test_worker_entry_points_share_context_semantics():
    workload, profile = _workload_and_profile("gcd")
    init_evaluation_worker(workload, profile, 16)
    context = EvaluationContext(workload, profile, 16)
    for config in small_space()[:4]:
        a, snapshot = run_worker_task(EvaluationContext.evaluate, config)
        b = context.evaluate(config)
        assert (a.label, a.area, a.cycles) == (b.label, b.area, b.cycles)
        # each call ships its own per-configuration telemetry delta
        assert snapshot["counters"]["evaluations"] == 1
        assert snapshot["histograms"]["eval_seconds"]["count"] == 1
