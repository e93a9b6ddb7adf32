"""The study layer: registries, spec round-trip, strategies, equivalence."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import build_gcd_ir
from repro.apps.kernels import build_fir_ir
from repro.apps.registry import build_workload
from repro.campaign import ResultCache
from repro.compiler.interp import IRInterpreter
from repro.explore import (
    ArchConfig,
    EvaluatedPoint,
    EvaluationContext,
    RFConfig,
    dsp_space,
    pareto_filter,
    select_architecture,
    small_space,
)
from repro.study import (
    StudySpec,
    cost_vector,
    objective_by_name,
    objective_names,
    pareto_front,
    register_objective,
    register_strategy,
    resolve_objectives,
    run_search,
    run_study,
    strategy_by_name,
    strategy_names,
)
from repro.study import objectives as objectives_module
from repro.study import strategies as strategies_module
from repro.testcost import attach_test_costs


def _reference_sweep(workload, space, width=16):
    """An independent oracle: the raw evaluation pipeline, point by
    point through one :class:`EvaluationContext`, no strategy layer."""
    profile = IRInterpreter(workload, width=width).run().block_counts
    context = EvaluationContext(workload, profile, width)
    return [context.evaluate(config) for config in space]


def _reference_front(points):
    """The Fig. 2 front of a point list, straight from pareto_filter."""
    return pareto_filter(
        [p for p in points if p.feasible], key=lambda p: (p.area, p.cycles)
    )


def _fingerprint(points):
    return [(p.label, p.area, p.cycles, p.test_cost) for p in points]


# ----------------------------------------------------------------------
# objective registry
# ----------------------------------------------------------------------
def test_objective_registry_seeded():
    assert {"area", "cycles", "test_cost"} <= set(objective_names())
    assert objective_by_name("test_cost").requires_test_costs
    assert not objective_by_name("area").requires_test_costs
    with pytest.raises(KeyError, match="unknown objective"):
        objective_by_name("nope")
    with pytest.raises(ValueError, match="at least one objective"):
        resolve_objectives(())


def test_objective_availability_gates_pareto():
    feasible = EvaluatedPoint(
        config=ArchConfig(num_buses=1), area=10.0, cycles=100
    )
    infeasible = EvaluatedPoint(
        config=ArchConfig(num_buses=2), area=20.0, cycles=None
    )
    assert objective_by_name("area").available(feasible)
    assert not objective_by_name("area").available(infeasible)
    # test_cost is unavailable until the post-pass attached a cost
    assert not objective_by_name("test_cost").available(feasible)
    assert pareto_front(
        [feasible, infeasible], ("area", "cycles", "test_cost")
    ) == []
    feasible.test_cost = 5
    assert pareto_front(
        [feasible, infeasible], ("area", "cycles", "test_cost")
    ) == [feasible]


def test_pareto_front_is_staged_for_post_pass_objectives():
    """A stray test cost on an off-front point must not enter the 3-D
    front: the test axis is only measured on the base-objective front
    (so cached costs from other studies cannot change the result)."""
    on_front = EvaluatedPoint(
        config=ArchConfig(num_buses=1), area=10.0, cycles=100, test_cost=50
    )
    also_on_front = EvaluatedPoint(
        config=ArchConfig(num_buses=2), area=20.0, cycles=10, test_cost=40
    )
    # dominated in (area, cycles) but with an excellent test cost
    off_front = EvaluatedPoint(
        config=ArchConfig(num_buses=3), area=30.0, cycles=200, test_cost=1
    )
    front = pareto_front(
        [on_front, also_on_front, off_front],
        ("area", "cycles", "test_cost"),
    )
    assert off_front not in front
    assert front == [on_front, also_on_front]


def test_study_front_independent_of_cache_history(tmp_path):
    """An exhaustive study's front/selection must not depend on which
    points an earlier (random) study left test costs on in the cache."""
    cache = ResultCache(tmp_path)
    objectives = ("area", "cycles", "test_cost")
    run_study(
        StudySpec(
            name="warmup", workloads=("gcd",), space="small",
            objectives=objectives, strategy="random",
            strategy_params={"budget": 8, "seed": 5},
        ),
        cache=cache,
    )
    cached = run_study(
        StudySpec(
            name="full", workloads=("gcd",), space="small",
            objectives=objectives, select=True,
        ),
        cache=cache,
    )
    clean = run_study(
        StudySpec(
            name="full", workloads=("gcd",), space="small",
            objectives=objectives, select=True,
        )
    )
    assert [p.label for p in cached.pareto] == [
        p.label for p in clean.pareto
    ]
    assert cached.selection.point.label == clean.selection.point.label


def test_register_custom_objective():
    name = "_test_energy_proxy"
    try:
        register_objective(
            name,
            lambda p: p.area * p.cycles,
            "area-cycles product (unit-test axis)",
        )
        assert name in objective_names()
        point = EvaluatedPoint(
            config=ArchConfig(num_buses=1), area=2.0, cycles=3
        )
        vec = cost_vector(point, resolve_objectives(("area", name)))
        assert vec == (2.0, 6.0)
    finally:
        del objectives_module._OBJECTIVES[name]


def test_cost_vector_matches_legacy_tuples():
    point = EvaluatedPoint(
        config=ArchConfig(num_buses=1), area=7.5, cycles=40, test_cost=9
    )
    two = resolve_objectives(("area", "cycles"))
    three = resolve_objectives(("area", "cycles", "test_cost"))
    assert cost_vector(point, two) == (7.5, 40.0)
    assert cost_vector(point, three) == (7.5, 40.0, 9.0)


# ----------------------------------------------------------------------
# strategy registry
# ----------------------------------------------------------------------
def test_strategy_registry_seeded():
    assert {
        "exhaustive", "iterative", "random", "simulated_annealing"
    } <= set(strategy_names())
    assert "budget" in strategy_by_name("random").params
    assert "seed" in strategy_by_name("simulated_annealing").params
    with pytest.raises(KeyError, match="unknown strategy"):
        strategy_by_name("nope")


def test_simulated_annealing_deterministic_and_bounded():
    workload = build_gcd_ir(252, 105)
    kwargs = dict(
        strategy="simulated_annealing",
        strategy_params={"max_evaluations": 10, "seed": 3},
    )
    first = run_search(workload, small_space(), **kwargs)
    second = run_search(workload, small_space(), **kwargs)
    assert _fingerprint(first.points) == _fingerprint(second.points)
    assert first.evaluations <= 10
    assert first.iterations >= first.evaluations
    # bounded by the declared space
    space_labels = {c.label() for c in small_space()}
    assert {p.label for p in first.points} <= space_labels
    # every evaluated point agrees with the full sweep
    full = {p.label: (p.area, p.cycles) for p in _full_sweep()}
    for p in first.points:
        assert full[p.label] == (p.area, p.cycles)
    # parameter validation
    with pytest.raises(ValueError, match="cooling"):
        run_search(
            workload, small_space(),
            strategy="simulated_annealing",
            strategy_params={"cooling": 1.5},
        )


def test_simulated_annealing_study_end_to_end():
    result = run_study(
        StudySpec(
            name="sa", workloads=("gcd",), space="small",
            strategy="simulated_annealing",
            strategy_params={"max_evaluations": 8, "seed": 0},
        )
    )
    assert result.single.evaluations <= 8
    assert result.pareto


def test_strategy_rejects_unknown_params():
    workload = build_gcd_ir(24, 18)
    with pytest.raises(ValueError, match="accepts"):
        run_search(
            workload, small_space()[:1],
            strategy="exhaustive", strategy_params={"bogus": 1},
        )
    # spec validation catches the same mistake before anything runs
    with pytest.raises(ValueError, match="accepts"):
        StudySpec(
            name="x", workloads=("gcd",),
            strategy="random", strategy_params={"bogus": 1},
        ).validate()


def test_register_custom_strategy():
    name = "_test_first_only"
    try:
        register_strategy(
            name,
            lambda job: strategies_module.SearchOutcome(
                points=job.evaluate_many(job.space[:1]), evaluations=1
            ),
            "evaluate only the first configuration",
        )
        outcome = run_search(
            build_gcd_ir(24, 18), small_space(), strategy=name
        )
        assert len(outcome.points) == 1
    finally:
        del strategies_module._STRATEGIES[name]


# ----------------------------------------------------------------------
# spec round-trip
# ----------------------------------------------------------------------
def test_study_spec_round_trip():
    spec = StudySpec(
        name="s",
        workloads=("gcd", "crypt"),
        space="small",
        width=16,
        objectives=("area", "cycles", "test_cost"),
        strategy="random",
        strategy_params={"budget": 6, "seed": 3},
        select=True,
        weights=(2.0, 1.0, 1.0),
        tech="low_power",
    )
    assert StudySpec.from_json(spec.to_json()) == spec
    assert spec.params == {"budget": 6, "seed": 3}
    assert spec.space_label == "small"
    assert StudySpec.from_json(spec.to_json()).tech == "low_power"


def test_study_spec_inline_space_round_trip():
    configs = (
        ArchConfig(num_buses=1),
        ArchConfig(num_buses=2, num_alus=2, rfs=(RFConfig(8), RFConfig(12))),
    )
    spec = StudySpec(name="inline", workloads="gcd", space=configs)
    assert spec.workloads == ("gcd",)          # str convenience form
    assert spec.space_label == "inline"
    assert spec.resolve_space() == list(configs)
    round_tripped = StudySpec.from_json(spec.to_json())
    assert round_tripped == spec
    assert round_tripped.resolve_space() == list(configs)
    # the JSON holds the literal configs, not a name
    assert isinstance(json.loads(spec.to_json())["space"], list)


def test_study_spec_seeds_param_round_trips():
    """Config-valued strategy params (iterative seeds) survive JSON."""
    from repro.explore import default_seeds

    spec = StudySpec(
        name="seeded", workloads=("gcd",), space="small",
        strategy="iterative",
        strategy_params={"seeds": default_seeds(), "max_evaluations": 10},
    )
    round_tripped = StudySpec.from_json(spec.to_json())
    assert round_tripped == spec
    # and the strategy coerces the dict form back into configs
    result = run_study(round_tripped)
    assert result.single.evaluations <= 10
    assert result.points
    with pytest.raises(ValueError, match="not JSON-serialisable"):
        StudySpec(
            name="bad", workloads=("gcd",),
            strategy_params={"fn": lambda: None},
        )


def test_study_spec_validation():
    with pytest.raises(ValueError, match="workload"):
        StudySpec(name="x", workloads=())
    with pytest.raises(ValueError, match="name"):
        StudySpec(name="", workloads=("gcd",))
    with pytest.raises(ValueError, match="width"):
        StudySpec(name="x", workloads=("gcd",), width=0)
    with pytest.raises(ValueError, match="objective"):
        StudySpec(name="x", workloads=("gcd",), objectives=())
    with pytest.raises(ValueError, match="inline space"):
        StudySpec(name="x", workloads=("gcd",), space=())
    for bad in (
        dict(workloads=("nope",)),
        dict(workloads=("gcd",), space="nope"),
        dict(workloads=("gcd",), objectives=("nope",)),
        dict(workloads=("gcd",), strategy="nope"),
        dict(workloads=("gcd",), tech="nope"),
    ):
        with pytest.raises(KeyError, match="unknown"):
            StudySpec(name="x", **bad).validate()


# ----------------------------------------------------------------------
# the acceptance equivalence: Study == the raw pipeline, point for point
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workload_name,space_name,builder,space_builder",
    [
        ("gcd", "small", lambda: build_gcd_ir(252, 105), small_space),
        (
            "fir",
            "dsp",
            lambda: build_fir_ir(
                [10, 64, 23, 99, 5, 31, 77, 42, 18, 63, 11, 90],
                [3, 7, 1, 5],
            ),
            dsp_space,
        ),
    ],
)
def test_study_matches_reference_flow(
    workload_name, space_name, builder, space_builder
):
    """Study(exhaustive) == raw sweep + attach_test_costs + select."""
    points = _reference_sweep(builder(), space_builder())
    front2d = _reference_front(points)
    attach_test_costs(front2d)
    front3d = pareto_filter(
        front2d, key=lambda p: (p.area, p.cycles, p.test_cost)
    )
    reference_best = select_architecture(front3d)

    result = run_study(
        StudySpec(
            name="equiv",
            workloads=(workload_name,),
            space=space_name,
            objectives=("area", "cycles", "test_cost"),
            select=True,
        )
    )
    run = result.single
    # same points, in space order
    assert _fingerprint(run.result.points) == _fingerprint(points)
    # same 2-D and full-objective Pareto fronts
    assert [
        p.label for p in pareto_front(run.result.points, ("area", "cycles"))
    ] == [p.label for p in front2d]
    assert [p.label for p in run.pareto] == [p.label for p in front3d]
    # same selected architecture, same norm
    assert run.selection is not None
    assert run.selection.point.label == reference_best.point.label
    assert run.selection.norm == pytest.approx(reference_best.norm)


def test_study_two_objectives_matches_reference_2d():
    points = _reference_sweep(build_gcd_ir(252, 105), small_space())
    result = run_study(
        StudySpec(name="2d", workloads=("gcd",), space="small")
    )
    assert _fingerprint(result.points) == _fingerprint(points)
    assert [p.label for p in result.pareto] == [
        p.label for p in _reference_front(points)
    ]


# ----------------------------------------------------------------------
# strategies: exhaustive property, random determinism, iterative parity
# ----------------------------------------------------------------------
_FULL_SWEEP: dict = {}


def _full_sweep():
    """The reference gcd/small sweep, computed once per session."""
    if not _FULL_SWEEP:
        _FULL_SWEEP["points"] = _reference_sweep(
            build_gcd_ir(252, 105), small_space()
        )
    return _FULL_SWEEP["points"]


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=11),
        min_size=1, max_size=12, unique=True,
    )
)
def test_exhaustive_strategy_reproduces_reference_sweep(indices):
    """Property: on any sub-space of small_space, the exhaustive
    strategy returns exactly the reference pipeline's points, in
    order."""
    space = small_space()
    subset = [space[i] for i in indices]
    outcome = run_search(
        build_gcd_ir(252, 105), subset, strategy="exhaustive"
    )
    expected = [_full_sweep()[i] for i in indices]
    assert [(p.label, p.area, p.cycles) for p in outcome.points] == [
        (p.label, p.area, p.cycles) for p in expected
    ]
    assert outcome.evaluations == len(subset)


def test_random_strategy_deterministic_and_subset():
    workload = build_gcd_ir(252, 105)
    kwargs = dict(strategy="random", strategy_params={"budget": 5, "seed": 7})
    first = run_search(workload, small_space(), **kwargs)
    second = run_search(workload, small_space(), **kwargs)
    assert _fingerprint(first.points) == _fingerprint(second.points)
    assert len(first.points) == 5
    # every sampled point exists, identically, in the full sweep
    full = {(p.label): (p.area, p.cycles) for p in _full_sweep()}
    for p in first.points:
        assert full[p.label] == (p.area, p.cycles)
    # a different seed gives a different (but still valid) sample
    other = run_search(
        workload, small_space(),
        strategy="random", strategy_params={"budget": 5, "seed": 8},
    )
    assert {p.label for p in other.points} != {
        p.label for p in first.points
    } or _fingerprint(other.points) == _fingerprint(first.points)


def test_random_strategy_budget_clamps_and_validates():
    workload = build_gcd_ir(24, 18)
    outcome = run_search(
        workload, small_space(),
        strategy="random", strategy_params={"budget": 999},
    )
    assert len(outcome.points) == len(small_space())
    with pytest.raises(ValueError, match="budget"):
        run_search(
            workload, small_space(),
            strategy="random", strategy_params={"budget": 0},
        )


def test_iterative_strategy_points_exist_in_reference_sweep():
    """Every point the unbounded neighbourhood search evaluates agrees
    with the reference pipeline's evaluation of the same config."""
    fn = build_gcd_ir(252, 105)
    outcome = run_search(
        fn, [], strategy="iterative",
        strategy_params={"max_evaluations": 40},
    )
    assert outcome.evaluations <= 40
    assert outcome.frontier_history
    context = EvaluationContext(
        fn, IRInterpreter(fn, width=16).run().block_counts, 16
    )
    for point in outcome.points[:5]:
        direct = context.evaluate(point.config)
        assert (point.area, point.cycles) == (direct.area, direct.cycles)


def test_iterative_study_is_bounded_by_its_space():
    """With a declared space the walk never leaves it (the legacy
    shim's empty space keeps the unbounded neighbourhood search)."""
    result = run_study(
        StudySpec(
            name="bounded", workloads=("gcd",), space="small",
            strategy="iterative", strategy_params={"max_evaluations": 80},
        )
    )
    run = result.single
    space_labels = {c.label() for c in small_space()}
    assert {p.label for p in run.result.points} <= space_labels
    assert run.evaluations <= len(small_space()) <= run.stats.total


def test_workload_profile_cache_not_stale_after_reregistration():
    """Re-registering a workload name must invalidate its cached
    profile (the cache keys on the registry entry, not the name)."""
    from repro.apps.registry import _REGISTRY, register_workload
    from repro.study import workload_profile

    name = "_test_profile_cache"
    try:
        register_workload(name, lambda: build_gcd_ir(48, 18))
        first = workload_profile(name, 16)
        register_workload(name, lambda: build_gcd_ir(1071, 462))
        second = workload_profile(name, 16)
        assert first != second
        from repro.compiler.interp import IRInterpreter as Interp

        fresh = Interp(build_gcd_ir(1071, 462), width=16).run().block_counts
        assert second == fresh
        # repeated lookups are served from cache (same value, fresh dict)
        again = workload_profile(name, 16)
        assert again == second and again is not second
    finally:
        del _REGISTRY[name]


def test_evaluator_reuses_one_context_across_batches():
    from repro.compiler.interp import IRInterpreter
    from repro.study import CachedEvaluator

    workload = build_workload("gcd")
    profile = IRInterpreter(workload, width=16).run().block_counts
    evaluator = CachedEvaluator("gcd", workload, profile, 16)
    evaluator.evaluate_many(small_space()[:2])
    context = evaluator._context
    assert context is not None
    evaluator.evaluate_many(small_space()[2:4])
    assert evaluator._context is context


def test_study_spec_hashable_and_weights_checked():
    from repro.explore import default_seeds

    spec = StudySpec(
        name="h", workloads=("gcd",), strategy="iterative",
        strategy_params={"seeds": default_seeds()},
    )
    assert hash(spec) == hash(StudySpec.from_json(spec.to_json()))
    with pytest.raises(ValueError, match="weights"):
        StudySpec(
            name="w", workloads=("gcd",),
            objectives=("area", "cycles", "test_cost"),
            weights=(1.0, 2.0),
        )


def test_study_iterative_and_random_run_end_to_end():
    iterative = run_study(
        StudySpec(
            name="it", workloads=("gcd",), space="small",
            strategy="iterative", strategy_params={"max_evaluations": 20},
        )
    )
    assert iterative.single.evaluations <= 20
    assert iterative.single.iterations >= 1
    assert iterative.pareto

    sampled = run_study(
        StudySpec(
            name="rnd", workloads=("gcd",), space="small",
            strategy="random", strategy_params={"budget": 4, "seed": 0},
        )
    )
    assert len(sampled.points) == 4


# ----------------------------------------------------------------------
# cache sharing: a study resumes another study's (and campaign's) work
# ----------------------------------------------------------------------
def test_studies_share_result_cache(tmp_path):
    cache = ResultCache(tmp_path)
    spec = StudySpec(name="c", workloads=("gcd",), space="small")
    first = run_study(spec, cache=cache)
    assert first.single.stats.evaluated == 12
    assert first.single.stats.cache_hits == 0
    second = run_study(spec, cache=cache)
    assert second.single.stats.evaluated == 0
    assert second.single.stats.cache_hits == 12
    assert _fingerprint(second.points) == _fingerprint(first.points)
    # a random study over the same space is served from the same cache
    sampled = run_study(
        StudySpec(
            name="r", workloads=("gcd",), space="small",
            strategy="random", strategy_params={"budget": 6, "seed": 1},
        ),
        cache=cache,
    )
    assert sampled.single.stats.evaluated == 0
    assert sampled.single.stats.cache_hits == 6


def test_multi_workload_study_and_report(tmp_path):
    from repro.reporting import study_to_dict, study_to_json

    result = run_study(
        StudySpec(
            name="multi", workloads=("gcd", "checksum"), space="small",
            select=True,
        )
    )
    assert len(result.runs) == 2
    assert result.run("gcd/small/w16").workload == "gcd"
    with pytest.raises(KeyError):
        result.run("nope")
    with pytest.raises(ValueError, match="2 runs"):
        result.single
    assert "study 'multi'" in result.summary()

    data = study_to_dict(result)
    assert data["spec"]["workloads"] == ["gcd", "checksum"]
    assert len(data["runs"]) == 2
    assert data["runs"][0]["selection"] is not None
    # the JSON is a valid document and carries the point tables
    parsed = json.loads(study_to_json(result))
    assert len(parsed["runs"][0]["points"]) == 12


def test_study_progress_lines():
    lines = []
    run_study(
        StudySpec(name="p", workloads=("gcd",), space="small"),
        progress=lines.append,
    )
    assert any("gcd/small/w16" in line for line in lines)


# ----------------------------------------------------------------------
# the legacy shims are gone (satellite): the names no longer resolve
# ----------------------------------------------------------------------
def test_legacy_shims_removed():
    import inspect
    import pkgutil

    import repro
    import repro.campaign
    import repro.explore
    import repro.explore.evaluate as evaluate_module
    import repro.explore.explorer as explorer_module
    import repro.explore.iterative as iterative_module
    import repro.study.engine as engine_module
    from repro.__main__ import main

    # "explore" survives only as the subpackage, never as a callable
    assert "explore" not in repro.__all__
    assert "iterative_explore" not in repro.__all__
    assert not hasattr(repro, "iterative_explore")
    for module, name in (
        (repro.explore, "iterative_explore"),
        (repro.explore, "evaluate_space"),
        (repro.explore, "IterativeResult"),
        (explorer_module, "explore"),
        (iterative_module, "iterative_explore"),
        (evaluate_module, "evaluate_space"),
        (evaluate_module, "evaluate_config"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not callable(getattr(repro.explore, "explore", None))

    # One exploration engine: the campaign runner and its spec, the
    # compile-only bench and their front doors are gone; the campaign
    # package is just the result cache.
    assert [n for n in dir(repro) if "campaign" in n.lower()] == ["campaign"]
    assert repro.campaign.__all__ == [
        "CacheStats", "ResultCache", "cache_key", "default_cache_dir",
    ]
    def submodules(package):
        return {m.name for m in pkgutil.iter_modules(package.__path__)}

    assert submodules(repro.campaign) == {"cache"}
    assert "bench" not in submodules(repro)
    for command in ("explore", "campaign", "bench"):
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2, command

    # One evaluate body and one pool worker; the cache codec is a plain
    # import, and the timing validator always runs.
    for owner in (evaluate_module, evaluate_module.EvaluationContext):
        assert not [n for n in dir(owner) if "metered" in n], owner
    assert not [n for n in vars(engine_module) if "codec" in n]
    assert "validate" not in inspect.signature(
        evaluate_module.EvaluationContext
    ).parameters

    # One front function and one sweep surface: every front goes
    # through pareto_front, every sweep through Study or run_search.
    import repro.energy.attach as attach_module
    import repro.explore.selection as selection_module
    import repro.study

    for module, name in (
        (repro.study, "run_exploration"),
        (repro.study, "evaluate_configs"),
        (engine_module, "run_exploration"),
        (engine_module, "evaluate_configs"),
        (explorer_module.ExplorationResult, "pareto2d"),
        (explorer_module.ExplorationResult, "pareto3d"),
        (explorer_module.ExplorationResult, "summary"),
        (evaluate_module.EvaluatedPoint, "cost2d"),
        (evaluate_module.EvaluatedPoint, "cost3d"),
        (evaluate_module.EvaluationContext, "evaluate_space"),
        (attach_module, "_ENERGY_CACHE"),
        (repro.campaign.ResultCache, "_locate"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "use_test_cost" not in inspect.signature(
        selection_module.select_architecture
    ).parameters
    search_params = inspect.signature(engine_module.run_search).parameters
    assert "profile" not in search_params
    assert "initial_regs" not in search_params

    # One resume path: strategies replay through the checkpoint overlay,
    # so no strategy state is saved and the RNG-state codec is gone.
    import dataclasses

    import repro.resilience
    from repro.resilience import CheckpointManager

    for module, name in (
        (repro.resilience, "rng_state_to_json"),
        (repro.resilience, "rng_state_from_json"),
        (CheckpointManager, "set_strategy_state"),
        (CheckpointManager, "strategy_state"),
        (CheckpointManager, "failures"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    job_fields = {f.name for f in dataclasses.fields(repro.study.SearchJob)}
    assert not job_fields & {
        "save_state", "resume_state", "workload", "profile", "width",
    }

    # One instrument path: each layer exports its numbers once — a
    # study's through the trace, the server's through the metrics op.
    import repro.telemetry
    from repro.service import ServiceClient, protocol

    for module, name in (
        (repro.telemetry, "merge_histogram_snapshots"),
        (ServiceClient, "stats"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert "stats" not in protocol.OPS

    # One evaluation stream: serial and pool fan-out end the same way
    # (StudyInterrupted), with no pass-through layer in between; the
    # serial backoff is a constant and the simulator's dead knobs are
    # gone.
    import repro.resilience.isolation as isolation_module
    from repro.resilience import FailedPoint, FaultPolicy
    from repro.tta.simulator import TTASimulator

    for module, name in (
        (repro.resilience, "SweepInterrupted"),
        (isolation_module, "SweepInterrupted"),
        (engine_module, "iter_evaluations"),
        (FaultPolicy, "from_dict"),
        (FaultPolicy, "to_dict"),
        (FailedPoint, "from_dict"),
        (TTASimulator, "trace_listing"),
    ):
        assert not hasattr(module, name), f"{module.__name__}.{name}"
    policy_fields = {f.name for f in dataclasses.fields(FaultPolicy)}
    assert not policy_fields & {"backoff", "backoff_factor"}
    sim_params = inspect.signature(TTASimulator).parameters
    assert not set(sim_params) & {"trace", "dmem_words"}
    for argv in (
        ["study", "--metrics-out", "x"],
        ["energy", "gcd", "--metrics-out", "x"],
        ["jobs", "--server", "s", "--stats"],
        # One point report: ``rtl calibrate`` prints the energy
        # breakdown, so the ``energy`` subcommand is gone.
        ["energy", "gcd", "--space", "small"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


# ----------------------------------------------------------------------
# selection over arbitrary objective vectors
# ----------------------------------------------------------------------
def test_select_architecture_with_key():
    points = [
        EvaluatedPoint(config=ArchConfig(num_buses=1), area=10, cycles=100),
        EvaluatedPoint(config=ArchConfig(num_buses=2), area=50, cycles=50),
        EvaluatedPoint(config=ArchConfig(num_buses=3), area=100, cycles=10),
    ]
    objectives = resolve_objectives(("area", "cycles"))
    best = select_architecture(
        points,
        weights=(1.0, 1.0),
        key=lambda p: cost_vector(p, objectives),
    )
    assert best.point is points[1]
    # weights steer custom vectors too
    area_heavy = select_architecture(
        points, weights=(10.0, 1.0),
        key=lambda p: cost_vector(p, objectives),
    )
    assert area_heavy.point is points[0]


# ----------------------------------------------------------------------
# code_size objective + RTL calibration post-pass
# ----------------------------------------------------------------------
def test_code_size_monotone_in_width():
    """Instruction-memory bits grow with datapath width on a fixed
    config: wider immediates can only widen the move slots."""
    from repro.explore import EvaluationContext
    from repro.study.engine import workload_profile

    config = small_space()[5]
    sizes = []
    for width in (8, 16, 32):
        workload = build_workload("gcd")
        profile = workload_profile("gcd", width)
        point = EvaluationContext(workload, profile, width).evaluate(config)
        assert point.feasible and point.code_size is not None
        # the objective is exactly the encoder's footprint
        encoder_bits = point.code_size
        assert encoder_bits > 0 and encoder_bits % 1 == 0
        sizes.append(encoder_bits)
    assert sizes[0] < sizes[1] < sizes[2]


def test_code_size_objective_gated_and_selectable():
    obj = objective_by_name("code_size")
    result = run_study(StudySpec(
        name="code-size", workloads=("gcd",), space="small",
        objectives=("area", "cycles", "code_size"),
    ))
    front = result.single.pareto
    assert front
    for point in front:
        assert obj.available(point)
        assert obj.measure(point) == float(point.code_size)
    # infeasible points never expose a footprint
    for point in result.single.result.points:
        if not point.feasible:
            assert point.code_size is None
            assert not obj.available(point)


def test_study_calibrate_front_audits_base_front():
    """calibrate_front=True runs the RTL audit over the base-objective
    front and records one passing report per front point."""
    result = run_study(
        StudySpec(
            name="calibrated", workloads=("gcd",), space="small",
            objectives=("area", "cycles"),
        ),
        calibrate_front=True,
    )
    run = result.single
    assert run.calibrations
    assert len(run.calibrations) == len(run.pareto)
    labels = {p.label for p in run.pareto}
    for report in run.calibrations:
        assert report.ok
        assert report.cycles_delta == 0
        assert report.config in labels


def test_energy_and_calibration_share_one_simulation(monkeypatch):
    """With an energy objective and calibration, each base-front point
    is simulated once: the energy axis reads the calibration's run and
    gets exactly the energies an uncalibrated study attaches."""
    from repro.tta.simulator import TTASimulator

    spec = StudySpec(
        name="shared-sim", workloads=("gcd",), space="small",
        objectives=("area", "cycles", "energy"),
    )
    plain = {p.label: p.energy for p in run_study(spec).single.pareto}

    calls = []
    original = TTASimulator.run

    def counted(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TTASimulator, "run", counted)
    run = run_study(spec, calibrate_front=True).single
    assert run.calibrations
    assert len(calls) == len(run.calibrations)
    assert {p.label: p.energy for p in run.pareto} == plain
