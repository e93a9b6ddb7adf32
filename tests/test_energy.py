"""The energy subsystem: activity tracing, model, objectives, cache.

Covers the PR's acceptance invariants: toggle counts on a pinned
program equal hand-computed Hamming distances; tracing is exactly
zero-overhead-path equivalent (same ``SimResult``) on vs off; energy is
monotone in datapath width for a fixed workload; the component-level
breakdown sums to the reported total; and the ``energy``/``edp``
objectives run end-to-end through the study engine — cache path and
pool path included.
"""

import multiprocessing

import pytest

from repro.apps import build_gcd_ir
from repro.apps.registry import build_workload
from repro.campaign import ResultCache
from repro.compiler.interp import IRInterpreter
from repro.compiler.scheduler import compile_ir
from repro.energy import (
    EnergyModel,
    TechnologyParameters,
    attach_energy,
    energy_breakdown_of,
    energy_report,
    format_energy_report,
    register_technology,
    technology_by_name,
    technology_names,
)
from repro.energy.model import _TECHNOLOGIES
from repro.energy.report import breakdown_from_trace
from repro.explore import ArchConfig, RFConfig, build_architecture
from repro.explore.space import dsp_space, small_space, space_by_name
from repro.study import StudySpec, objective_by_name, pareto_front, run_study
from repro.telemetry import Tracer, load_trace, summarize_trace
from repro.telemetry.summarize import format_trace_summary
from repro.tta.activity import ActivityTrace, hamming
from repro.tta.arch import Architecture, UnitInstance
from repro.tta.isa import Instruction, Literal, Move, PortRef, Program
from repro.tta.simulator import TTASimulator
from repro.components.library import alu_spec, imm_spec, pc_spec, rf_spec


# ----------------------------------------------------------------------
# pinned program: toggle counts equal hand-computed Hamming distances
# ----------------------------------------------------------------------
def _tiny_arch(width=16, num_buses=1):
    units = [
        UnitInstance("alu0", alu_spec(width)),
        UnitInstance("rf0", rf_spec(4, width)),
        UnitInstance("pc", pc_spec(width)),
        UnitInstance("imm0", imm_spec(width)),
    ]
    return Architecture(
        name="tiny", width=width, num_buses=num_buses, units=units
    )


def test_pinned_program_hamming_counts():
    """lit 0x0F -> alu.a ; lit 0x33 -> alu.b:add ; alu.y -> rf0[1]."""
    arch = _tiny_arch()
    program = Program(name="pinned")
    program.append(Instruction(
        slots=[Move(src=Literal(0x0F), dst=PortRef("alu0", "a"))]
    ))
    program.append(Instruction(
        slots=[Move(src=Literal(0x33), dst=PortRef("alu0", "b"),
                    opcode="add")]
    ))
    program.append(Instruction(slots=[None]))       # result lands
    program.append(Instruction(
        slots=[Move(src=PortRef("alu0", "y"), dst=PortRef("rf0", "w0"),
                    dst_reg=1)],
        halt=True,
    ))
    sim = TTASimulator(arch, program, activity=True)
    result = sim.run()
    assert result.halted
    act = sim.activity

    # Bus value sequence: 0 -> 0x0F -> 0x33 -> 0x42 (the add result).
    expected_bus = (
        hamming(0, 0x0F) + hamming(0x0F, 0x33) + hamming(0x33, 0x42)
    )
    assert act.bus_toggles == {0: expected_bus}
    assert act.bus_transports == {0: 3}

    # Port registers start at 0.
    assert act.port_toggles[("alu0", "a")] == hamming(0, 0x0F)
    assert act.port_toggles[("alu0", "b")] == hamming(0, 0x33)
    assert act.port_toggles[("alu0", "y")] == hamming(0, 0x42)

    # One RF write of 0x42 into a zeroed cell, no reads.
    assert act.rf_writes == {"rf0": 1}
    assert act.rf_write_toggles == {"rf0": hamming(0, 0x42)}
    assert act.rf_reads == {}

    # One trigger; four fetched words with pairwise Hamming distances.
    assert act.fu_activations == {"alu0": 1}
    assert act.fetch_words == 4
    from repro.tta.encoding import MoveEncoder

    words = MoveEncoder(arch).encode_program(program)
    expected_fetch = hamming(0, words[0]) + sum(
        hamming(a, b) for a, b in zip(words, words[1:])
    )
    assert act.fetch_toggles == expected_fetch

    # Socket transports: alu inputs, alu output, rf write port.
    assert act.socket_transports == {
        ("alu0", "a"): 1, ("alu0", "b"): 1,
        ("alu0", "y"): 1, ("rf0", "w0"): 1,
    }
    assert act.cycles == result.cycles


def test_guarded_move_drives_nothing():
    """A squashed move must toggle no bus, port or socket."""
    from repro.tta.isa import Guard

    arch = _tiny_arch()
    program = Program(name="squash")
    program.append(Instruction(
        slots=[Move(src=Literal(0x7F), dst=PortRef("alu0", "a"),
                    guard=Guard(0))],     # g0 == 0 -> squashed
        halt=True,
    ))
    sim = TTASimulator(arch, program, activity=True)
    result = sim.run()
    assert result.moves_squashed == 1
    act = sim.activity
    assert act.bus_toggles == {} and act.port_toggles == {}
    assert act.socket_transports == {}
    assert act.fetch_words == 1          # the word still fetches


# ----------------------------------------------------------------------
# tracing on vs off: exactly the same simulation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["gcd", "checksum", "crc16"])
def test_activity_tracing_is_result_equivalent(name):
    workload = build_workload(name)
    profile = IRInterpreter(workload, width=16).run().block_counts
    arch = build_architecture(small_space()[5], 16)
    compiled = compile_ir(workload, arch, profile=profile)

    plain = TTASimulator(arch, compiled.program)
    traced = TTASimulator(arch, compiled.program, activity=True)
    a, b = plain.run(), traced.run()
    assert (a.cycles, a.halted, a.reason) == (b.cycles, b.halted, b.reason)
    assert (a.moves_executed, a.moves_squashed, a.triggers) == (
        b.moves_executed, b.moves_squashed, b.triggers
    )
    # architectural state agrees too
    assert plain.dmem == traced.dmem
    assert plain.guards == traced.guards
    assert plain.activity is None and traced.activity is not None
    # every executed move is a transport
    assert traced.activity.total_transports == b.moves_executed


# ----------------------------------------------------------------------
# the model: breakdown sums, monotonicity, technology registry
# ----------------------------------------------------------------------
def _gcd_breakdown(width, config=None):
    workload = build_gcd_ir(252, 105)
    profile = IRInterpreter(workload, width=width).run().block_counts
    config = config or small_space()[0]
    arch = build_architecture(config, width)
    compiled = compile_ir(workload, arch, profile=profile)
    return energy_report(arch, compiled.program)


def test_breakdown_sums_to_total():
    breakdown = _gcd_breakdown(16)
    assert breakdown.total == pytest.approx(
        sum(e.energy for e in breakdown.entries)
    )
    assert breakdown.total > 0
    assert breakdown.dynamic < breakdown.total
    for category in ("bus", "fu", "rf", "fetch", "leakage"):
        assert breakdown.category_total(category) >= 0
    assert breakdown.category_total("bus") > 0
    assert breakdown.entry("fetch").toggles > 0
    assert breakdown.edp == pytest.approx(
        breakdown.total * breakdown.cycles
    )
    text = format_energy_report(breakdown)
    assert "bus0" in text and "leakage" in text and "share" in text


def test_energy_monotone_in_width():
    """Wider datapaths move more bits per event: energy must rise."""
    totals = [_gcd_breakdown(w).total for w in (8, 16, 32)]
    assert totals[0] < totals[1] < totals[2]


def test_unhalted_program_raises():
    arch = _tiny_arch()
    program = Program(name="spin")
    program.append(Instruction(
        slots=[Move(src=Literal(0), dst=PortRef("pc", "target"),
                    opcode="jump")]
    ))
    program.append(Instruction(slots=[None]))
    with pytest.raises(ValueError, match="no halt"):
        energy_report(arch, program, max_cycles=100)


def test_technology_registry():
    assert {"default", "low_power"} <= set(technology_names())
    default = technology_by_name("default")
    low = technology_by_name("low_power")
    assert default.fingerprint() != low.fingerprint()
    # same content -> same fingerprint; changed content -> changed tag
    assert default.fingerprint() == TechnologyParameters().fingerprint()
    with pytest.raises(KeyError, match="unknown technology"):
        technology_by_name("nope")

    name = "_test_corner"
    try:
        register_technology(TechnologyParameters(
            name=name, cap_per_area=0.1, leakage_per_area=0.0
        ))
        assert name in technology_names()
        breakdown = _gcd_breakdown(16)
        workload = build_gcd_ir(252, 105)
        profile = IRInterpreter(workload, width=16).run().block_counts
        arch = build_architecture(small_space()[0], 16)
        compiled = compile_ir(workload, arch, profile=profile)
        corner = energy_report(
            arch, compiled.program, tech=technology_by_name(name)
        )
        assert corner.total < breakdown.total
        assert corner.category_total("leakage") == 0.0
    finally:
        del _TECHNOLOGIES[name]


def test_energy_model_weight_structure():
    arch = build_architecture(small_space()[0], 16)
    model = EnergyModel(arch, technology_by_name("default"))
    assert model.leakage_per_cycle > 0
    assert model.bus_toggle(0) > 0
    # input toggles ripple through the core; result toggles only flip
    # the pipeline register — the former must dominate for an ALU
    assert model.port_toggle("alu0", "a") > model.port_toggle("alu0", "y")
    assert model.rf_write_toggle("rf0") > model.rf_read_toggle("rf0")


# ----------------------------------------------------------------------
# attach pass + objectives + cache + pool
# ----------------------------------------------------------------------
def test_attach_energy_simulates_each_same_named_workload():
    """Two IR builds sharing a name each get their own program's energy."""
    from repro.explore import EvaluationContext

    config = small_space()[0]
    energies = []
    for args in ((252, 105), (24, 18)):
        workload = build_gcd_ir(*args)        # both named "gcd"
        profile = IRInterpreter(workload, width=16).run().block_counts
        context = EvaluationContext(workload, profile, 16)
        point = context.evaluate(config)
        attach_energy([point], workload, context=context)
        energies.append(point.energy)
    assert energies[0] != energies[1]


def test_cache_put_merges_post_pass_axes(tmp_path):
    """A study computing one post-pass axis must not erase the other
    axis's persisted value from a shared result cache."""
    from repro.energy import technology_by_name

    cache = ResultCache(tmp_path)
    base = dict(name="m", workloads=("gcd",), space="small")
    march = "March C-"
    tag = technology_by_name("default").fingerprint()
    test_run = run_study(
        StudySpec(**base, objectives=("area", "cycles", "test_cost")),
        cache=cache,
    )
    costed = [p for p in test_run.points if p.test_cost is not None]
    assert costed
    # an energy-only study over the same cache rewrites those entries
    energy_run = run_study(
        StudySpec(**base, objectives=("area", "cycles", "energy")),
        cache=cache,
    )
    # the march-keyed test costs must still be on disk, unchanged
    for p in costed:
        stored = cache.get("gcd", p.config, 16, march=march)
        assert stored is not None and stored.test_cost == p.test_cost
    # and symmetrically, a test-cost study must not wipe the energies
    run_study(
        StudySpec(**base, objectives=("area", "cycles", "test_cost")),
        cache=cache,
    )
    for p in energy_run.pareto:
        stored = cache.get("gcd", p.config, 16, energy_model=tag)
        assert stored is not None and stored.energy == p.energy


def test_attach_energy_skips_infeasible_and_annotated():
    workload = build_gcd_ir(252, 105)
    from repro.explore import EvaluatedPoint

    infeasible = EvaluatedPoint(
        config=ArchConfig(num_buses=1), area=1.0, cycles=None
    )
    pre_annotated = EvaluatedPoint(
        config=ArchConfig(num_buses=1), area=1.0, cycles=10, energy=42.0
    )
    attach_energy([infeasible, pre_annotated], workload)
    assert infeasible.energy is None
    assert pre_annotated.energy == 42.0


def test_objectives_registered_and_gated():
    energy = objective_by_name("energy")
    edp = objective_by_name("edp")
    assert energy.requires_energy and edp.requires_energy
    assert energy.needs_post_pass and not energy.requires_test_costs
    from repro.explore import EvaluatedPoint

    bare = EvaluatedPoint(config=ArchConfig(num_buses=1), area=1.0, cycles=10)
    assert not energy.available(bare)
    bare.energy = 5.0
    assert energy.available(bare)
    assert edp.measure(bare) == pytest.approx(50.0)


@pytest.mark.parametrize("space", ["small", "dsp"])
def test_energy_study_end_to_end(space, tmp_path):
    """(cycles, area, energy) study over cache and pool paths."""
    workload = "gcd" if space == "small" else "fir"
    cache = ResultCache(tmp_path)
    spec = StudySpec(
        name="energy3d",
        workloads=(workload,),
        space=space,
        objectives=("cycles", "area", "energy"),
        select=True,
    )
    first = run_study(spec, cache=cache)
    front = first.pareto
    assert len(front) >= 2, "non-degenerate 3-D front"
    assert all(p.energy is not None for p in front)
    assert len({p.energy for p in front}) > 1
    assert first.selection is not None

    # cache path: same front, zero evaluations, energies restored
    second = run_study(spec, cache=cache)
    assert second.single.stats.evaluated == 0
    assert [
        (p.label, p.energy) for p in second.pareto
    ] == [(p.label, p.energy) for p in front]

    # pool path: identical results through the process pool
    pooled = run_study(spec, workers=2)
    assert [
        (p.label, p.energy) for p in pooled.pareto
    ] == [(p.label, p.energy) for p in front]


def test_energy_study_counts_simulated_cycles(tmp_path):
    """A collected energy study counts its simulated cycles as
    ``sim_cycles`` (one traced simulation per energy), and ``trace
    summarize`` prints the counter."""
    path = tmp_path / "energy.jsonl"
    with Tracer(path) as tracer:
        run = run_study(
            StudySpec(
                name="sim-cycles", workloads=("gcd",), space="small",
                objectives=("cycles", "area", "energy"),
            ),
            tracer=tracer,
            collect_metrics=True,
        ).single
    simulated = [p for p in run.result.points if p.energy is not None]
    counters = run.stats.counters
    assert counters["energy_simulated"] == len(simulated) > 1
    workload = build_workload("gcd")
    expected = sum(energy_breakdown_of(p, workload).cycles for p in simulated)
    assert counters["sim_cycles"] == expected
    text = format_trace_summary(summarize_trace(load_trace(path)))
    assert f"sim_cycles={expected}" in text


def test_energy_study_counts_compiled_blocks(tmp_path):
    """crypt's hot block -- 149 instructions at this point, entered 400
    times -- compiles on its 15th entry (14 x 149 >= 2,048 interpreted
    instructions) and runs its other 386 entries as generated code; gcd's
    short blocks never compile.  The counters and the code-generation
    histogram reach ``trace summarize``."""
    config = next(
        c for c in space_by_name("crypt") if c.label() == "b4-alu3-16r2R2W"
    )
    path = tmp_path / "compiled.jsonl"
    with Tracer(path) as tracer:
        crypt, gcd = (
            run_study(
                StudySpec(
                    name=f"compiled-{workload}", workloads=(workload,),
                    space=space, width=8, objectives=("cycles", "area", "energy"),
                ),
                tracer=tracer,
                collect_metrics=True,
            ).single.stats
            for workload, space in (("crypt", (config,)), ("gcd", "small"))
        )
    counters = crypt.counters
    assert (
        counters["energy_simulated"], counters["sim_cycles"],
        counters["sim_compiled_blocks"], counters["sim_compiled_cycles"],
    ) == (1, 59882, 1, 386 * 149)
    assert crypt.histograms["sim_codegen_seconds"]["count"] == 1
    counters = gcd.counters
    assert counters["energy_simulated"] > 1
    assert counters["sim_compiled_blocks"] == counters["sim_compiled_cycles"] == 0
    assert gcd.histograms["sim_codegen_seconds"]["count"] == counters[
        "energy_simulated"
    ]
    text = format_trace_summary(summarize_trace(load_trace(path)))
    assert "sim_compiled_cycles=57514" in text
    assert "sim_codegen_seconds" in text


@pytest.mark.parametrize(
    "workload,calibrate,energy,primed",
    [
        pytest.param("gcd", False, True, False, id="gcd-False"),
        pytest.param("checksum", True, True, False, id="checksum-True"),
        pytest.param(
            "checksum", True, False, False,
            id="checksum-True-calibration-only",
        ),
        pytest.param(
            "gcd", True, True, True, id="gcd-True-energies-restored"
        ),
    ],
)
def test_pooled_post_pass_matches_serial(
    workload, calibrate, energy, primed, tmp_path, monkeypatch
):
    """At workers=2 the front's simulations (energy, or calibration
    when ``calibrate_front`` is set) fan out over the pool; points,
    front, selection, calibration reports, cache bytes, counters and
    histogram sample counts equal the serial run's.  The cases cover an
    energy study, a calibrated one, calibration without an energy axis,
    and a calibrated rerun whose energies all come from the cache."""
    from repro.study import Study, engine

    pooled = []
    real = engine.iter_pool_isolated

    def spy(items, fn, *args, **kwargs):
        task = fn.args[0]               # fn is run_worker_task bound to it
        if getattr(task, "func", None) is engine.simulate_point:
            pooled.append(len(items))
        return real(items, fn, *args, **kwargs)

    monkeypatch.setattr(engine, "iter_pool_isolated", spy)
    spec = StudySpec(
        name="pooled-post-pass", workloads=(workload,), space="small",
        objectives=("cycles", "area") + (("energy",) if energy else ()),
        select=True,
    )
    records = []
    for workers in (1, 2):
        root = tmp_path / f"workers{workers}"
        if primed:
            # Fills the cache with the front's energies, serially, so
            # the run below simulates for calibration only.
            Study(spec, cache=ResultCache(root)).run()
        run = Study(
            spec, cache=ResultCache(root), workers=workers,
            collect_metrics=True, calibrate_front=calibrate,
        ).run().single
        assert not multiprocessing.active_children(), "a worker outlived run()"
        records.append({
            "points": [
                (p.label, p.area, p.cycles, p.code_size, p.energy)
                for p in run.result.points
            ],
            "front": [p.label for p in run.pareto],
            "selection": run.selection.point.label,
            "calibrations": [r.to_dict() for r in run.calibrations],
            "cache": {
                str(path.relative_to(root)): path.read_bytes()
                for path in sorted(root.rglob("*")) if path.is_file()
            },
            "counters": run.stats.counters,
            "samples": {
                name: hist["count"]
                for name, hist in run.stats.histograms.items()
            },
        })
    base = pareto_front(run.result.points, ("cycles", "area"))
    assert len(base) > 2
    assert pooled == [len(base)], "only the workers=2 run pools its front"
    assert all((p.energy is not None) == energy for p in base)
    assert len(run.calibrations) == (len(base) if calibrate else 0)
    simulated = len(base) if energy and not primed else 0
    assert run.stats.counters.get("energy_simulated", 0) == simulated
    assert run.stats.post_pass_hits == (len(base) if primed else 0)
    serial, parallel = records
    for key in serial:
        assert parallel[key] == serial[key], key


def test_pooled_post_pass_fails_like_serial(tmp_path):
    """A front point whose simulation raises aborts the study with that
    exception's type and message, pooled or serial."""
    from repro.resilience import faults

    cache = ResultCache(tmp_path)
    base = dict(name="post-pass-fails", workloads=("gcd",), space="small")
    run = run_study(
        StudySpec(**base, objectives=("cycles", "area")), cache=cache
    ).single
    front = pareto_front(run.result.points, ("cycles", "area"))
    assert len(front) > 2
    energy = StudySpec(**base, objectives=("cycles", "area", "energy"))
    raised = []
    try:
        for workers in (1, 2):
            # The sweep is all cache hits: only the post-pass recompile
            # of the poisoned front point evaluates it.
            faults.install(
                faults.FaultPlan(kind="raise", label=front[1].label)
            )
            with pytest.raises(faults.InjectedFault) as info:
                run_study(energy, cache=cache, workers=workers)
            raised.append((type(info.value), str(info.value)))
    finally:
        faults.clear()
    assert raised[0] == raised[1] == (
        faults.InjectedFault, "injected fault (firing 1)"
    )


def test_energy_cache_keyed_by_technology(tmp_path):
    """A cached energy under one technology never leaks into another."""
    cache = ResultCache(tmp_path)
    base = dict(
        name="t", workloads=("gcd",), space="small",
        objectives=("cycles", "area", "energy"),
    )
    default = run_study(StudySpec(**base), cache=cache)
    low = run_study(StudySpec(**base, tech="low_power"), cache=cache)
    d = {p.label: p.energy for p in default.pareto}
    l = {p.label: p.energy for p in low.pareto}
    for label in set(d) & set(l):
        assert l[label] < d[label]


def test_edp_selects_single_point():
    result = run_study(
        StudySpec(
            name="edp", workloads=("gcd",), space="small",
            objectives=("edp",), select=True,
        )
    )
    assert len(result.pareto) == 1
    assert result.selection is not None
    assert result.selection.point is result.pareto[0]
    # the winner minimises energy * cycles over the feasible points
    feasible = [p for p in result.points if p.energy is not None]
    best = min(feasible, key=lambda p: p.energy * p.cycles)
    assert result.selection.point.label == best.label


def test_energy_front_is_staged():
    """Energy is attached on the base front only: off-front points keep
    energy=None, so a stray cached energy cannot change the front."""
    result = run_study(
        StudySpec(
            name="staged", workloads=("gcd",), space="small",
            objectives=("cycles", "area", "energy"),
        )
    )
    run = result.single
    base_front_labels = {
        p.label for p in pareto_front(run.result.points, ("cycles", "area"))
    }
    for p in run.result.points:
        if p.label not in base_front_labels:
            assert p.energy is None


def test_breakdown_of_point_matches_attached_energy():
    workload = build_gcd_ir(252, 105)
    profile = IRInterpreter(workload, width=16).run().block_counts
    from repro.explore import EvaluationContext

    context = EvaluationContext(workload, profile, 16)
    point = context.evaluate(small_space()[0])
    attach_energy([point], workload, context=context)
    breakdown = energy_breakdown_of(point, workload, context=context)
    assert point.energy == pytest.approx(breakdown.total, abs=1e-3)


def test_standalone_calls_match_study_path():
    """Context-less attach/breakdown must compile with the real profile
    (the profile steers regalloc and hence the program and its energy),
    so they agree with what a study attaches — and the memo must not
    cross-contaminate the two paths."""
    study = run_study(
        StudySpec(
            name="s", workloads=("crc16",), space="small",
            objectives=("cycles", "area", "energy"),
        )
    )
    workload = build_workload("crc16")
    for point in study.pareto:
        breakdown = energy_breakdown_of(point, workload)
        assert breakdown.total == pytest.approx(point.energy, abs=1e-3)
        from repro.explore import EvaluatedPoint

        bare = EvaluatedPoint(
            config=point.config, area=point.area, cycles=point.cycles
        )
        attach_energy([bare], workload)
        assert bare.energy == pytest.approx(point.energy, abs=1e-3)


def test_glitch_factor_default_is_identity():
    """glitch_factor=1.0 (the default) must be byte-identical to the
    glitch-free model: same fingerprint, same per-unit weights."""
    assert (TechnologyParameters(glitch_factor=1.0).fingerprint()
            == TechnologyParameters().fingerprint())
    assert (TechnologyParameters(glitch_factor=1.3).fingerprint()
            != TechnologyParameters().fingerprint())
    arch = build_architecture(dsp_space()[3], 16)
    base = EnergyModel(arch, technology_by_name("default"))
    same = EnergyModel(arch, TechnologyParameters(glitch_factor=1.0))
    assert same._input_bit == base._input_bit


def test_glitch_factor_scales_deep_units_hardest():
    """A glitchy corner penalises the deep array multiplier more than
    the shallow ALU; the shallowest core is the depth reference and
    stays at exactly 1x."""
    arch = build_architecture(dsp_space()[3], 16)
    base = EnergyModel(arch, technology_by_name("default"))
    glitchy = EnergyModel(arch, TechnologyParameters(glitch_factor=1.5))
    ratio = {
        unit: glitchy._input_bit[unit] / base._input_bit[unit]
        for unit in ("alu0", "mul0", "imm0")
    }
    assert ratio["mul0"] > ratio["alu0"] > 1.0
    assert ratio["imm0"] == pytest.approx(1.0)
