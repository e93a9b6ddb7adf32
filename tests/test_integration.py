"""End-to-end integration: the full reproduction chain under one roof."""

from repro import (
    ArchConfig,
    RFConfig,
    StudySpec,
    TTASimulator,
    build_architecture,
    build_crypt_ir,
    build_table1,
    crypt_output_from_memory,
    pareto_front,
    run_study,
    unix_crypt,
)
from repro.compiler import IRInterpreter, compile_ir


def test_crypt_bit_exact_on_tta():
    """crypt(3) compiled onto a Fig. 9-style TTA matches pure Python."""
    password, salt = "password", "ab"
    workload = build_crypt_ir(password, salt)
    profile = IRInterpreter(workload, width=16).run().block_counts
    arch = build_architecture(
        ArchConfig(num_buses=2, rfs=(RFConfig(8), RFConfig(12)))
    )
    compiled = compile_ir(workload, arch, profile=profile)
    sim = TTASimulator(arch, compiled.program)
    result = sim.run(max_cycles=5_000_000)
    assert result.halted
    assert crypt_output_from_memory(sim.dmem, salt) == unix_crypt(
        password, salt
    )


def test_crypt_bit_exact_on_minimal_machine():
    """Even a single-bus, single-RF machine computes the exact hash."""
    password, salt = "tta", "./"
    workload = build_crypt_ir(password, salt)
    profile = IRInterpreter(workload, width=16).run().block_counts
    arch = build_architecture(ArchConfig(num_buses=1, rfs=(RFConfig(12),)))
    compiled = compile_ir(workload, arch, profile=profile)
    sim = TTASimulator(arch, compiled.program)
    result = sim.run(max_cycles=10_000_000)
    assert result.halted
    assert crypt_output_from_memory(sim.dmem, salt) == unix_crypt(
        password, salt
    )


def test_whole_paper_flow():
    """Study -> Pareto -> test costs -> selection -> Table 1."""
    study = run_study(
        StudySpec(
            name="paper",
            workloads=("crypt",),
            space="small",
            objectives=("area", "cycles", "test_cost"),
            select=True,
        )
    )
    run = study.single
    front2d = pareto_front(run.result.points, ("area", "cycles"))
    assert front2d
    assert all(p.test_cost is not None for p in front2d)

    best = run.selection
    assert best is not None
    arch = build_architecture(best.point.config)
    rows, breakdown = build_table1(arch)
    counted = [r for r in rows if r.counted]
    assert counted
    for row in counted:
        assert row.our_approach < row.full_scan
    assert breakdown.total == sum(r.our_approach for r in counted)


def test_static_estimate_tracks_simulation():
    """The DSE's profile-weighted estimate stays close to cycle truth."""
    workload = build_crypt_ir("x", "ab")
    profile = IRInterpreter(workload, width=16).run().block_counts
    arch = build_architecture(ArchConfig(num_buses=3, rfs=(RFConfig(12),)))
    compiled = compile_ir(workload, arch, profile=profile)
    estimate = compiled.static_cycles(profile)
    sim = TTASimulator(arch, compiled.program)
    actual = sim.run(max_cycles=5_000_000).cycles
    assert abs(estimate - actual) / actual < 0.05
