"""repro — Design and Test Space Exploration of Transport-Triggered Architectures.

A from-scratch reproduction of Zivkovic, Tangelder & Kerkhoff (DATE 2000):
a MOVE-style TTA co-design flow (architecture template, compiler,
cycle-accurate simulator), a gate-level component library with its own
ATPG, and the paper's analytical test-cost model that turns design space
exploration from (area, time) into (area, time, test).

Quickstart — the paper's whole flow is one declarative study::

    from repro import StudySpec, run_study

    result = run_study(StudySpec(
        name="paper",
        workloads=("crypt",),
        space="crypt",
        objectives=("area", "cycles", "test_cost"),
        select=True,
    ))
    print(result.selection.point.label)

Objectives and search strategies are registries (``register_objective``,
``register_strategy``) — the ``energy``/``edp`` axes ride on a
switching-activity model fed by simulator transport traces
(:mod:`repro.energy`), and technology parameter sets are a registry
too (``register_technology``).  Studies sharing one :class:`ResultCache`
resume each other's work: a killed sweep restarts at the first
un-cached point.
"""

__version__ = "1.0.0"

# Architecture + simulation
from repro.tta import (
    Architecture,
    Guard,
    Instruction,
    Literal,
    Move,
    PortRef,
    Program,
    SimResult,
    TTASimulator,
    UnitInstance,
    assemble,
    validate_program,
)

# Components
from repro.components import (
    ComponentKind,
    ComponentSpec,
    component_datasheet,
    default_catalog,
)

# Compiler
from repro.compiler import (
    CompileResult,
    IRBuilder,
    IRFunction,
    IRInterpreter,
    compile_ir,
    optimize_ir,
)

# ATPG / memory test / scan
from repro.atpg import ATPGResult, FaultDictionary, run_atpg
from repro.memtest import MARCH_ALGORITHMS, MARCH_CM, run_march
from repro.scan import full_scan_cycles
from repro.tta.encoding import MoveEncoder

# Workloads
from repro.apps import (
    build_checksum_ir,
    build_crypt_ir,
    build_dotprod_ir,
    build_fir_ir,
    build_gcd_ir,
    crypt_output_from_memory,
    unix_crypt,
)

# Exploration + test cost + energy + selection
from repro.explore import (
    ArchConfig,
    EvaluatedPoint,
    EvaluationContext,
    ExplorationResult,
    RFConfig,
    build_architecture,
    crypt_space,
    pareto_filter,
    select_architecture,
    small_space,
)
from repro.energy import (
    EnergyBreakdown,
    TechnologyParameters,
    attach_energy,
    energy_report,
    format_energy_report,
    register_technology,
    technology_names,
)
from repro.testcost import (
    architecture_test_cost,
    attach_test_costs,
    build_table1,
    format_table1,
    schedule_tests,
    sessions_from_breakdown,
    transport_latency,
)

# Workload/space registries and the on-disk result cache
from repro.apps.registry import build_workload, workload_names
from repro.campaign import ResultCache
from repro.explore.space import dsp_space, space_by_name, space_names

# Study engine — the declarative entry point over everything above
from repro.study import (
    Objective,
    Study,
    StudyResult,
    StudySpec,
    objective_names,
    pareto_front,
    register_objective,
    register_strategy,
    run_study,
    strategy_names,
)

# VLIW extension
from repro.vliw import fig7_template, test_order, vliw_test_cost

# Result export
from repro.reporting import (
    exploration_to_csv,
    exploration_to_json,
    study_to_json,
    table1_to_csv,
    table1_to_json,
)
from repro.telemetry import (
    MetricsCollector,
    Tracer,
    load_trace,
    summarize_trace,
)

__all__ = [
    "ATPGResult",
    "ArchConfig",
    "Architecture",
    "CompileResult",
    "ComponentKind",
    "ComponentSpec",
    "EnergyBreakdown",
    "EvaluatedPoint",
    "EvaluationContext",
    "ExplorationResult",
    "Guard",
    "IRBuilder",
    "IRFunction",
    "IRInterpreter",
    "Instruction",
    "Literal",
    "MARCH_ALGORITHMS",
    "MARCH_CM",
    "MetricsCollector",
    "Move",
    "Objective",
    "PortRef",
    "Program",
    "RFConfig",
    "ResultCache",
    "SimResult",
    "TechnologyParameters",
    "Study",
    "StudyResult",
    "StudySpec",
    "TTASimulator",
    "Tracer",
    "UnitInstance",
    "architecture_test_cost",
    "assemble",
    "attach_energy",
    "attach_test_costs",
    "build_architecture",
    "build_checksum_ir",
    "build_crypt_ir",
    "build_dotprod_ir",
    "build_fir_ir",
    "build_gcd_ir",
    "build_table1",
    "build_workload",
    "compile_ir",
    "component_datasheet",
    "crypt_output_from_memory",
    "crypt_space",
    "default_catalog",
    "dsp_space",
    "energy_report",
    "exploration_to_csv",
    "exploration_to_json",
    "FaultDictionary",
    "fig7_template",
    "format_table1",
    "table1_to_csv",
    "table1_to_json",
    "format_energy_report",
    "full_scan_cycles",
    "load_trace",
    "MoveEncoder",
    "objective_names",
    "optimize_ir",
    "pareto_filter",
    "pareto_front",
    "register_objective",
    "register_strategy",
    "register_technology",
    "run_atpg",
    "run_march",
    "run_study",
    "schedule_tests",
    "select_architecture",
    "sessions_from_breakdown",
    "small_space",
    "space_by_name",
    "space_names",
    "strategy_names",
    "study_to_json",
    "summarize_trace",
    "technology_names",
    "test_order",
    "transport_latency",
    "unix_crypt",
    "validate_program",
    "vliw_test_cost",
    "workload_names",
]
