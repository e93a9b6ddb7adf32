"""Design space exploration (the MOVE-style flow of Sec. 2).

The configuration space, the shared-work evaluation pipeline, Pareto
filtering and the weighted-norm selection.  Sweeps are *driven* by the
study engine (:mod:`repro.study`): an exhaustive study enumerates TTA
templates (bus count, FU mix, register-file setup), compiles the
workload onto each, and keeps the Pareto-optimal points in the (area,
execution time) plane — Fig. 2.  The test-cost axis (Fig. 8) is added by
:mod:`repro.testcost`, the energy axis by :mod:`repro.energy`, and the
final architecture is picked with a weighted norm (Fig. 9).
"""

from repro.explore.space import (
    ArchConfig,
    RFConfig,
    build_architecture,
    build_architecture_cached,
    crypt_space,
    dsp_space,
    small_space,
    space_by_name,
    space_names,
)
from repro.explore.evaluate import (
    EvaluatedPoint,
    EvaluationContext,
    init_evaluation_worker,
    required_fu_opcodes,
)
from repro.explore.pareto import dominates, pareto_filter
from repro.explore.explorer import ExplorationResult
from repro.explore.iterative import default_seeds, neighbours
from repro.explore.selection import normalize_points, select_architecture

__all__ = [
    "ArchConfig",
    "EvaluatedPoint",
    "EvaluationContext",
    "ExplorationResult",
    "RFConfig",
    "build_architecture",
    "build_architecture_cached",
    "crypt_space",
    "default_seeds",
    "dominates",
    "dsp_space",
    "init_evaluation_worker",
    "neighbours",
    "normalize_points",
    "pareto_filter",
    "required_fu_opcodes",
    "select_architecture",
    "small_space",
    "space_by_name",
    "space_names",
]
