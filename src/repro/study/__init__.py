"""``repro.study`` — the declarative exploration entry point.

One public surface for everything the repo does (the Sec. 2-4 flow and
its generalisations):

* :class:`StudySpec` — frozen, JSON-round-trippable description of a
  study (workloads by registry name, space by name or inline configs,
  objective names, strategy name + params);
* the **objective registry** (``area``, ``cycles``, ``test_cost``,
  ``energy``, ``edp`` seeded) — pluggable cost axes with per-axis
  post-pass requirements (the test-cost pass runs the analytical model,
  the energy pass simulates with activity tracing);
* the **strategy registry** (``exhaustive``, ``iterative``, ``random``,
  ``simulated_annealing`` seeded) — pluggable search drivers sharing
  one evaluation interface with caching, resume and process-pool
  fan-out;
* :class:`Study` / :func:`run_study` — the executor, returning a
  :class:`StudyResult`; a campaign is N studies sharing one result
  cache;
* :func:`run_search` — one uncached strategy run on in-memory IR;
* :func:`pareto_front` — the one way a front is taken, staged the way
  the paper stages Fig. 8.
"""

from repro.study.engine import (
    CachedEvaluator,
    RunStats,
    Study,
    StudyResult,
    StudyRun,
    run_search,
    run_study,
    workload_profile,
)
from repro.study.objectives import (
    Objective,
    cost_vector,
    objective_by_name,
    objective_names,
    pareto_front,
    register_objective,
    resolve_objectives,
)
from repro.study.spec import StudySpec
from repro.study.strategies import (
    SearchJob,
    SearchOutcome,
    StrategyEntry,
    register_strategy,
    run_strategy,
    strategy_by_name,
    strategy_names,
)

__all__ = [
    "CachedEvaluator",
    "Objective",
    "RunStats",
    "SearchJob",
    "SearchOutcome",
    "StrategyEntry",
    "Study",
    "StudyResult",
    "StudyRun",
    "StudySpec",
    "cost_vector",
    "objective_by_name",
    "objective_names",
    "pareto_front",
    "register_objective",
    "register_strategy",
    "resolve_objectives",
    "run_search",
    "run_strategy",
    "run_study",
    "strategy_by_name",
    "strategy_names",
    "workload_profile",
]
