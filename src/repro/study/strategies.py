"""The search-strategy registry: how a study walks its space.

A strategy decides *which* configurations are evaluated and in what
order; it never evaluates anything itself.  It receives a
:class:`SearchJob` whose ``evaluate``/``evaluate_many`` hooks are wired
by the engine to the shared-work :class:`~repro.explore.evaluate.
EvaluationContext`, the on-disk result cache and the process pool — so
every strategy transparently gets caching, resume and parallel fan-out,
and the exhaustive strategy run serially is bit-identical to evaluating
the space point by point through one context.

Four strategies are seeded:

* ``exhaustive``          — the paper's full grid sweep (Sec. 2);
* ``iterative``           — the MOVE-style neighbourhood search that
  expands only non-dominated candidates;
* ``random``              — a budgeted uniform sample of the space, the
  baseline every smarter search must beat;
* ``simulated_annealing`` — a seeded Metropolis walk over the same
  neighbourhood model, for spaces too rugged for greedy expansion.
"""

from __future__ import annotations

import inspect
import math
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.compiler.ir import IRFunction
from repro.explore.evaluate import EvaluatedPoint
from repro.explore.space import ArchConfig
from repro.resilience.checkpoint import rng_state_from_json, rng_state_to_json
from repro.study.objectives import pareto_front

#: The plane the walking strategies keep their running frontier in
#: (the paper's Fig. 2 axes).
_WALK_OBJECTIVES = ("area", "cycles")


@dataclass
class SearchJob:
    """Everything one search may touch, with evaluation behind hooks.

    ``evaluate`` costs one configuration; ``evaluate_many`` costs an
    ordered batch (and may fan out over a process pool).  Both are
    cache-aware when the engine holds a result cache.
    """

    workload: IRFunction
    profile: dict[str, int]
    space: list[ArchConfig]
    width: int
    evaluate: Callable[[ArchConfig], EvaluatedPoint]
    evaluate_many: Callable[[list[ArchConfig]], list[EvaluatedPoint]]
    #: Checkpoint hooks (both optional; wired by the engine when the
    #: study checkpoints).  ``save_state`` receives a JSON-safe dict of
    #: the strategy's mid-search state after every wave/step;
    #: ``resume_state`` is the last such dict of an interrupted run.
    #: Enumerating strategies (exhaustive, random) need neither — their
    #: walk replays deterministically through the checkpoint's point
    #: overlay — so only the stateful walks implement them.
    save_state: Callable[[dict], None] | None = None
    resume_state: dict | None = None


@dataclass
class SearchOutcome:
    """What a strategy produced: points plus search accounting.

    The move counters instrument strategies that *propose* candidate
    configurations rather than enumerate them: ``moves_proposed``
    counts candidate configurations the walk generated,
    ``moves_accepted`` the proposals the strategy kept (a Metropolis
    acceptance, a frontier expansion), ``moves_rejected`` the rest.
    Enumerating strategies (exhaustive, random) leave all three at 0.
    """

    points: list[EvaluatedPoint]
    evaluations: int
    iterations: int = 1
    frontier_history: list[int] = field(default_factory=list)
    moves_proposed: int = 0
    moves_accepted: int = 0
    moves_rejected: int = 0


StrategyFn = Callable[..., SearchOutcome]


@dataclass(frozen=True)
class StrategyEntry:
    """One registered strategy: the runner plus its documentation."""

    name: str
    runner: StrategyFn
    description: str

    @property
    def params(self) -> str:
        """Human-readable parameter list (from the runner signature)."""
        parameters = [
            f"{p.name}={p.default!r}" if p.default is not p.empty else p.name
            for p in inspect.signature(self.runner).parameters.values()
            if p.name != "job"
        ]
        return ", ".join(parameters) if parameters else "(none)"


_STRATEGIES: dict[str, StrategyEntry] = {}


def register_strategy(
    name: str, runner: StrategyFn, description: str = ""
) -> StrategyEntry:
    """Add (or replace) a named strategy; returns the registered entry."""
    entry = StrategyEntry(name=name, runner=runner, description=description)
    _STRATEGIES[name] = entry
    return entry


def strategy_names() -> list[str]:
    """Names accepted by :func:`strategy_by_name` (sorted)."""
    return sorted(_STRATEGIES)


def strategy_by_name(name: str) -> StrategyEntry:
    try:
        return _STRATEGIES[name]
    except KeyError:
        known = ", ".join(strategy_names())
        raise KeyError(
            f"unknown strategy {name!r} (known: {known})"
        ) from None


def validate_strategy_params(name: str, params: dict | None) -> None:
    """Check ``params`` against the strategy's signature (``ValueError``).

    Validation is separate from execution so a ``TypeError`` raised
    *inside* a running strategy (deep in the compile/evaluate hot path)
    is never mistaken for a bad parameter list.
    """
    entry = strategy_by_name(name)
    signature = inspect.signature(entry.runner)
    try:
        signature.bind(None, **(params or {}))
    except TypeError as exc:
        raise ValueError(
            f"strategy {name!r} rejected its params "
            f"(accepts: {entry.params}): {exc}"
        ) from None


def run_strategy(
    name: str, job: SearchJob, params: dict | None = None
) -> SearchOutcome:
    """Run a registered strategy; unknown params raise ``ValueError``."""
    validate_strategy_params(name, params)
    return strategy_by_name(name).runner(job, **(params or {}))


# ----------------------------------------------------------------------
# exhaustive — the paper's full sweep
# ----------------------------------------------------------------------
def exhaustive_search(job: SearchJob) -> SearchOutcome:
    """Evaluate every configuration of the space, in space order."""
    points = job.evaluate_many(list(job.space))
    return SearchOutcome(points=points, evaluations=len(points))


# ----------------------------------------------------------------------
# random — budgeted uniform sampling
# ----------------------------------------------------------------------
def random_search(
    job: SearchJob, budget: int = 32, seed: int = 0
) -> SearchOutcome:
    """Evaluate a uniform sample of at most ``budget`` configurations.

    Sampling is without replacement from the job's space with a seeded
    ``random.Random``, so a fixed seed reproduces the exact point list;
    sampled indices are evaluated in space order, keeping the result a
    deterministic sublist of the exhaustive sweep.
    """
    budget = int(budget)                # str params arrive from --param
    if budget < 1:
        raise ValueError("random strategy needs budget >= 1")
    size = min(budget, len(job.space))
    rng = random.Random(seed)
    indices = sorted(rng.sample(range(len(job.space)), size))
    points = job.evaluate_many([job.space[i] for i in indices])
    return SearchOutcome(points=points, evaluations=len(points))


# ----------------------------------------------------------------------
# iterative — MOVE-style neighbourhood search
# ----------------------------------------------------------------------
def iterative_search(
    job: SearchJob,
    seeds: list[ArchConfig] | None = None,
    max_evaluations: int = 80,
) -> SearchOutcome:
    """Expand non-dominated neighbourhoods from seed templates.

    The MOVE-style loop — one architectural parameter mutated at a
    time, only frontier candidates expanded —
    with each wave's unexplored neighbourhood evaluated as one
    ``evaluate_many`` batch, so the search shares the sweep caches, the
    on-disk result cache, and the process-pool fan-out.  ``seeds``
    accepts :class:`~repro.explore.space.ArchConfig` instances or their
    dict form (what a JSON spec carries).

    A non-empty job space *bounds the walk*: seeds and neighbourhood
    expansions outside the declared space are skipped, so a study's
    points are always drawn from the space its spec names (should no
    seed fall inside the space, the search starts from the space's
    first template).  An empty space leaves the walk unbounded over
    the neighbourhood model (the :func:`repro.study.run_search`
    in-memory surface).
    """
    from repro.explore.iterative import default_seeds, neighbours

    max_evaluations = int(max_evaluations)
    if seeds is None:
        seeds = default_seeds()
    seeds = [
        ArchConfig.from_dict(s) if isinstance(s, dict) else s for s in seeds
    ]

    allowed: set[str] | None = None
    if job.space:
        allowed = {config.label() for config in job.space}
        seeds = [c for c in seeds if c.label() in allowed]
        if not seeds:
            seeds = [job.space[0]]

    seen: dict[str, EvaluatedPoint] = {}
    frontier: list[EvaluatedPoint] = []
    queue: list[ArchConfig] = list(seeds)
    evaluations = 0
    iterations = 0
    history: list[int] = []
    proposed = accepted = 0

    if job.resume_state is not None:
        # Continue an interrupted walk from its last completed wave:
        # re-evaluating the seen set is free (the engine overlays the
        # checkpoint's points), and dominance filtering is transitive,
        # so the rebuilt frontier equals the incremental one.
        state = job.resume_state
        for config_dict in state["order"]:
            config = ArchConfig.from_dict(config_dict)
            seen[config.label()] = job.evaluate(config)
        frontier = pareto_front(seen.values(), _WALK_OBJECTIVES)
        queue = [ArchConfig.from_dict(c) for c in state["queue"]]
        evaluations = int(state["evaluations"])
        iterations = int(state["iterations"])
        history = list(state["history"])
        proposed = int(state["proposed"])
        accepted = int(state["accepted"])

    while queue and evaluations < max_evaluations:
        iterations += 1
        # One wave: the queue's unseen configs, deduplicated in order,
        # truncated to the remaining budget.
        batch: list[ArchConfig] = []
        batch_labels: set[str] = set()
        for config in queue:
            label = config.label()
            if label in seen or label in batch_labels:
                continue
            if evaluations + len(batch) >= max_evaluations:
                break
            batch.append(config)
            batch_labels.add(label)

        expanded = job.evaluate_many(batch)
        for config, point in zip(batch, expanded):
            seen[config.label()] = point
        evaluations += len(batch)
        frontier = pareto_front(frontier + expanded, _WALK_OBJECTIVES)
        history.append(len(frontier))

        # Expand only the frontier's unexplored neighbourhoods.  Each
        # generated neighbour is a proposed move; the ones surviving
        # the seen/space filters are accepted into the next wave.
        queue = []
        for point in frontier:
            for neighbour in neighbours(point.config):
                proposed += 1
                label = neighbour.label()
                if label in seen:
                    continue
                if allowed is not None and label not in allowed:
                    continue
                queue.append(neighbour)
                accepted += 1

        if job.save_state is not None:
            job.save_state({
                "order": [p.config.to_dict() for p in seen.values()],
                "queue": [c.to_dict() for c in queue],
                "evaluations": evaluations,
                "iterations": iterations,
                "history": list(history),
                "proposed": proposed,
                "accepted": accepted,
            })

    return SearchOutcome(
        points=list(seen.values()),
        evaluations=evaluations,
        iterations=iterations,
        frontier_history=history,
        moves_proposed=proposed,
        moves_accepted=accepted,
        moves_rejected=proposed - accepted,
    )


# ----------------------------------------------------------------------
# simulated annealing — Metropolis walk over the neighbourhood model
# ----------------------------------------------------------------------
def simulated_annealing_search(
    job: SearchJob,
    start: ArchConfig | dict | None = None,
    max_evaluations: int = 60,
    seed: int = 0,
    initial_temp: float = 0.35,
    cooling: float = 0.92,
) -> SearchOutcome:
    """Seeded, budgeted annealing over single-parameter mutations.

    The walk proposes one uniformly-drawn neighbour of the current
    template per step (the :func:`repro.explore.iterative.neighbours`
    model — the same moves the iterative strategy expands) and accepts
    it per Metropolis on a scalarised cost: area and cycles, each
    normalised by the first feasible point's values so neither axis
    drowns the other.  Infeasible proposals are never accepted but do
    consume budget — the search learns where the space's holes are.

    Fully deterministic under a fixed ``seed`` (one ``random.Random``,
    deterministic neighbour order), and bounded by the job's space when
    one is declared, exactly like the iterative strategy.  ``start``
    accepts an :class:`~repro.explore.space.ArchConfig` or its dict
    form (what a JSON spec carries); by default the walk starts from
    the space's first template (or the default seed when unbounded).
    """
    from repro.explore.iterative import default_seeds, neighbours

    max_evaluations = int(max_evaluations)
    if max_evaluations < 1:
        raise ValueError("simulated_annealing needs max_evaluations >= 1")
    cooling = float(cooling)
    if not 0.0 < cooling < 1.0:
        raise ValueError("cooling must be in (0, 1)")
    temp = float(initial_temp)
    if temp <= 0.0:
        raise ValueError("initial_temp must be > 0")
    rng = random.Random(int(seed))

    allowed: set[str] | None = None
    if job.space:
        allowed = {config.label() for config in job.space}
    if start is None:
        start = job.space[0] if job.space else default_seeds()[0]
    elif isinstance(start, dict):
        start = ArchConfig.from_dict(start)
    if allowed is not None and start.label() not in allowed:
        start = job.space[0]

    seen: dict[str, EvaluatedPoint] = {}

    def evaluate(config: ArchConfig) -> EvaluatedPoint:
        label = config.label()
        point = seen.get(label)
        if point is None:
            point = job.evaluate(config)
            seen[label] = point
        return point

    reference: tuple[float, float] | None = None

    def cost(point: EvaluatedPoint) -> float:
        nonlocal reference
        if not point.feasible:
            return math.inf
        if reference is None:
            reference = (point.area, float(point.cycles))
        return point.area / reference[0] + point.cycles / reference[1]

    current_config = start
    if job.resume_state is not None:
        # Resume the interrupted walk mid-sequence: restore the
        # normalisation reference *before* replaying the seen set (the
        # engine's checkpoint overlay makes the replay free), then the
        # RNG state — the resumed walk draws exactly the proposals the
        # uninterrupted walk would have drawn.
        state = job.resume_state
        reference = (
            tuple(state["reference"]) if state["reference"] else None
        )
        for config_dict in state["order"]:
            evaluate(ArchConfig.from_dict(config_dict))
        rng.setstate(rng_state_from_json(state["rng"]))
        current_config = ArchConfig.from_dict(state["current"])
        current_cost = (
            math.inf if state["current_cost"] is None
            else float(state["current_cost"])
        )
        temp = float(state["temp"])
        steps = int(state["steps"])
        proposals = int(state["proposals"])
        accepted = int(state["accepted"])
        history = list(state["history"])
        frontier = pareto_front(seen.values(), _WALK_OBJECTIVES)
    else:
        current_cost = cost(evaluate(start))
        frontier = pareto_front(seen.values(), _WALK_OBJECTIVES)
        history = [len(frontier)]
        steps = 0
        proposals = accepted = 0
    # Each step proposes at most one fresh evaluation; stale proposals
    # (already-seen neighbours) cost a step but no budget, so cap steps
    # to keep a fully-explored neighbourhood from spinning forever.
    max_steps = max_evaluations * 8
    while len(seen) < max_evaluations and steps < max_steps:
        steps += 1
        candidates = neighbours(current_config)
        if allowed is not None:
            candidates = [c for c in candidates if c.label() in allowed]
        if not candidates:
            break
        proposal_config = rng.choice(candidates)
        proposals += 1
        fresh = proposal_config.label() not in seen
        proposal = evaluate(proposal_config)
        proposal_cost = cost(proposal)
        delta = proposal_cost - current_cost
        if delta <= 0 or (
            proposal_cost != math.inf
            and rng.random() < math.exp(-delta / temp)
        ):
            current_config = proposal_config
            current_cost = proposal_cost
            accepted += 1
        temp *= cooling
        if fresh:
            frontier = pareto_front(frontier + [proposal], _WALK_OBJECTIVES)
            history.append(len(frontier))
        if job.save_state is not None:
            job.save_state({
                "rng": rng_state_to_json(rng.getstate()),
                "current": current_config.to_dict(),
                "current_cost": (
                    None if current_cost == math.inf else current_cost
                ),
                "reference": list(reference) if reference else None,
                "temp": temp,
                "steps": steps,
                "proposals": proposals,
                "accepted": accepted,
                "order": [p.config.to_dict() for p in seen.values()],
                "history": list(history),
            })

    return SearchOutcome(
        points=list(seen.values()),
        evaluations=len(seen),
        iterations=steps,
        frontier_history=history,
        moves_proposed=proposals,
        moves_accepted=accepted,
        moves_rejected=proposals - accepted,
    )


register_strategy(
    "exhaustive",
    exhaustive_search,
    "full sweep of the space, in space order (the paper's Sec. 2 flow)",
)
register_strategy(
    "random",
    random_search,
    "budgeted uniform sample of the space (seeded, deterministic)",
)
register_strategy(
    "iterative",
    iterative_search,
    "neighbourhood search expanding only non-dominated candidates",
)
register_strategy(
    "simulated_annealing",
    simulated_annealing_search,
    "seeded Metropolis walk over the neighbourhood model (budgeted)",
)
