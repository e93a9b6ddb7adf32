"""The study engine: one entry point for every exploration the repo does.

``Study.run()`` executes a declarative :class:`~repro.study.spec.
StudySpec`: build each workload, profile it once, hand the space to the
spec's search strategy (evaluation goes through a cache-aware,
optionally parallel :class:`CachedEvaluator`), run the post-passes the
objective vector demands (the test-cost and energy axes), Pareto-filter
under the full objective vector and — when asked — pick the winner with
the weighted norm.  The result type, :class:`StudyResult`, is the one
shape every exploration in the repo produces.

Every other surface is a thin layer over this engine:
:func:`run_search` is one uncached strategy run on in-memory IR, and a
campaign is N studies sharing one :class:`~repro.campaign.cache.
ResultCache`.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

from repro.apps.registry import build_workload, workload_entry
from repro.campaign.cache import decode_entry, encode_entry
from repro.compiler.interp import IRInterpreter
from repro.compiler.ir import IRFunction
from repro.energy.attach import attach_energy
from repro.energy.model import TechnologyParameters, technology_by_name
from repro.explore.evaluate import (
    EvaluatedPoint,
    EvaluationContext,
    init_evaluation_worker,
    run_worker_task,
)
from repro.explore.explorer import ExplorationResult
from repro.explore.selection import SelectionResult, select_architecture
from repro.explore.space import ArchConfig
from repro.resilience.checkpoint import (
    CancelToken,
    CheckpointManager,
    StudyInterrupted,
)
from repro.resilience.isolation import call_guarded, iter_pool_isolated
from repro.resilience.policy import FAIL_FAST, FailedPoint, FaultPolicy
from repro.study.objectives import (
    Objective,
    cost_vector,
    pareto_front,
    resolve_objectives,
)
from repro.study.spec import StudySpec
from repro.study.strategies import SearchJob, SearchOutcome, run_strategy
from repro.telemetry.metrics import (
    NULL_METRICS,
    MetricsCollector,
    format_phases,
)
from repro.telemetry.tracer import NULL_TRACER, Tracer
from repro.testcost.cost import attach_test_costs

ProgressFn = Callable[[str], None]


@lru_cache(maxsize=256)
def _entry_profile(entry, width: int) -> tuple[tuple[str, int], ...]:
    """Block-count profile of one registry entry, computed once.

    Registered workloads pin their reference inputs, so the
    :class:`IRInterpreter` run is a pure function of (entry, width) — a
    campaign of N (workload, space, width) jobs profiles each workload
    once per width instead of once per job.  Keyed on the frozen
    :class:`~repro.apps.registry.WorkloadEntry` itself, not the name:
    re-registering a name installs a new entry (new builder identity)
    and therefore a fresh cache line, never a stale profile.
    """
    counts = IRInterpreter(entry.build(), width=width).run().block_counts
    return tuple(sorted(counts.items()))


def workload_profile(workload_name: str, width: int = 16) -> dict[str, int]:
    """Cached per-(workload, width) profile as a fresh dict."""
    return dict(_entry_profile(workload_entry(workload_name), width))


def _pool_size(tasks: int, workers: int) -> int:
    """Processes to fan ``tasks`` independent jobs out over; 1 = serial.

    A pool can't win on a batch that gives each worker at most one
    task (the iterative strategy's 2-3-config waves, a two-point
    front): spinning it up re-initialises every worker's evaluation
    context just to tear it down again.  Such batches run in process.
    """
    return workers if workers > 1 and tasks > workers else 1


@dataclass(frozen=True)
class RunStats:
    """How one (workload, space, width) job was executed.

    ``post_pass_hits`` counts points whose post-pass axis (test cost or
    energy) was already present — restored from the result cache — so
    cached work on post-pass studies is reported, not just the base
    evaluations.  ``phases``, ``counters`` and ``histograms`` are the
    run's merged telemetry snapshot (``{phase: {"calls", "seconds"}}``
    / ``{counter: int}`` / ``{name: <histogram snapshot>}``, e.g. the
    per-point ``eval_seconds`` latency distribution), empty unless the
    study ran with metrics collection on.
    """

    total: int                 # points in the space
    cache_hits: int            # served from the result cache
    evaluated: int             # actually compiled this run
    workers: int               # pool size used (1 = serial path)
    elapsed: float             # wall-clock seconds for the whole job
    post_pass_hits: int = 0    # post-pass axes restored from the cache
    phases: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    histograms: dict = field(default_factory=dict)


class CachedEvaluator:
    """The strategies' evaluation front-end: context + cache + pool.

    Owns one :class:`~repro.explore.evaluate.EvaluationContext` for the
    (workload, profile, width) at hand, consults the on-disk result
    cache before compiling anything, streams fresh points back into the
    cache as they arrive (the resume story), and fans batch requests out
    over a process pool when ``workers > 1``.  Counts hits and fresh
    evaluations for the run statistics, and keeps every point it hands
    out in ``points`` (config label -> point): an interrupted run's
    partial result.

    Telemetry (both default to their null objects, which record
    nothing): ``metrics`` collects phase timers (through the context
    and the pool workers' deltas) plus the ``proposed``/``cache_hits``/
    ``evaluated`` counters — ``proposed == cache_hits + evaluated``
    always, every requested configuration is exactly one of the two —
    and ``tracer`` records one ``wave`` event per batch and one
    ``point`` event per configuration (the evaluation stream).
    """

    def __init__(
        self,
        workload_name: str,
        workload: IRFunction,
        profile: dict[str, int],
        width: int,
        cache=None,
        march: str | None = None,
        energy_model: str | None = None,
        workers: int = 1,
        progress: ProgressFn | None = None,
        label: str | None = None,
        metrics: MetricsCollector = NULL_METRICS,
        tracer: Tracer = NULL_TRACER,
        policy: FaultPolicy | None = None,
        token: CancelToken | None = None,
        manager: CheckpointManager | None = None,
        overlay: dict[str, EvaluatedPoint] | None = None,
    ) -> None:
        self.workload_name = workload_name
        self.workload = workload
        self.profile = profile
        self.width = width
        self.cache = cache
        self.march = march
        self.energy_model = energy_model
        self.workers = workers
        self.progress = progress
        self.label = label or workload_name
        self.metrics = metrics
        self.tracer = tracer
        #: Fault handling: the policy governs unexpected evaluation
        #: exceptions (skip/retry record a FailedPoint instead of
        #: aborting); the token cancels cooperatively; the manager
        #: receives every completed point and failure (the checkpoint);
        #: the overlay is a resumed checkpoint's completed points,
        #: consulted before the result cache (counted as cache hits).
        self.policy = policy or FAIL_FAST
        self.token = token
        self.manager = manager
        self.overlay = overlay or {}
        self.points: dict[str, EvaluatedPoint] = dict(self.overlay)
        self.failures: list[FailedPoint] = []
        self.cache_hits = 0
        self.evaluated = 0
        self.wave = 0
        self._context: EvaluationContext | None = None

    @property
    def context(self) -> EvaluationContext:
        if self._context is None:
            self._context = EvaluationContext(
                self.workload, self.profile, self.width,
                metrics=self.metrics,
            )
        return self._context

    def _trace_point(
        self, point: EvaluatedPoint, source: str, wave: int | None = None
    ) -> None:
        self.tracer.event(
            "point",
            run=self.label,
            wave=wave,
            config=point.label,
            source=source,
            area=point.area,
            cycles=point.cycles,
            feasible=point.feasible,
        )

    def _lookup(self, config: ArchConfig) -> EvaluatedPoint | None:
        if self.overlay:
            point = self.overlay.get(config.label())
            if point is not None:
                return point
        if self.cache is None:
            return None
        return self.cache.get(
            self.workload_name, config, self.width, self.march,
            energy_model=self.energy_model,
        )

    def _remember(self, point: EvaluatedPoint) -> None:
        """Keep one completed point and record it into the checkpoint."""
        if point.failed:
            return
        label = point.label
        self.points[label] = point
        if self.manager is not None:
            self.manager.record_point(
                self.label,
                label,
                encode_entry(
                    self.workload_name, point, self.width, self.march,
                    self.energy_model,
                ),
            )

    def _store(self, point: EvaluatedPoint) -> None:
        if self.cache is not None and not point.failed:
            self.cache.put(
                self.workload_name, point, self.width, self.march,
                energy_model=self.energy_model,
            )
        self._remember(point)

    def _on_retry(self, config, attempt: int, exc: BaseException) -> None:
        """Between-attempt hook: count and trace the retry."""
        self.metrics.count("points_retried")
        self.tracer.event(
            "retry",
            run=self.label,
            config=config.label(),
            attempt=attempt,
            error=type(exc).__name__,
        )

    def _accept(
        self, outcome: EvaluatedPoint | FailedPoint, wave: int | None = None
    ) -> EvaluatedPoint:
        """Fold one fresh outcome into the run's accounting.

        A :class:`FailedPoint` is recorded (result failures, metrics,
        trace, checkpoint) and replaced by an infeasible placeholder so
        the strategy's point list keeps its shape — the front simply
        loses that one point.
        """
        if isinstance(outcome, FailedPoint):
            self.failures.append(outcome)
            self.metrics.count("points_failed")
            self.tracer.event(
                "failure",
                run=self.label,
                wave=wave,
                config=outcome.label,
                error=outcome.error_type,
                message=outcome.message,
                digest=outcome.digest,
                attempts=outcome.attempts,
            )
            if self.manager is not None:
                self.manager.record_failure(self.label, outcome)
            point = EvaluatedPoint(
                config=ArchConfig.from_dict(outcome.config),
                area=0.0,
                cycles=None,
                failed=True,
            )
        else:
            point = outcome
            self._trace_point(point, "fresh", wave)
            self._store(point)
        self.evaluated += 1
        if self.token is not None:
            self.token.tick()
        return point

    def _fresh(
        self,
        task: Callable[[EvaluationContext, object], object],
        items: list,
        workers: int,
        policy: FaultPolicy = FAIL_FAST,
        token: CancelToken | None = None,
    ) -> Iterator[tuple[int, object]]:
        """Run ``task(context, item)`` per item, yielding ``(index,
        outcome)`` in order: the one fan-out of per-point work.

        The sweep's task is :meth:`EvaluationContext.evaluate`, the
        post-passes' is :func:`simulate_point`; either pickles by name,
        so the pool can ship it.  With one worker it runs serially on
        the evaluator's own context (batch-per-wave strategies reuse its
        shared-work caches), with a ``token`` check per item; otherwise
        through the fault-isolated pool supervisor, on each worker's
        pinned context, merging each task's telemetry delta in
        submission order so the counters do not depend on pool
        scheduling.  An outcome is a :class:`FailedPoint` when a
        ``skip``/``retry`` ``policy`` gave up; cancellation ends either
        stream with :class:`StudyInterrupted`.
        """
        if workers <= 1:
            for index, item in enumerate(items):
                if token is not None:
                    token.raise_if_cancelled()
                yield index, call_guarded(
                    partial(task, self.context), item, policy,
                    on_retry=self._on_retry,
                )
            return
        stream = iter_pool_isolated(
            items,
            partial(run_worker_task, task),
            init_evaluation_worker,
            (self.workload, self.profile, self.width),
            workers,
            policy=policy,
            token=token,
            on_retry=self._on_retry,
        )
        with closing(stream):
            for index, outcome in stream:
                if not isinstance(outcome, FailedPoint):
                    outcome, snapshot = outcome
                    self.metrics.merge(snapshot)
                yield index, outcome

    def _evaluate(
        self, configs: list[ArchConfig], wave: int | None = None
    ) -> list[EvaluatedPoint]:
        """Cost ``configs`` in order, cache-first, fanning out the misses.

        ``wave`` is the batch number of an :meth:`evaluate_many` call;
        only a batch reports a progress line and a ``wave`` event.
        """
        if self.token is not None:
            self.token.raise_if_cancelled()
        points: list[EvaluatedPoint | None] = [None] * len(configs)
        missing: list[int] = []
        for i, config in enumerate(configs):
            cached = self._lookup(config)
            if cached is not None:
                points[i] = cached
            else:
                missing.append(i)
        self.cache_hits += len(configs) - len(missing)
        self.metrics.count("proposed", len(configs))
        self.metrics.count("cache_hits", len(configs) - len(missing))
        self.metrics.count("evaluated", len(missing))
        # A serial batch runs on the evaluator's own long-lived context.
        workers = _pool_size(len(missing), self.workers)
        if wave is not None:
            if self.progress is not None:
                self.progress(
                    f"{self.label}: {len(configs) - len(missing)} cached, "
                    f"evaluating {len(missing)} of {len(configs)} points "
                    f"({workers} worker{'s' if workers != 1 else ''})"
                )
            self.tracer.event(
                "wave",
                run=self.label,
                wave=wave,
                requested=len(configs),
                cached=len(configs) - len(missing),
                fresh=len(missing),
                workers=workers,
            )
        for point in points:
            if point is not None:
                self._trace_point(point, "cache", wave)
                self._remember(point)
        for index, outcome in self._fresh(
            EvaluationContext.evaluate, [configs[i] for i in missing],
            workers, self.policy, self.token,
        ):
            points[missing[index]] = self._accept(outcome, wave)
        return points

    def evaluate(self, config: ArchConfig) -> EvaluatedPoint:
        """Cost one configuration, cache-first."""
        return self._evaluate([config])[0]

    def evaluate_many(
        self, configs: list[ArchConfig]
    ) -> list[EvaluatedPoint]:
        """Cost an ordered batch (one wave), cache-first."""
        wave = self.wave
        self.wave += 1
        return self._evaluate(configs, wave)


# ----------------------------------------------------------------------
# one-shot search on in-memory IR
# ----------------------------------------------------------------------
def run_search(
    workload: IRFunction,
    space: Iterable[ArchConfig],
    width: int = 16,
    strategy: str = "exhaustive",
    strategy_params: dict | None = None,
) -> SearchOutcome:
    """Run one search strategy on an in-memory workload, uncached.

    The minimal engine entry point: profiles the workload, wires a
    serial :class:`CachedEvaluator` without a result cache, and runs
    the named strategy.  For registered workloads prefer a full
    :class:`Study` (caching, post-passes, selection).
    """
    profile = IRInterpreter(workload, width=width).run().block_counts
    configs = list(space)
    evaluator = CachedEvaluator(
        workload.name, workload, profile, width
    )
    job = SearchJob(
        space=configs,
        evaluate=evaluator.evaluate,
        evaluate_many=evaluator.evaluate_many,
    )
    return run_strategy(strategy, job, strategy_params)


# ----------------------------------------------------------------------
# the post-pass simulation task
# ----------------------------------------------------------------------
def simulate_point(
    context: EvaluationContext,
    point: EvaluatedPoint,
    tech: TechnologyParameters,
    calibrate: bool,
) -> object:
    """Fan-out task: one front point's activity-traced simulation.

    The point is recompiled through ``context`` and simulated by
    ``calibrate_point`` when ``calibrate`` is set, returning its report;
    else by :func:`attach_energy`, returning the energy it sets.  Both
    measure into the context's collector, so a pool worker's snapshot
    keeps the recompile's ``evaluations``, ``feasible`` and
    ``eval_seconds`` next to the simulation's phases and ``sim_cycles``.
    """
    if calibrate:
        # Imported here: calibration is opt-in, and the rtl package
        # pulls the whole elaboration stack with it.
        from repro.rtl.calibrate import calibrate_point

        return calibrate_point(
            point, context.workload, width=context.width, tech=tech,
            context=context, metrics=context.metrics,
        )
    attach_energy(
        [point], context.workload, width=context.width, tech=tech,
        context=context, metrics=context.metrics,
    )
    return point.energy


# ----------------------------------------------------------------------
# studies
# ----------------------------------------------------------------------
@dataclass
class StudyRun:
    """One workload's exploration within a study."""

    workload: str
    space: str
    width: int
    objectives: tuple[str, ...]
    result: ExplorationResult
    selection: SelectionResult | None
    stats: RunStats
    evaluations: int
    iterations: int = 1
    frontier_history: list[int] = field(default_factory=list)
    #: Configurations whose evaluation died after all policy attempts
    #: (skip/retry modes); empty under fail_fast or on a clean run.
    failures: list[FailedPoint] = field(default_factory=list)
    #: True when this run was cut short (cancel token / ^C) and holds
    #: only the points that finished before the interruption.
    interrupted: bool = False
    #: RTL calibration reports for the base front, one per point
    #: (:class:`repro.rtl.calibrate.CalibrationReport`); filled only
    #: when the study ran with ``calibrate_front=True``.
    calibrations: list = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.workload}/{self.space}/w{self.width}"

    @property
    def pareto(self) -> list[EvaluatedPoint]:
        """The non-dominated points under the study's objective vector.

        Points on which some objective is not measurable (the test-cost
        axis outside the base front) are not candidates — for the
        paper's (area, cycles, test_cost) vector this is exactly the
        Fig. 8 front.
        """
        return pareto_front(self.result.points, self.objectives)


@dataclass
class StudyResult:
    """Everything a study produced, one run per workload."""

    spec: StudySpec
    runs: list[StudyRun] = field(default_factory=list)
    #: True when the study was interrupted (cancel token / ^C): the
    #: result is partial but valid — every completed run plus the
    #: interrupted run's finished points.
    interrupted: bool = False

    @property
    def cache_hits(self) -> int:
        return sum(r.stats.cache_hits for r in self.runs)

    @property
    def evaluated(self) -> int:
        return sum(r.stats.evaluated for r in self.runs)

    @property
    def failures(self) -> list[FailedPoint]:
        """Every failed point across the study's runs."""
        return [f for r in self.runs for f in r.failures]

    def run(self, label: str) -> StudyRun:
        """Look one run up by ``workload/space/wWIDTH`` label."""
        for r in self.runs:
            if r.label == label:
                return r
        raise KeyError(f"no run {label!r} in study {self.spec.name!r}")

    # -- single-run conveniences (the common case) ---------------------
    @property
    def single(self) -> StudyRun:
        """The only run of a single-workload study."""
        if len(self.runs) != 1:
            raise ValueError(
                f"study {self.spec.name!r} has {len(self.runs)} runs; "
                "address them via .runs / .run(label)"
            )
        return self.runs[0]

    @property
    def points(self) -> list[EvaluatedPoint]:
        return self.single.result.points

    @property
    def pareto(self) -> list[EvaluatedPoint]:
        return self.single.pareto

    @property
    def selection(self) -> SelectionResult | None:
        return self.single.selection

    def summary(self) -> str:
        spec = self.spec
        lines = [
            f"study {spec.name!r}: strategy={spec.strategy}, "
            f"objectives={'+'.join(spec.objectives)}, "
            f"{len(self.runs)} run{'s' if len(self.runs) != 1 else ''}, "
            f"{self.evaluated} evaluated, {self.cache_hits} cache hits"
            + (f", {len(self.failures)} failed" if self.failures else "")
            + (" [INTERRUPTED]" if self.interrupted else "")
        ]
        for r in self.runs:
            res = r.result
            cached = str(r.stats.cache_hits)
            if r.stats.post_pass_hits:
                cached += f"+{r.stats.post_pass_hits}pp"
            parts = [
                f"  {r.label:<24} {len(res.points):>4} points",
                f"{len(res.feasible_points):>4} feasible",
                f"{len(r.pareto):>3} Pareto",
                f"[{cached} cached, {r.stats.evaluated} "
                f"evaluated, {r.stats.elapsed:.2f}s]",
            ]
            if r.failures:
                parts.append(f"{len(r.failures)} failed")
            if r.interrupted:
                parts.append("(interrupted)")
            if r.selection is not None:
                parts.append(f"-> {r.selection.point.label}")
            elif spec.select:
                parts.append("-> (no candidate points)")
            lines.append(" ".join(parts))
            if r.stats.phases:
                lines.append(
                    format_phases(
                        {"phases": r.stats.phases}, indent="    "
                    )
                )
        return "\n".join(lines)


class Study:
    """Executor for one :class:`StudySpec`.

    ``cache`` is any object with the :class:`~repro.campaign.cache.
    ResultCache` get/put surface (or None for no caching); ``workers``
    overrides the spec's parallelism hint; ``progress`` receives
    human-readable per-run status lines.

    Telemetry is strictly opt-in: ``tracer`` (a :class:`~repro.
    telemetry.tracer.Tracer`) records the study/run/search spans and
    the wave/point/strategy/cache event stream, and
    ``collect_metrics=True`` fills each run's :class:`RunStats` with
    phase timers and counters.  A tracer implies metrics collection
    (the per-run ``metrics`` event needs the numbers).  Both off — the
    default — records into :data:`~repro.telemetry.tracer.NULL_TRACER`
    and :data:`~repro.telemetry.metrics.NULL_METRICS`, which keep
    nothing.  The study traces through its own view of ``tracer``,
    stamped with the tracer's study name or else the spec's, so a
    tracer shared by several studies stamps each with its own name.
    """

    def __init__(
        self,
        spec: StudySpec,
        cache=None,
        workers: int | None = None,
        progress: ProgressFn | None = None,
        tracer: Tracer = NULL_TRACER,
        collect_metrics: bool = False,
        policy: FaultPolicy | None = None,
        checkpoint: str | Path | None = None,
        checkpoint_every: int = 16,
        cancel: CancelToken | None = None,
        manager: CheckpointManager | None = None,
        calibrate_front: bool = False,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.cache = cache
        self.workers = spec.workers if workers is None else workers
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1 (got {self.workers}); "
                "use workers=1 for the serial path"
            )
        self.progress = progress
        self.tracer = tracer.bind(study=tracer.study or spec.name)
        self.collect_metrics = collect_metrics or tracer is not NULL_TRACER
        #: Opt-in RTL calibration post-pass: audit each run's base
        #: front against the emitted core (:mod:`repro.rtl.calibrate`).
        #: A kwarg rather than a spec field — calibration reads results,
        #: it does not change them, so it must not alter the spec hash.
        self.calibrate_front = calibrate_front
        #: Fault policy for unexpected evaluation exceptions; the
        #: default (fail_fast) is exactly the pre-resilience behaviour.
        self.policy = policy or FAIL_FAST
        self.cancel = cancel
        # The manager is the checkpoint writer; with no checkpoint path
        # it stays in memory.  Passing one in (``manager=``) is how
        # resume and the service layer observe or pre-load recorded
        # points.
        if manager is not None:
            self.manager = manager
        else:
            self.manager = CheckpointManager(
                spec.to_dict(), path=checkpoint, every=checkpoint_every
            )
        #: The in-progress run as (evaluator, started, total), which is
        #: all an interrupted run's partial result needs.
        self._current: tuple[CachedEvaluator, float, int] | None = None

    @classmethod
    def resume(
        cls, checkpoint: str | Path, checkpoint_every: int = 16, **kw
    ) -> Study:
        """A study continuing a killed/interrupted run from its file.

        The checkpoint's spec is rebuilt and hash-verified, and every
        point it recorded becomes an evaluator overlay (a free cache
        layer).  The strategy then simply runs again: every walk is
        deterministic, so it replays the interrupted run's proposals
        through the overlay, evaluating nothing that finished, and
        carries on exactly as the uninterrupted run would have.
        ``kw`` are :class:`Study`'s execution keywords (``cache``,
        ``workers``, ``tracer``, ...).
        """
        manager = CheckpointManager.load(checkpoint, every=checkpoint_every)
        spec = StudySpec.from_dict(manager.spec_dict)
        return cls(spec, manager=manager, **kw)

    def run(self) -> StudyResult:
        """Execute the spec; on interruption return a partial result.

        ``KeyboardInterrupt`` or a tripped :class:`CancelToken` does
        not discard finished work: in-flight pool futures are drained,
        completed points are checkpointed, the in-progress run joins
        the result with its finished points, and the whole result is
        flagged ``interrupted=True``.  The checkpoint file (when one
        was requested) and the telemetry sinks are flushed either way.
        """
        spec = self.spec
        result = StudyResult(spec=spec)
        try:
            with self.tracer.span(
                "study", strategy=spec.strategy,
                objectives=list(spec.objectives),
                workloads=list(spec.workloads),
            ):
                for workload_name in spec.workloads:
                    label = f"{workload_name}/{spec.space_label}/w{spec.width}"
                    with self.tracer.span("run", run=label):
                        result.runs.append(self._run_one(workload_name))
        except (KeyboardInterrupt, StudyInterrupted):
            result.interrupted = True
            self.manager.interrupted = True
            partial = self._partial_run()
            if partial is not None:
                result.runs.append(partial)
        else:
            # A clean completion clears the flag a resumed checkpoint
            # inherited from the interrupted run that wrote it.
            self.manager.interrupted = False
        finally:
            # Flush durable state even on the interrupt path: the
            # checkpoint must reflect every recorded point, and the
            # trace must stay valid JSONL (each tracer record is
            # flushed on write; spans close on exception).
            self.manager.write(force=True)
            self._current = None
        return result

    def _run_one(self, workload_name: str) -> StudyRun:
        spec = self.spec
        started = perf_counter()
        workload = build_workload(workload_name)
        configs = spec.resolve_space()
        profile = workload_profile(workload_name, spec.width)
        objectives = resolve_objectives(spec.objectives)
        needs_test_costs = any(o.requires_test_costs for o in objectives)
        needs_energy = any(o.requires_energy for o in objectives)
        # Only key cached test costs / energies on the parameters the
        # study will actually use — otherwise output would depend on
        # what earlier runs attached.  The keys also select the
        # post-passes (Study._post_passes).
        march = spec.march if needs_test_costs else None
        tech = technology_by_name(spec.tech)
        energy_model = tech.fingerprint() if needs_energy else None
        label = f"{workload_name}/{spec.space_label}/w{spec.width}"
        metrics = MetricsCollector() if self.collect_metrics else NULL_METRICS
        # A resumed checkpoint's points, decoded once; a torn entry is
        # skipped and simply evaluated again.
        overlay: dict[str, EvaluatedPoint] = {}
        for config_label, entry in self.manager.points(label).items():
            try:
                point = decode_entry(entry, march, energy_model)
            except (ValueError, KeyError, TypeError, AttributeError):
                point = None
            if point is not None:
                overlay[config_label] = point
        cache_stats = getattr(self.cache, "stats", None)
        cache_before = (
            cache_stats.as_dict() if cache_stats is not None else None
        )

        evaluator = CachedEvaluator(
            workload_name,
            workload,
            profile,
            spec.width,
            cache=self.cache,
            march=march,
            energy_model=energy_model,
            workers=self.workers,
            progress=self.progress,
            label=label,
            metrics=metrics,
            tracer=self.tracer,
            policy=self.policy,
            token=self.cancel,
            manager=self.manager,
            overlay=overlay,
        )
        self._current = (evaluator, started, len(configs))
        job = SearchJob(
            space=configs,
            evaluate=evaluator.evaluate,
            evaluate_many=evaluator.evaluate_many,
        )
        with self.tracer.span("search", run=label, strategy=spec.strategy):
            outcome = run_strategy(spec.strategy, job, spec.params)
        result = ExplorationResult(
            workload=workload.name, profile=profile, points=outcome.points
        )
        if outcome.moves_proposed:
            metrics.count("moves_proposed", outcome.moves_proposed)
            metrics.count("moves_accepted", outcome.moves_accepted)
            metrics.count("moves_rejected", outcome.moves_rejected)
            self.tracer.event(
                "strategy",
                run=label,
                strategy=spec.strategy,
                moves_proposed=outcome.moves_proposed,
                moves_accepted=outcome.moves_accepted,
                moves_rejected=outcome.moves_rejected,
                iterations=outcome.iterations,
            )

        post_pass_hits, calibrations = self._post_passes(
            result, objectives, evaluator, tech
        )
        if post_pass_hits:
            metrics.count("post_pass_hits", post_pass_hits)

        selection: SelectionResult | None = None
        if spec.select:
            candidates = pareto_front(result.points, objectives)
            if candidates:
                weights = spec.weights or (1.0,) * len(objectives)
                selection = select_architecture(
                    candidates,
                    weights=weights,
                    key=lambda p: cost_vector(p, objectives),
                )

        if cache_stats is not None and cache_before is not None:
            cache_delta = cache_stats.delta(cache_before)
            # "result_cache_" so the delta's "hits" cannot collide with
            # the evaluator's own "cache_hits" counter.
            for key, value in cache_delta.items():
                if value:
                    metrics.count(f"result_cache_{key}", value)
            self.tracer.event("cache", run=label, **cache_delta)

        stats = self._run_stats(
            label, evaluator, len(configs), started, post_pass_hits
        )
        self.manager.mark_done(label)
        self._current = None
        return StudyRun(
            workload=workload_name,
            space=spec.space_label,
            width=spec.width,
            objectives=spec.objectives,
            result=result,
            selection=selection,
            stats=stats,
            evaluations=outcome.evaluations,
            iterations=outcome.iterations,
            frontier_history=outcome.frontier_history,
            failures=list(evaluator.failures),
            calibrations=calibrations,
        )

    def _partial_run(self) -> StudyRun | None:
        """The in-progress run's finished points, as a valid StudyRun.

        Called from the interrupt handler: the strategy's outcome never
        materialised, so the point list is the evaluator's kept points
        (every hit and fresh point, in the order the checkpoint
        recorded them).  No selection, no post-pass attachment — a
        partial run reports what finished, nothing more.
        """
        if self._current is None:
            return None
        evaluator, started, total = self._current
        spec = self.spec
        points = list(evaluator.points.values())
        result = ExplorationResult(
            workload=evaluator.workload_name, profile=evaluator.profile,
            points=points,
        )
        # The in-progress wave's telemetry would otherwise be lost: the
        # final snapshot is traced like a finished run's, followed by
        # the interruption marker, so an interrupted trace summarises.
        stats = self._run_stats(evaluator.label, evaluator, total, started)
        self.tracer.event(
            "interrupted",
            run=evaluator.label,
            completed=len(points),
            total=total,
        )
        return StudyRun(
            workload=evaluator.workload_name,
            space=spec.space_label,
            width=spec.width,
            objectives=spec.objectives,
            result=result,
            selection=None,
            stats=stats,
            evaluations=evaluator.evaluated,
            failures=list(evaluator.failures),
            interrupted=True,
        )

    def _run_stats(
        self,
        label: str,
        evaluator: CachedEvaluator,
        total: int,
        started: float,
        post_pass_hits: int = 0,
    ) -> RunStats:
        """One run's :class:`RunStats`, traced as its ``metrics`` event."""
        snapshot = evaluator.metrics.snapshot()
        stats = RunStats(
            total=total,
            cache_hits=evaluator.cache_hits,
            evaluated=evaluator.evaluated,
            workers=self.workers,
            elapsed=perf_counter() - started,
            post_pass_hits=post_pass_hits,
            phases=snapshot["phases"],
            counters=snapshot["counters"],
            histograms=snapshot["histograms"],
        )
        self.tracer.event(
            "metrics",
            run=label,
            phases=stats.phases,
            counters=stats.counters,
            histograms=stats.histograms,
            total=stats.total,
            cache_hits=stats.cache_hits,
            evaluated=stats.evaluated,
            post_pass_hits=stats.post_pass_hits,
            workers=stats.workers,
        )
        return stats

    def _post_passes(
        self,
        result: ExplorationResult,
        objectives: tuple[Objective, ...],
        evaluator: CachedEvaluator,
        tech,
    ) -> tuple[int, list]:
        """Test costs, RTL calibration and energy, on the base front.

        The paper evaluates the test axis *on the 2-D Pareto points*,
        preserving the already achieved area/throughput ratio; the
        generalisation runs every post-pass on the front under the
        objectives that need none.  Calibration (opt-in, one
        ``calibration`` trace event per point) runs before energy: a
        calibrated point takes the energy of the simulation its audit
        ran, the same program under the same technology, so each point
        is simulated once.  Values restored from the cache are kept;
        each pass stores its fresh values before the next starts.

        The test-cost pass is serial (ATPG is memoised per process).
        The simulations go through the evaluator's one fan-out
        (:meth:`CachedEvaluator._fresh`, under ``fail_fast`` with no
        cancel token), on a pool under the sweep's rule
        (:func:`_pool_size`: more points to simulate than workers);
        one loop applies their outcomes in front order.  Returns the
        post-pass cache hits and the calibration reports.
        """
        if (evaluator.march is None and evaluator.energy_model is None
                and not self.calibrate_front):
            return 0, []
        base = [o for o in objectives if not o.needs_post_pass]
        front = (
            pareto_front(result.points, base)
            if base else result.feasible_points
        )
        hits = 0
        if evaluator.march is not None:
            todo = [p for p in front if p.test_cost is None]
            hits += len(front) - len(todo)
            if todo:
                attach_test_costs(
                    todo, self.spec.march, self.spec.width,
                    metrics=evaluator.metrics,
                )
                for point in todo:
                    evaluator._store(point)

        todo = []
        if evaluator.energy_model is not None:
            todo = [p for p in front if p.energy is None]
            hits += len(front) - len(todo)
        calibrate = self.calibrate_front
        simulated = front if calibrate else [p for p in todo if p.feasible]
        reports = []
        for index, outcome in evaluator._fresh(
            partial(simulate_point, tech=tech, calibrate=calibrate),
            simulated,
            _pool_size(len(simulated), self.workers),
        ):
            point = simulated[index]
            if not calibrate:
                # A pool worker set the energy on its own copy.
                point.energy = outcome
                continue
            reports.append(outcome)
            self.tracer.event(
                "calibration", run=evaluator.label, **outcome.to_dict()
            )
            if evaluator.energy_model is not None and point.energy is None:
                evaluator.metrics.count("energy_simulated")
                point.energy = round(outcome.energy, 3)
        for point in todo:
            evaluator._store(point)
        return hits, reports


def run_study(spec: StudySpec, **kw) -> StudyResult:
    """Build and run a :class:`Study` in one call (``kw`` as for it)."""
    return Study(spec, **kw).run()
