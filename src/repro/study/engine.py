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

from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

from repro.apps.registry import build_workload, workload_entry
from repro.campaign.cache import decode_entry, encode_entry
from repro.compiler.interp import IRInterpreter
from repro.compiler.ir import IRFunction
from repro.energy.attach import attach_energy
from repro.energy.model import technology_by_name
from repro.explore.evaluate import (
    EvaluatedPoint,
    EvaluationContext,
    evaluate_config_worker,
    init_evaluation_worker,
)
from repro.explore.explorer import ExplorationResult
from repro.explore.selection import SelectionResult, select_architecture
from repro.explore.space import ArchConfig
from repro.resilience.checkpoint import (
    CancelToken,
    CheckpointManager,
    StudyInterrupted,
)
from repro.resilience.isolation import (
    SweepInterrupted,
    call_guarded,
    iter_pool_isolated,
)
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
from repro.telemetry.tracer import Tracer
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


# ----------------------------------------------------------------------
# evaluation fan-out (shared by the serial loop and the process pool)
# ----------------------------------------------------------------------
def iter_evaluations(
    configs: list[ArchConfig],
    context: EvaluationContext,
    workers: int,
    policy: FaultPolicy | None = None,
    token: CancelToken | None = None,
    on_retry: Callable | None = None,
) -> Iterator[EvaluatedPoint | FailedPoint]:
    """Yield evaluation outcomes in configuration order, streaming.

    Streaming matters for resumability: the caller persists each point
    as it arrives, so a killed run keeps everything that finished
    rather than losing the whole sweep.  The serial path evaluates
    through the caller's sweep ``context`` (batch-per-wave strategies
    reuse its shared-work caches across batches); the pool path ships
    the context's (workload, profile, width) to each worker once and
    submits through the fault-isolated supervisor (:func:`~repro.
    resilience.isolation.iter_pool_isolated`), whose ordered
    reassembly buffer yields in submission order no matter how
    completions interleave.

    Under a ``skip``/``retry`` :class:`FaultPolicy` a configuration
    whose evaluation dies yields a :class:`FailedPoint` in its slot
    instead of aborting the sweep; ``fail_fast`` (the default)
    propagates the exception exactly as before.  ``token`` cancellation
    raises :class:`StudyInterrupted` (serial) or
    :class:`~repro.resilience.isolation.SweepInterrupted` carrying the
    drained results (pool).

    Telemetry goes to the context's collector: the serial path records
    into it directly, and on the pool path each configuration's
    phase/counter delta travels back with its point and is merged
    here, in submission order, so the merged counters do not depend on
    pool scheduling.  Outcomes drained into a :class:`~repro.
    resilience.isolation.SweepInterrupted` are merged and unwrapped the
    same way.
    """
    if workers <= 1 or len(configs) <= 1:
        for config in configs:
            if token is not None:
                token.raise_if_cancelled()
            yield call_guarded(
                context.evaluate, config, policy, on_retry=on_retry
            )
        return

    def collect(outcome):
        if isinstance(outcome, FailedPoint):
            return outcome
        point, snapshot = outcome
        context.metrics.merge(snapshot)
        return point

    try:
        for outcome in iter_pool_isolated(
            configs,
            evaluate_config_worker,
            init_evaluation_worker,
            (context.workload, context.profile, context.width),
            min(workers, len(configs)),
            policy=policy,
            token=token,
            on_retry=on_retry,
        ):
            yield collect(outcome)
    except SweepInterrupted as exc:
        exc.completed = {
            index: collect(outcome)
            for index, outcome in sorted(exc.completed.items())
        }
        raise


class CachedEvaluator:
    """The strategies' evaluation front-end: context + cache + pool.

    Owns one :class:`~repro.explore.evaluate.EvaluationContext` for the
    (workload, profile, width) at hand, consults the on-disk result
    cache before compiling anything, streams fresh points back into the
    cache as they arrive (the resume story), and fans batch requests out
    over a process pool when ``workers > 1``.  Counts hits and fresh
    evaluations for the run statistics.

    With telemetry attached (both default off): ``metrics`` collects
    phase timers (through the context and the pool workers' deltas)
    plus the ``proposed``/``cache_hits``/``evaluated`` counters —
    ``proposed == cache_hits + evaluated`` always, every requested
    configuration is exactly one of the two — and ``tracer`` records
    one ``wave`` event per batch and one ``point`` event per
    configuration (the evaluation stream).
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
        tracer: Tracer | None = None,
        policy: FaultPolicy | None = None,
        token: CancelToken | None = None,
        manager: CheckpointManager | None = None,
        overlay: dict[str, dict] | None = None,
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
            entry = self.overlay.get(config.label())
            if entry is not None:
                try:
                    point = decode_entry(
                        entry, self.march, self.energy_model
                    )
                except (ValueError, KeyError, TypeError, AttributeError):
                    point = None
                if point is not None:
                    return point
        if self.cache is None:
            return None
        return self.cache.get(
            self.workload_name, config, self.width, self.march,
            energy_model=self.energy_model,
        )

    def _remember(self, point: EvaluatedPoint) -> None:
        """Record one completed point into the study checkpoint."""
        if self.manager is not None and not point.failed:
            self.manager.record_point(
                self.label,
                point.label,
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
        if self.tracer is not None:
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
            if self.tracer is not None:
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
            if self.tracer is not None:
                self._trace_point(point, "fresh", wave)
            self._store(point)
        self.evaluated += 1
        if self.token is not None:
            self.token.tick()
        return point

    def evaluate(self, config: ArchConfig) -> EvaluatedPoint:
        """Cost one configuration, cache-first."""
        if self.token is not None:
            self.token.raise_if_cancelled()
        self.metrics.count("proposed")
        cached = self._lookup(config)
        if cached is not None:
            self.cache_hits += 1
            self.metrics.count("cache_hits")
            if self.tracer is not None:
                self._trace_point(cached, "cache")
            self._remember(cached)
            return cached
        self.metrics.count("evaluated")
        outcome = call_guarded(
            self.context.evaluate, config, self.policy,
            on_retry=self._on_retry,
        )
        return self._accept(outcome)

    def evaluate_many(
        self, configs: list[ArchConfig]
    ) -> list[EvaluatedPoint]:
        """Cost an ordered batch, cache-first, fanning out the misses."""
        if self.token is not None:
            self.token.raise_if_cancelled()
        wave = self.wave
        self.wave += 1
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
        # A pool can't win on a batch that gives each worker at most
        # one configuration (the iterative strategy's 2-3-config
        # waves): spinning it up re-initialises every worker's
        # evaluation context just to tear it down again.  Such batches
        # run on the evaluator's own long-lived context.
        serial = self.workers <= 1 or len(missing) <= self.workers
        workers = 1 if serial else self.workers
        if self.progress is not None:
            self.progress(
                f"{self.label}: {len(configs) - len(missing)} cached, "
                f"evaluating {len(missing)} of {len(configs)} points "
                f"({workers} worker{'s' if workers != 1 else ''})"
            )
        if self.tracer is not None:
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
        for point in points:
            if point is not None:
                self._remember(point)
        if missing:
            fresh = iter_evaluations(
                [configs[i] for i in missing],
                self.context,
                workers,
                policy=self.policy,
                token=self.token,
                on_retry=self._on_retry,
            )
            done = 0
            try:
                for outcome in fresh:
                    points[missing[done]] = self._accept(outcome, wave)
                    done += 1
            except SweepInterrupted as exc:
                # The pool drained: record what finished but was not
                # yet yielded, then surface the interruption — the
                # study turns it into a partial result.
                for sub_index, outcome in sorted(exc.completed.items()):
                    points[missing[sub_index]] = self._accept(outcome, wave)
                raise StudyInterrupted() from None
        return points


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
    default — records into :data:`~repro.telemetry.metrics.NULL_METRICS`,
    which keeps nothing.
    """

    def __init__(
        self,
        spec: StudySpec,
        cache=None,
        workers: int | None = None,
        progress: ProgressFn | None = None,
        tracer: Tracer | None = None,
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
        self.tracer = tracer
        self.collect_metrics = collect_metrics or tracer is not None
        #: Opt-in RTL calibration post-pass: audit each run's base
        #: front against the emitted core (:mod:`repro.rtl.calibrate`).
        #: A kwarg rather than a spec field — calibration reads results,
        #: it does not change them, so it must not alter the spec hash.
        self.calibrate_front = calibrate_front
        #: Fault policy for unexpected evaluation exceptions; the
        #: default (fail_fast) is exactly the pre-resilience behaviour.
        self.policy = policy or FAIL_FAST
        self.cancel = cancel
        # The manager always exists: with no checkpoint path it stays
        # in memory, which is what lets an interrupted run assemble a
        # partial-but-valid result from the points that finished.
        # Passing one in (``manager=``) is how resume and the service
        # layer observe or pre-load recorded points.
        if manager is not None:
            self.manager = manager
        else:
            self.manager = CheckpointManager(
                spec.to_dict(), path=checkpoint, every=checkpoint_every
            )
        self._current: dict | None = None

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
        if self.tracer is not None and self.tracer.study is None:
            self.tracer.study = self.spec.name
        result = StudyResult(spec=self.spec)
        spec = self.spec
        try:
            if self.tracer is None:
                for workload_name in spec.workloads:
                    result.runs.append(self._run_one(workload_name))
            else:
                with self.tracer.span(
                    "study", strategy=spec.strategy,
                    objectives=list(spec.objectives),
                    workloads=list(spec.workloads),
                ):
                    for workload_name in spec.workloads:
                        label = (
                            f"{workload_name}/{spec.space_label}"
                            f"/w{spec.width}"
                        )
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
        # what earlier runs attached.
        march = spec.march if needs_test_costs else None
        tech = technology_by_name(spec.tech)
        energy_model = tech.fingerprint() if needs_energy else None
        label = f"{workload_name}/{spec.space_label}/w{spec.width}"
        metrics = MetricsCollector() if self.collect_metrics else NULL_METRICS
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
            overlay=dict(self.manager.points(label)),
        )
        # Everything _partial_run needs to assemble an interrupted
        # run's result — the strategy's outcome is lost when the
        # interruption propagates, but the checkpointed points are not.
        self._current = {
            "label": label,
            "workload": workload_name,
            "started": started,
            "total": len(configs),
            "evaluator": evaluator,
        }
        job = SearchJob(
            space=configs,
            evaluate=evaluator.evaluate,
            evaluate_many=evaluator.evaluate_many,
        )
        if self.tracer is None:
            outcome = run_strategy(spec.strategy, job, spec.params)
        else:
            with self.tracer.span(
                "search", run=label, strategy=spec.strategy
            ):
                outcome = run_strategy(spec.strategy, job, spec.params)
        result = ExplorationResult(
            workload=workload.name, profile=profile, points=outcome.points
        )
        if outcome.moves_proposed:
            metrics.count("moves_proposed", outcome.moves_proposed)
            metrics.count("moves_accepted", outcome.moves_accepted)
            metrics.count("moves_rejected", outcome.moves_rejected)
        if self.tracer is not None and outcome.moves_proposed:
            self.tracer.event(
                "strategy",
                run=label,
                strategy=spec.strategy,
                moves_proposed=outcome.moves_proposed,
                moves_accepted=outcome.moves_accepted,
                moves_rejected=outcome.moves_rejected,
                iterations=outcome.iterations,
            )

        post_pass_hits = 0
        if needs_test_costs:
            post_pass_hits += self._attach_test_costs(
                result, objectives, evaluator
            )
        if needs_energy:
            post_pass_hits += self._attach_energy(
                result, objectives, evaluator, tech
            )
        if post_pass_hits:
            metrics.count("post_pass_hits", post_pass_hits)

        calibrations: list = []
        if self.calibrate_front:
            calibrations = self._calibrate_front(
                workload, result, objectives, evaluator, tech, label
            )

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
            if self.tracer is not None:
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
        materialised, so the point list is rebuilt from the checkpoint
        manager's records for this run (every completed point was
        recorded as it arrived).  No selection, no post-pass attachment
        — a partial run reports what finished, nothing more.
        """
        cur = self._current
        if cur is None:
            return None
        spec = self.spec
        evaluator: CachedEvaluator = cur["evaluator"]
        points: list[EvaluatedPoint] = []
        for entry in self.manager.points(cur["label"]).values():
            try:
                point = decode_entry(
                    entry, evaluator.march, evaluator.energy_model
                )
            except (ValueError, KeyError, TypeError, AttributeError):
                point = None
            if point is not None:
                points.append(point)
        result = ExplorationResult(
            workload=cur["workload"], profile=evaluator.profile,
            points=points,
        )
        # The in-progress wave's telemetry would otherwise be lost: the
        # final snapshot is traced like a finished run's, followed by
        # the interruption marker, so an interrupted trace summarises.
        stats = self._run_stats(
            cur["label"], evaluator, cur["total"], cur["started"]
        )
        if self.tracer is not None:
            self.tracer.event(
                "interrupted",
                run=cur["label"],
                completed=len(points),
                total=cur["total"],
            )
        return StudyRun(
            workload=cur["workload"],
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
        if self.tracer is not None:
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

    def _attach_test_costs(
        self,
        result: ExplorationResult,
        objectives: tuple[Objective, ...],
        evaluator: CachedEvaluator,
    ) -> int:
        """The test-cost post-pass, on the base-objective front only.

        The paper evaluates the test axis *on the 2-D Pareto points*,
        preserving the already achieved area/throughput ratio; the
        generalisation attaches costs to the front under the objectives
        that need no post-pass.  Points restored from the cache already
        carry a march-matched cost; only the rest run the ATPG-backed
        math, and freshly attached costs stream back into the cache.
        Returns the number of front points whose cost was already
        attached (the post-pass cache hits).
        """
        front = self._post_pass_front(result, objectives)
        todo = [p for p in front if p.test_cost is None]
        hits = len(front) - len(todo)
        if not todo:
            return hits
        attach_test_costs(
            todo, self.spec.march, self.spec.width,
            metrics=evaluator.metrics,
        )
        for point in todo:
            evaluator._store(point)
        return hits

    def _attach_energy(
        self,
        result: ExplorationResult,
        objectives: tuple[Objective, ...],
        evaluator: CachedEvaluator,
        tech,
    ) -> int:
        """The switching-activity post-pass, on the base front only.

        Exactly like the test axis: energy is simulated on the front
        under the post-pass-free objectives (each point's compiled
        program runs once with activity tracing through the sweep's
        evaluation context), and fresh energies stream back into the
        result cache keyed by the technology fingerprint.  Returns the
        number of front points whose energy was already attached.
        """
        front = self._post_pass_front(result, objectives)
        todo = [p for p in front if p.energy is None]
        hits = len(front) - len(todo)
        if not todo:
            return hits
        attach_energy(
            todo,
            evaluator.workload,
            width=self.spec.width,
            tech=tech,
            context=evaluator.context,
            metrics=evaluator.metrics,
        )
        for point in todo:
            evaluator._store(point)
        return hits

    def _calibrate_front(
        self,
        workload,
        result: ExplorationResult,
        objectives: tuple[Objective, ...],
        evaluator: CachedEvaluator,
        tech,
        label: str,
    ) -> list:
        """The RTL calibration post-pass, on the base front only.

        Each front point's core is elaborated and audited against the
        model (:func:`repro.rtl.calibrate.calibrate_point`); reports
        ride the run (``StudyRun.calibrations``) and, with a tracer
        attached, the trace ("calibration" events) so ``repro trace
        summarize`` can report model drift per run.
        """
        # Imported here: calibration is opt-in, and the rtl package
        # pulls the whole elaboration stack with it.
        from repro.rtl.calibrate import calibrate_point

        reports = []
        for point in self._post_pass_front(result, objectives):
            report = calibrate_point(
                point,
                workload,
                width=self.spec.width,
                tech=tech,
                context=evaluator.context,
            )
            reports.append(report)
            if self.tracer is not None:
                self.tracer.event(
                    "calibration", run=label, **report.to_dict()
                )
        return reports

    def _post_pass_front(
        self,
        result: ExplorationResult,
        objectives: tuple[Objective, ...],
    ) -> list[EvaluatedPoint]:
        """Points the post-passes annotate: the base-objective front."""
        base = [o for o in objectives if not o.needs_post_pass]
        if base:
            return pareto_front(result.points, base)
        return result.feasible_points


def run_study(spec: StudySpec, **kw) -> StudyResult:
    """Build and run a :class:`Study` in one call (``kw`` as for it)."""
    return Study(spec, **kw).run()
