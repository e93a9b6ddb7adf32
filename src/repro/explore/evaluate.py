"""Evaluation of architecture configurations against a workload.

Mirrors the MOVE evaluation loop: compile the application onto the
candidate, take the **profile-weighted static cycle count** as the
throughput cost and the placed **area** from the component datasheets.
Configurations the compiler cannot map (no RF capacity, missing FU
classes) are reported infeasible rather than silently skipped.

The sweep hot path is :class:`EvaluationContext`: one instance per
(workload, profile, width) computes the work that is identical across
the whole configuration grid exactly once —

* the workload is IR-validated once, not per configuration;
* register allocation is memoized by RF arrangement, because the
  allocation reads only the register files, never the bus/FU mix;
* unmappable configurations (too few registers, missing FU class) are
  rejected by an exact pre-check before the scheduler ever runs;
* architectures come from the shared builder cache, and their area
  model reuses the per-component-type netlist statistics.

Both the serial loop and the process-pool workers (via the pool
initializer) evaluate through a context, so serial and parallel sweeps
share one code path and produce identical results.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from repro.compiler.ir import LOAD_OPCODES, IRFunction
from repro.compiler.regalloc import (
    _MIN_LOCAL_POOL,
    AllocationError,
    RegisterAllocation,
    allocate,
)
from repro.compiler.scheduler import (
    CompileResult,
    ScheduleError,
    schedule_allocated,
)
from repro.explore.space import (
    ArchConfig,
    build_architecture_cached,
)
from repro.resilience import faults as _faults
from repro.telemetry.metrics import NULL_METRICS, MetricsCollector
from repro.tta.arch import Architecture
from repro.tta.encoding import MoveEncoder
from repro.tta.timing import validate_program

#: Opcodes the scheduler lowers without a matching functional unit.
_NON_FU_OPCODES = frozenset({"li", "st"}) | LOAD_OPCODES


def required_fu_opcodes(workload: IRFunction) -> frozenset[str]:
    """Opcodes of ``workload`` that must be backed by a functional unit.

    Matches the scheduler's lowering exactly: literals, loads and stores
    need no FU (the LSU is part of every template), and ``mov`` lowers
    to ``or`` on an ALU.
    """
    ops: set[str] = set()
    for block in workload.blocks.values():
        for op in block.ops:
            opcode = op.opcode
            if opcode in _NON_FU_OPCODES:
                continue
            ops.add("or" if opcode == "mov" else opcode)
    return frozenset(ops)


@dataclass
class EvaluatedPoint:
    """One point of the solution space."""

    config: ArchConfig
    area: float
    cycles: int | None                      # None = infeasible
    test_cost: int | None = None            # attached by repro.testcost
    energy: float | None = None             # attached by repro.energy
    #: Instruction-memory footprint in bits
    #: (``MoveEncoder.program_memory_bits``); None when infeasible.
    code_size: int | None = None
    compile_result: CompileResult | None = None
    #: True for the placeholder a skipped/exhausted-retries evaluation
    #: failure leaves in the point list (always infeasible; the real
    #: record is the run's FailedPoint).  Distinguishes "could not be
    #: evaluated" from the ordinary "compiles to infeasible".
    failed: bool = False

    @property
    def feasible(self) -> bool:
        return self.cycles is not None

    @property
    def label(self) -> str:
        return self.config.label()


class EvaluationContext:
    """Shared-work cache for one sweep of a (workload, profile, width).

    The context owns everything that is invariant across the sweep's
    configurations, so ``evaluate`` touches only per-configuration work:
    build (or fetch) the architecture, pre-check mappability, reuse the
    RF-arrangement's register allocation, and schedule.
    """

    def __init__(
        self,
        workload: IRFunction,
        profile: dict[str, int],
        width: int = 16,
        metrics: MetricsCollector = NULL_METRICS,
    ) -> None:
        workload.validate()                 # once per sweep, not per config
        self.workload = workload
        self.profile = dict(profile)
        self.width = width
        #: Phase-timer/counter sink; the default :data:`NULL_METRICS`
        #: records nothing.  The pool worker swaps a fresh collector in
        #: per task to ship per-task deltas.
        self.metrics = metrics
        self.required_ops = required_fu_opcodes(workload)
        # RF arrangement -> (rewritten IR, allocation), or the message
        # of the AllocationError the arrangement raises (stored as a
        # plain string — re-raising one cached exception object would
        # grow its traceback on every infeasible configuration).  The
        # allocation reads only the register files, so every
        # configuration sharing an arrangement shares one allocation
        # verbatim.
        self._allocations: dict[
            tuple, tuple[IRFunction, RegisterAllocation] | str
        ] = {}

    def _allocation(
        self, config: ArchConfig, arch: Architecture
    ) -> tuple[IRFunction, RegisterAllocation]:
        key = config.rfs
        entry = self._allocations.get(key)
        if entry is None:
            try:
                with self.metrics.phase("regalloc"):
                    entry = allocate(self.workload, arch, self.profile)
            except AllocationError as exc:
                entry = str(exc)
            self._allocations[key] = entry
        if isinstance(entry, str):
            raise AllocationError(entry)
        return entry

    def evaluate(
        self, config: ArchConfig, keep_compile_result: bool = False
    ) -> EvaluatedPoint:
        """Compile the workload onto one configuration and cost it.

        Everything is recorded into the context's collector (a no-op
        with telemetry off).  The phases are disjoint (build /
        netlist_stats / regalloc / schedule / validate, never nested),
        so their seconds sum to at most the serial wall clock.
        Scheduling and timing validation are timed separately by
        scheduling unvalidated and running
        :func:`~repro.tta.timing.validate_program` here — exactly what
        ``schedule_allocated(validate=True)`` does internally, so a
        violation yields the same infeasible point.  Counters
        (``evaluations``, ``feasible``, ``infeasible_*``) are
        per-configuration and therefore merge deterministically from
        any pool interleaving.  The whole call is additionally observed
        into the ``eval_seconds`` histogram — measured in-worker, so
        the latency distribution rides the same snapshot channel as
        the counters.
        """
        _faults.on_evaluate(config)
        metrics = self.metrics
        start = perf_counter()
        try:
            with metrics.phase("build"):
                arch = build_architecture_cached(config, self.width)
            with metrics.phase("netlist_stats"):
                area = arch.area()
            metrics.count("evaluations")
            # Exact feasibility pre-checks: both conditions are precisely
            # the early failures ``allocate``/``schedule_allocated`` would
            # raise, so rejecting here changes nothing but the time spent.
            if (
                config.total_registers < _MIN_LOCAL_POOL
                or not self.required_ops <= arch.ops_supported()
            ):
                metrics.count("infeasible_precheck")
                return EvaluatedPoint(config=config, area=area, cycles=None)
            try:
                rewritten, allocation = self._allocation(config, arch)
                with metrics.phase("schedule"):
                    compiled = schedule_allocated(
                        rewritten, allocation, arch, validate=False
                    )
                with metrics.phase("validate"):
                    violations = validate_program(
                        arch, compiled.program, strict=False
                    )
                if violations:
                    metrics.count("infeasible_compile")
                    return EvaluatedPoint(
                        config=config, area=area, cycles=None
                    )
            except (AllocationError, ScheduleError):
                metrics.count("infeasible_compile")
                return EvaluatedPoint(config=config, area=area, cycles=None)
            metrics.count("feasible")
            return EvaluatedPoint(
                config=config,
                area=area,
                cycles=compiled.static_cycles(self.profile),
                code_size=MoveEncoder(arch).program_memory_bits(
                    compiled.program
                ),
                compile_result=compiled if keep_compile_result else None,
            )
        finally:
            metrics.observe("eval_seconds", perf_counter() - start)


# ----------------------------------------------------------------------
# the process-pool entry point
#
# ``ProcessPoolExecutor`` can only ship module-level callables, and the
# workload/profile are identical for every task of a fan-out, so they
# travel once per worker (via the pool initializer), which then pins a
# per-worker EvaluationContext — each worker gets the same shared-work
# caching the serial loop enjoys.  Every pooled task, a sweep
# evaluation or a study's post-pass simulation, runs on that context
# through :func:`run_worker_task`.
# ----------------------------------------------------------------------
_WORKER_CONTEXT: dict[str, EvaluationContext] = {}


def init_evaluation_worker(
    workload: IRFunction, profile: dict[str, int], width: int
) -> None:
    """Pool initializer: pin the shared per-sweep evaluation context."""
    _WORKER_CONTEXT["context"] = EvaluationContext(workload, profile, width)


def run_worker_task(
    task: Callable[[EvaluationContext, object], object], item: object
) -> tuple[object, dict]:
    """Run ``task(context, item)`` on this worker's pinned context.

    Returns ``(outcome, snapshot)``.  Pool workers cannot write the
    parent's trace, so each task measures into a fresh collector and
    ships its snapshot next to its outcome; the parent merges it into
    its own collector (a no-op when it is not collecting).  Per-task
    deltas, rather than per-worker totals, make the merged counters
    independent of how the pool interleaved the work.
    """
    context = _WORKER_CONTEXT.get("context")
    if context is None:
        raise RuntimeError("init_evaluation_worker() was not called")
    context.metrics = MetricsCollector()
    return task(context, item), context.metrics.snapshot()


def architecture_of(point: EvaluatedPoint, width: int = 16) -> Architecture:
    """The architecture of an evaluated point (shared builder cache)."""
    return build_architecture_cached(point.config, width)
