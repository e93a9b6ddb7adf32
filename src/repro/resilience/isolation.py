"""Fault-isolated evaluation fan-out: serial guard and pool supervisor.

The study evaluator (:class:`~repro.study.engine.CachedEvaluator`)
routes both of its fan-out paths through here so one bad configuration
can no longer abort a sweep:

* :func:`call_guarded` wraps one serial evaluation in the
  :class:`~repro.resilience.policy.FaultPolicy` attempt loop;
* :func:`iter_pool_isolated` replaces ``pool.map`` with
  ``submit``/``wait`` plus an **ordered reassembly buffer**: it yields
  ``(index, outcome)`` pairs strictly in submission order no matter
  how the pool interleaves completions, so streaming consumers (cache
  writes, telemetry merges, trace events) keep the deterministic order
  the chunked map gave them — while the supervisor retries failures,
  enforces per-point wall-clock deadlines, and resurrects the pool
  when a worker dies (``BrokenProcessPool``).

After a pool death the supervisor drops to one-in-flight submission:
a crash cannot name its culprit, so the remaining configurations run
solo — the killer is then attributed precisely (and retried/skipped
per policy) and no innocent neighbour burns its attempt budget.

Cancellation (a :class:`~repro.resilience.checkpoint.CancelToken`-
shaped object, or ``KeyboardInterrupt`` landing in the supervisor
loop) *drains*: running futures are awaited, queued ones cancelled,
every finished pair not yet yielded follows in index order, and the
stream ends with :class:`~repro.resilience.checkpoint.StudyInterrupted`
— the ending the serial path's token check gives too — so a checkpoint
keeps the whole wave's finished work.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator

from repro.resilience.checkpoint import StudyInterrupted
from repro.resilience.policy import FAIL_FAST, FailedPoint, FaultPolicy

__all__ = [
    "WorkerCrash",
    "call_guarded",
    "iter_pool_isolated",
]


class WorkerCrash(RuntimeError):
    """A pool worker died under the ``fail_fast`` policy."""


def _cancelled(token) -> bool:
    return token is not None and token.cancelled


def call_guarded(
    fn: Callable[[object], object],
    config,
    policy: FaultPolicy | None,
    on_retry: Callable[[object, int, BaseException], None] | None = None,
) -> object:
    """One serial evaluation under the policy's attempt loop.

    Returns the evaluation result, or a :class:`FailedPoint` once the
    attempt budget is spent (``skip``/``retry``).  ``fail_fast``
    propagates the original exception untouched.  Only ``Exception``
    is policy business — ``KeyboardInterrupt`` and friends always
    propagate.
    """
    policy = policy or FAIL_FAST
    if policy.mode == "fail_fast":
        return fn(config)
    last: Exception | None = None
    for attempt in range(1, policy.attempts + 1):
        try:
            return fn(config)
        except Exception as exc:
            last = exc
            if attempt < policy.attempts:
                if on_retry is not None:
                    on_retry(config, attempt, exc)
                time.sleep(policy.delay(attempt))
    return FailedPoint.from_exception(config, last, policy.attempts)


def iter_pool_isolated(
    configs: list,
    fn: Callable,
    initializer: Callable,
    initargs: tuple,
    workers: int,
    policy: FaultPolicy | None = None,
    token=None,
    on_retry: Callable[[object, int, BaseException], None] | None = None,
) -> Iterator[tuple[int, object]]:
    """Yield ``(index, fn(configs[index]))`` in submission order.

    Results stream as soon as they are *next in order*; later
    completions park in the reassembly buffer.  Failures follow
    ``policy`` (resubmission for ``retry``, a :class:`FailedPoint`
    yielded in the failed config's slot for ``skip``); a worker death
    rebuilds the pool and switches to solo submission.  Cancellation
    drains the in-flight work, yields every finished pair not yet
    yielded in index order, and ends the stream with
    :class:`StudyInterrupted`.
    """
    policy = policy or FAIL_FAST
    total = len(configs)
    results: dict[int, object] = {}
    attempts = [0] * total
    failed_exc: list[Exception | None] = [None] * total
    queue: list[int] = list(range(total))       # not yet submitted
    pending: dict = {}                          # future -> index
    deadlines: dict = {}                        # future -> monotonic deadline
    next_out = 0
    orphans: set = set()                        # timed-out, still running
    # With a timeout, one in-flight task per worker keeps deadlines
    # honest (a queued task's clock must not run); without one, an
    # extra task per worker pipelines submissions.  After a crash the
    # window drops to 1 to isolate the culprit.
    capacity = min(workers, total)
    window = capacity if policy.timeout is not None else capacity * 2
    pool = ProcessPoolExecutor(
        max_workers=capacity,
        initializer=initializer,
        initargs=initargs,
    )

    def submit_next() -> None:
        # An orphaned (timed-out but unpreemptable) task still occupies
        # a worker; submitting into that slot would start a queued
        # task's deadline clock early.
        while queue and len(pending) + len(orphans) < window:
            index = queue.pop(0)
            attempts[index] += 1
            future = pool.submit(fn, configs[index])
            pending[future] = index
            if policy.timeout is not None:
                deadlines[future] = time.monotonic() + policy.timeout

    def settle(index: int, exc: Exception) -> None:
        """One attempt died; resubmit or record per policy."""
        if policy.mode == "retry" and attempts[index] < policy.attempts:
            if on_retry is not None:
                on_retry(configs[index], attempts[index], exc)
            queue.append(index)
            return
        if policy.mode == "skip" or policy.mode == "retry":
            results[index] = FailedPoint.from_exception(
                configs[index], exc, attempts[index]
            )
            return
        failed_exc[index] = exc

    def drain() -> Iterator[tuple[int, object]]:
        """Await running futures, cancel queued ones, yield what
        finished in index order, then end the stream."""
        for future in list(pending):
            index = pending.pop(future)
            if future.cancel():
                continue
            try:
                results[index] = future.result()
            except Exception:
                pass            # a failure while draining: simply lost
        for index in sorted(results):
            yield index, results[index]
        raise StudyInterrupted() from None

    def rebuild_pool() -> None:
        nonlocal pool, window
        pool.shutdown(wait=False, cancel_futures=True)
        for future in list(pending):
            index = pending.pop(future)
            deadlines.pop(future, None)
            if index not in results:
                queue.append(index)
        queue.sort()
        orphans.clear()         # the old pool's processes are gone
        window = 1
        pool = ProcessPoolExecutor(
            max_workers=1, initializer=initializer, initargs=initargs
        )

    try:
        while next_out < total:
            while next_out in results:
                yield next_out, results.pop(next_out)
                next_out += 1
            if next_out < total and failed_exc[next_out] is not None:
                raise failed_exc[next_out]
            if next_out >= total:
                break
            if _cancelled(token):
                yield from drain()
            if orphans:
                orphans.difference_update(
                    {f for f in orphans if f.done()}
                )
            submit_next()
            if not pending:
                continue
            tick = 0.05 if (deadlines or token is not None) else None
            done, _ = wait(
                list(pending), timeout=tick, return_when=FIRST_COMPLETED
            )
            broke = False
            for future in done:
                index = pending.pop(future)
                deadlines.pop(future, None)
                try:
                    results[index] = future.result()
                except BrokenProcessPool:
                    broke = True
                    if window == 1:
                        # Solo submission: this task *is* the killer.
                        settle(
                            index,
                            WorkerCrash(
                                "worker process died evaluating this "
                                "configuration"
                            ),
                        )
                    else:
                        # Whose task killed the pool is unknowable in a
                        # full-width window; give the attempt back and
                        # let the solo pool find the culprit.
                        attempts[index] -= 1
                        if index not in results:
                            queue.append(index)
                except Exception as exc:
                    settle(index, exc)
            if broke:
                if policy.mode == "fail_fast":
                    raise WorkerCrash(
                        "a pool worker died mid-evaluation "
                        "(fault policy fail_fast aborts the sweep; "
                        "use skip/retry to isolate the configuration)"
                    )
                rebuild_pool()
                continue
            if deadlines:
                now = time.monotonic()
                for future in [
                    f for f, limit in deadlines.items() if limit <= now
                ]:
                    index = pending.pop(future)
                    del deadlines[future]
                    # Cannot preempt a running task; orphan the future
                    # (its late result is discarded, its worker slot
                    # counted until it frees up) and judge the point
                    # per policy.
                    if not future.cancel():
                        orphans.add(future)
                    settle(
                        index,
                        TimeoutError(
                            f"evaluation exceeded {policy.timeout}s "
                            "wall-clock budget"
                        ),
                    )
    except KeyboardInterrupt:
        yield from drain()
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
