"""Fault policies and structured failure records.

A :class:`FaultPolicy` says what the evaluation stack does when costing
one configuration raises an *unexpected* exception (expected
infeasibility — :class:`~repro.compiler.regalloc.AllocationError`,
:class:`~repro.compiler.scheduler.ScheduleError` — never reaches the
policy; it is an ordinary infeasible point):

* ``fail_fast`` — propagate, aborting the sweep (the historical
  behaviour, and the default);
* ``skip``      — record the point as a :class:`FailedPoint` and keep
  sweeping;
* ``retry``     — re-evaluate up to ``max_retries`` extra times, then
  record a :class:`FailedPoint`.

``timeout`` bounds one point's wall clock on the process-pool path
(a worker stuck past the deadline is treated as a failure under the
same mode); the serial path cannot preempt a running evaluation, so
timeouts are a pool-only guarantee.

Both classes are plain data, free of heavy imports so the evaluation
hot path can reference them without cost.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass, field

#: The modes :class:`FaultPolicy` accepts.
MODES = ("fail_fast", "skip", "retry")

#: Serial retry backoff: the first retry waits ``BACKOFF`` seconds,
#: each further one ``BACKOFF_FACTOR`` times longer.
BACKOFF = 0.05
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class FaultPolicy:
    """How one study treats a configuration whose evaluation dies.

    The retry backoff (:data:`BACKOFF`) applies to serial retries only;
    the pool supervisor resubmits a failed point at once.
    """

    mode: str = "fail_fast"
    max_retries: int = 2          # extra attempts in ``retry`` mode
    timeout: float | None = None  # per-point wall clock, pool path only

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown fault-policy mode {self.mode!r} "
                f"(one of: {', '.join(MODES)})"
            )
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    @property
    def attempts(self) -> int:
        """Total evaluation attempts one point may consume."""
        return 1 + (self.max_retries if self.mode == "retry" else 0)

    def delay(self, attempt: int) -> float:
        """Serial backoff before retry ``attempt`` (the first retry is 1)."""
        return BACKOFF * BACKOFF_FACTOR ** (attempt - 1)


#: The default policy: exactly the pre-resilience behaviour.
FAIL_FAST = FaultPolicy()


def traceback_digest(exc: BaseException) -> str:
    """Short stable hash of an exception's formatted traceback.

    Failure records travel through JSON checkpoints and trace events;
    a 12-hex digest groups identical failure sites without shipping
    multi-kilobyte tracebacks around.
    """
    text = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class FailedPoint:
    """One configuration whose evaluation died (after all attempts).

    ``config`` is the :meth:`~repro.explore.space.ArchConfig.to_dict`
    form, so records serialise into JSON checkpoints; ``label`` is the
    human-readable config label used everywhere else.
    """

    config: dict = field(hash=False)
    label: str = ""
    error_type: str = ""
    message: str = ""
    digest: str = ""              # traceback digest (12 hex chars)
    attempts: int = 1

    @classmethod
    def from_exception(
        cls, config, exc: BaseException, attempts: int = 1
    ) -> FailedPoint:
        """Build a record from the config object and the final error."""
        return cls(
            config=config.to_dict(),
            label=config.label(),
            error_type=type(exc).__name__,
            message=str(exc),
            digest=traceback_digest(exc),
            attempts=attempts,
        )

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "label": self.label,
            "error_type": self.error_type,
            "message": self.message,
            "digest": self.digest,
            "attempts": self.attempts,
        }

    def __str__(self) -> str:
        return (
            f"{self.label}: {self.error_type}: {self.message} "
            f"(attempt {self.attempts}, trace {self.digest})"
        )
