"""Fault isolation, checkpoint/resume, and fault injection for studies.

The package is the robustness layer under the study engine:

* :mod:`repro.resilience.policy` — :class:`FaultPolicy` (``fail_fast``
  | ``skip`` | ``retry``, with a fixed serial backoff and per-point
  pool timeouts) and the structured :class:`FailedPoint` record;
* :mod:`repro.resilience.isolation` — the fault-isolated serial guard
  and the pool supervisor, whose ``(index, outcome)`` stream the study
  evaluator consumes; cancellation ends it with
  :class:`StudyInterrupted` once every finished outcome is yielded;
* :mod:`repro.resilience.checkpoint` — :class:`CheckpointManager`
  (the recorded points ``Study.resume`` replays every strategy
  through) and :class:`CancelToken`;
* :mod:`repro.resilience.faults` — deterministic fault injectors
  (raise / sleep / SIGKILL / truncate-cache-entry) the test suite and
  CI smoke jobs drive the recovery paths with.
"""

from repro.resilience.checkpoint import (
    CancelToken,
    CheckpointManager,
    StudyInterrupted,
)
from repro.resilience.isolation import (
    WorkerCrash,
    call_guarded,
    iter_pool_isolated,
)
from repro.resilience.policy import (
    FAIL_FAST,
    MODES,
    FailedPoint,
    FaultPolicy,
    traceback_digest,
)

__all__ = [
    "FAIL_FAST",
    "MODES",
    "CancelToken",
    "CheckpointManager",
    "FailedPoint",
    "FaultPolicy",
    "StudyInterrupted",
    "WorkerCrash",
    "call_guarded",
    "iter_pool_isolated",
    "traceback_digest",
]
