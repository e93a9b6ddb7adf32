"""Deterministic fault injection for the evaluation stack.

The recovery paths this package promises — skip/retry policies, pool
resurrection after a killed worker, cache quarantine — are only real if
CI exercises them.  This module plants reproducible faults inside
:meth:`~repro.explore.evaluate.EvaluationContext.evaluate`:

* ``raise``    — raise :class:`InjectedFault`;
* ``sleep``    — stall past a configured per-point timeout;
* ``kill``     — ``SIGKILL`` the evaluating process (a pool worker on
  the parallel path; the whole run on the serial path — the
  checkpoint/resume story's test vehicle).

A fault fires on a *target*: a configuration label (deterministic
across pool scheduling and process boundaries), the N-th evaluation
call of the current process (``#N``, 1-based), or every evaluation
(``*`` — how the service tests stretch each point by a fixed sleep so
kills and cancels land mid-study deterministically).  ``times`` bounds
how often a plan fires (-1 = every time), so a ``retry`` policy can be
shown to recover from a transient fault.

Installation is either programmatic (:func:`install` / :func:`clear`,
for in-process tests) or the ``REPRO_FAULT_INJECT`` environment
variable (``kind@target[:seconds][:times]``), which survives into
forked pool workers and fresh CLI processes — the CI smoke job's
mechanism.  With nothing installed the hook is one module-attribute
read per evaluation.

:func:`truncate_cache_entry` is the fourth injector: it corrupts an
on-disk :class:`~repro.campaign.cache.ResultCache` entry in place, the
input the cache's quarantine path is tested against.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field

__all__ = [
    "FaultPlan",
    "InjectedFault",
    "active",
    "clear",
    "install",
    "on_evaluate",
    "plan_from_env",
    "truncate_cache_entry",
]

ENV_VAR = "REPRO_FAULT_INJECT"

KINDS = ("raise", "sleep", "kill")


class InjectedFault(RuntimeError):
    """The exception the ``raise`` injector throws."""


@dataclass
class FaultPlan:
    """One planted fault: what fires, where, and how often.

    Exactly one of ``label`` (fire on this configuration; ``"*"``
    matches every configuration) and ``nth`` (fire on the N-th
    evaluation call of this process, 1-based) must be set.  ``times``
    caps total firings (-1 = unlimited); the counter is per-process, so
    a forked pool worker starts fresh.
    """

    kind: str
    label: str | None = None
    nth: int | None = None
    seconds: float = 1.0          # sleep duration (``sleep`` kind)
    times: int = -1
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r} "
                f"(one of: {', '.join(KINDS)})"
            )
        if (self.label is None) == (self.nth is None):
            raise ValueError("exactly one of label/nth must be set")

    def matches(self, label: str, call: int) -> bool:
        if self.times >= 0 and self.fired >= self.times:
            return False
        if self.label is not None:
            return self.label == "*" or label == self.label
        return call == self.nth

    def fire(self) -> None:
        self.fired += 1
        if self.kind == "raise":
            raise InjectedFault(
                f"injected fault (firing {self.fired}"
                + (f" of {self.times}" if self.times >= 0 else "")
                + ")"
            )
        if self.kind == "sleep":
            time.sleep(self.seconds)
            return
        # kill: die the way a crashed worker dies — no cleanup, no
        # exception, the process is simply gone.
        os.kill(os.getpid(), signal.SIGKILL)


def plan_from_env(value: str) -> FaultPlan:
    """Parse one ``kind@target[...]`` spec.

    ``target`` is a configuration label, ``*`` for every evaluation, or
    ``#N`` for the N-th call.  ``raise``/``kill`` take an optional firing cap
    (``raise@LABEL:1`` — raise once for that config); ``sleep`` takes
    a duration then the cap (``sleep@#3:2.5`` — third call sleeps
    2.5 s, every time).  ``kill@LABEL`` always kills.
    """
    kind, sep, rest = value.partition("@")
    if not sep or not rest:
        raise ValueError(
            f"bad {ENV_VAR} spec {value!r} "
            "(want kind@target[:seconds][:times])"
        )
    parts = rest.split(":")
    target = parts[0]
    seconds, times = 1.0, -1
    if kind == "sleep":
        if len(parts) > 1 and parts[1]:
            seconds = float(parts[1])
        if len(parts) > 2:
            times = int(parts[2])
    elif len(parts) > 1 and parts[1]:
        times = int(parts[1])
    if target.startswith("#"):
        return FaultPlan(
            kind=kind, nth=int(target[1:]), seconds=seconds, times=times
        )
    return FaultPlan(kind=kind, label=target, seconds=seconds, times=times)


def _from_env() -> FaultPlan | None:
    value = os.environ.get(ENV_VAR)
    return plan_from_env(value) if value else None


#: The installed plan (module state so forked workers inherit it).
_ACTIVE: FaultPlan | None = _from_env()
_CALLS: int = 0


def install(plan: FaultPlan) -> FaultPlan:
    """Install a plan programmatically; returns it (fired counts live)."""
    global _ACTIVE, _CALLS
    _ACTIVE = plan
    _CALLS = 0
    return plan


def clear() -> None:
    """Remove any installed plan and reset the call counter."""
    global _ACTIVE, _CALLS
    _ACTIVE = None
    _CALLS = 0


def active() -> FaultPlan | None:
    return _ACTIVE


def on_evaluate(config) -> None:
    """The evaluation-stack hook: fire the active plan if it matches.

    Called once per :meth:`EvaluationContext.evaluate`; a no-op (one
    attribute read) when nothing is installed.
    """
    if _ACTIVE is None:
        return
    global _CALLS
    _CALLS += 1
    if _ACTIVE.matches(config.label(), _CALLS):
        _ACTIVE.fire()


def truncate_cache_entry(
    cache, workload: str, config, width: int, keep: int = 16
) -> str:
    """Corrupt one on-disk cache entry by truncating it mid-payload.

    Returns the entry's path.  The entry must exist; what a reader does
    with the torn file afterwards is exactly what the quarantine tests
    pin down.
    """
    from repro.campaign.cache import cache_key

    path = cache._path(cache_key(workload, config, width))
    data = path.read_bytes()
    if len(data) <= keep:
        raise ValueError(f"{path} too small to truncate meaningfully")
    path.write_bytes(data[:keep])
    return str(path)
