"""Cross-study in-flight dedupe over the shared result cache.

Two tenants submitting overlapping studies is the service's common
case — the same ``(workload, config, width)`` point appears in both.
The :class:`~repro.campaign.cache.ResultCache` already collapses
*sequential* overlap (the second study hits what the first wrote), but
concurrent studies race: both miss, both evaluate, one write wins.
Correct — the entries are identical — but the evaluation ran twice.

:class:`InflightIndex` closes the race with single-flight claims: the
first study to miss a key *claims* it and evaluates; any other study
missing the same key *waits* on the claim, then re-reads the cache and
gets a hit.  :class:`DedupeCache` is the per-job wrapper that wires
the index into the engine — it has the exact ``get``/``put`` surface
of ``ResultCache``, so a :class:`~repro.study.engine.Study` uses it
without knowing the service exists.

Waits are bounded and cancellable: a waiter polls its job's
:class:`~repro.resilience.checkpoint.CancelToken` while waiting and
gives up after ``wait_timeout`` seconds (falling back to evaluating
the point itself — duplicated work, never a deadlock).  A job that
dies mid-claim releases everything it owned
(:meth:`InflightIndex.release_owner`), waking its waiters immediately.
"""

from __future__ import annotations

import threading

from repro.campaign.cache import cache_key

__all__ = ["DedupeCache", "InflightIndex"]


class InflightIndex:
    """Single-flight claims on cache keys, shared across jobs.

    Thread-safe: jobs run in worker threads and hit the index
    concurrently.  Counters (``claims``, ``coalesced``,
    ``wait_timeouts``) are read through :meth:`as_dict`; the server
    publishes ``claims`` and ``coalesced`` as the ``metrics`` op's
    ``dedupe_claims``/``dedupe_coalesced`` gauges, which the
    service-smoke assertions read — ``coalesced`` is exactly the number
    of evaluations the index saved.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claims: dict[str, tuple[str, threading.Event]] = {}
        self.claims = 0
        self.coalesced = 0
        self.wait_timeouts = 0

    def claim(self, key: str, owner: str) -> threading.Event | None:
        """Claim ``key`` for ``owner``; None when the claim is ours.

        A non-None return is the *other* owner's completion event —
        wait on it, then re-read the cache.  An owner re-claiming its
        own key (a retry policy re-evaluating a failed point) keeps the
        claim and proceeds.
        """
        with self._lock:
            held = self._claims.get(key)
            if held is None:
                self._claims[key] = (owner, threading.Event())
                self.claims += 1
                return None
            if held[0] == owner:
                return None
            return held[1]

    def resolve(self, key: str) -> None:
        """Release one key (its result is in the cache); wake waiters."""
        with self._lock:
            held = self._claims.pop(key, None)
        if held is not None:
            held[1].set()

    def release_owner(self, owner: str) -> int:
        """Release every claim ``owner`` still holds (job teardown).

        Claims normally resolve put-by-put; this sweeps what a failed,
        cancelled or killed job left behind so its waiters stop waiting
        for a result that will never arrive.  Returns the number
        released.
        """
        with self._lock:
            stale = [
                key for key, (held_owner, _) in self._claims.items()
                if held_owner == owner
            ]
            events = [self._claims.pop(key)[1] for key in stale]
        for event in events:
            event.set()
        return len(events)

    def as_dict(self) -> dict:
        with self._lock:
            return {
                "claims": self.claims,
                "coalesced": self.coalesced,
                "wait_timeouts": self.wait_timeouts,
                "in_flight": len(self._claims),
            }


class DedupeCache:
    """One job's view of the shared cache, with single-flight misses.

    Same ``get``/``put`` signatures as :class:`~repro.campaign.cache.
    ResultCache` (and a ``stats`` passthrough), so the study engine
    treats it as the cache it was given.  ``owner`` is the job id;
    ``token`` its cancel token, polled while waiting on another job's
    claim.
    """

    #: How long a waiter trusts another job to finish one point before
    #: evaluating it itself.  Generous — a point is seconds, not
    #: minutes — because the timeout is a deadlock backstop, not a
    #: performance knob; claim teardown is what normally wakes waiters.
    WAIT_TIMEOUT = 120.0

    _POLL = 0.05

    def __init__(
        self,
        inner,
        index: InflightIndex,
        owner: str,
        token=None,
        wait_timeout: float | None = None,
    ) -> None:
        self.inner = inner
        self.index = index
        self.owner = owner
        self.token = token
        self.wait_timeout = (
            self.WAIT_TIMEOUT if wait_timeout is None else wait_timeout
        )

    @property
    def stats(self):
        return getattr(self.inner, "stats", None)

    def get(
        self,
        workload: str,
        config,
        width: int,
        march: str | None = None,
        energy_model: str | None = None,
    ):
        point = self.inner.get(workload, config, width, march, energy_model)
        if point is not None:
            return point
        key = cache_key(workload, config, width)
        done = self.index.claim(key, self.owner)
        if done is None:
            # Our claim: report the miss so our job evaluates the point
            # (the eventual put resolves the claim).
            return None
        waited = 0.0
        while waited < self.wait_timeout:
            if done.wait(self._POLL):
                fresh = self.inner.get(
                    workload, config, width, march, energy_model
                )
                if fresh is not None:
                    self.index.coalesced += 1
                return fresh
            waited += self._POLL
            if self.token is not None and self.token.cancelled:
                return None
        self.index.wait_timeouts += 1
        return None

    def put(
        self,
        workload: str,
        point,
        width: int,
        march: str | None = None,
        energy_model: str | None = None,
    ) -> None:
        self.inner.put(workload, point, width, march, energy_model)
        self.index.resolve(cache_key(workload, point.config, width))

    def release(self) -> int:
        """Drop every claim this job still holds (call at job end)."""
        return self.index.release_owner(self.owner)
