"""Fixed-bucket histograms with mergeable snapshots.

A :class:`Histogram` counts observations into a fixed, shared set of
upper-bound buckets (plus an implicit overflow bucket), the way
Prometheus client histograms do.  Because the bounds are fixed at
construction and bucket counts are plain integers, merging two
snapshots is element-wise addition — **commutative and associative** —
so merged pool snapshots yield identical bucket counts no matter how a
process pool interleaved the work, matching the determinism invariant
the counter merge from PR 5 established.

Quantiles (:meth:`Histogram.quantile`) are estimated by linear
interpolation inside the bucket holding the target rank; they are as
precise as the bucket resolution, which is the usual trade for
mergeability.  The default bounds are log-spaced seconds chosen for
evaluation latencies (tens of microseconds to minutes).

Snapshots are picklable plain dicts so they ride the same channel as
:meth:`~repro.telemetry.metrics.MetricsCollector.snapshot` — workers
observe locally and ship deltas home.
"""

from __future__ import annotations

#: Default upper bounds, in seconds, for latency histograms: log-ish
#: spacing from 50 microseconds to 2 minutes.  Values above the last
#: bound land in the overflow bucket.
DEFAULT_BOUNDS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 120.0,
)


class Histogram:
    """Count observations into fixed upper-bound buckets.

    ``bounds`` must be strictly increasing; bucket ``i`` counts values
    ``<= bounds[i]`` (cumulative style is derived, storage is
    per-bucket), and one extra overflow bucket counts the rest.
    """

    __slots__ = ("bounds", "counts", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple = DEFAULT_BOUNDS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(
            a >= b for a, b in zip(bounds, bounds[1:])
        ):
            raise ValueError("histogram bounds must strictly increase")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)   # +1: overflow
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one observation (a non-negative number of seconds)."""
        value = float(value)
        self.counts[self._index(value)] += 1
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def _index(self, value: float) -> int:
        # binary search: first bound >= value
        lo, hi = 0, len(self.bounds)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= self.bounds[mid]:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Picklable plain-dict view (mergeable, JSON-safe).

        Shape: ``{"bounds": [...], "counts": [...], "count": int,
        "sum": float, "min": float|None, "max": float|None}`` where
        ``counts`` has one entry per bound plus the overflow bucket.
        """
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": round(self.sum, 6),
            "min": None if self.min is None else round(self.min, 6),
            "max": None if self.max is None else round(self.max, 6),
        }

    def merge(self, snapshot: dict) -> None:
        """Fold one :meth:`snapshot` in (additive; bounds must match)."""
        if tuple(snapshot["bounds"]) != self.bounds:
            raise ValueError("cannot merge histograms with different bounds")
        for i, n in enumerate(snapshot["counts"]):
            self.counts[i] += n
        self.count += snapshot["count"]
        self.sum += snapshot["sum"]
        for attr, pick in (("min", min), ("max", max)):
            other = snapshot.get(attr)
            if other is not None:
                mine = getattr(self, attr)
                setattr(
                    self, attr,
                    other if mine is None else pick(mine, other),
                )

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "Histogram":
        hist = cls(tuple(snapshot["bounds"]))
        hist.merge(snapshot)
        return hist

    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float | None:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from buckets.

        Linear interpolation inside the target bucket; ``None`` when
        the histogram is empty.  The overflow bucket reports its lower
        bound (clamped to the observed max when known).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return None
        rank = q * self.count
        cumulative = 0
        for i, n in enumerate(self.counts):
            if n == 0:
                continue
            cumulative += n
            if cumulative >= rank:
                if i == len(self.bounds):   # overflow bucket
                    return self.max if self.max is not None else (
                        self.bounds[-1]
                    )
                lower = self.bounds[i - 1] if i else 0.0
                upper = self.bounds[i]
                inside = rank - (cumulative - n)
                return lower + (upper - lower) * (inside / n)
        return self.max   # pragma: no cover - rank <= count always hits

    def quantiles(self, qs=(0.5, 0.9, 0.99)) -> dict:
        """``{"p50": ..., "p90": ..., "p99": ...}`` for the given qs."""
        return {
            f"p{int(q * 100)}": (
                None if (v := self.quantile(q)) is None else round(v, 6)
            )
            for q in qs
        }
