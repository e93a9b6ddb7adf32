"""Architecture selection by weighted vector norms (Sec. 4, Fig. 9).

"The selection of the most appropriate architecture can be done using any
of the standard weighted norm techniques within the vector space R^3 ...
The standard Euclid norm with equal constraint weights has been used."

Axes are min-max normalised over the candidate set before weighting so
that cycles (~1e5) cannot drown area (~1e3); the paper's equal-weight
choice then genuinely balances the three constraints.

The norm works over *any* objective vector: pass ``key`` (typically
``repro.study.objectives.cost_vector`` over a study's objective set) to
select under an arbitrary axis list, e.g. ``key=lambda p: (p.area,
p.cycles)`` for the 2-D plane; without it the paper's (area, cycles,
test) vector is used.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.explore.evaluate import EvaluatedPoint


@dataclass(frozen=True)
class SelectionResult:
    """The chosen architecture plus its norm value."""

    point: EvaluatedPoint
    norm: float
    normalized: tuple[float, ...]


def normalize_points(
    points: list[EvaluatedPoint],
    key: Callable[[EvaluatedPoint], Sequence[float]] | None = None,
) -> list[tuple[EvaluatedPoint, tuple[float, ...]]]:
    """Min-max normalise each axis over the candidate set.

    ``key`` maps a point to its raw cost vector; when omitted, the
    paper's (area, cycles, test) is used.
    """
    if not points:
        raise ValueError("no candidate points")
    vectors = []
    for p in points:
        if not p.feasible:
            raise ValueError(f"infeasible point {p.label} in selection")
        if key is not None:
            vectors.append(tuple(float(x) for x in key(p)))
        elif p.test_cost is None:
            raise ValueError(f"point {p.label} lacks a test cost")
        else:
            vectors.append((p.area, float(p.cycles), float(p.test_cost)))
    dims = len(vectors[0])
    if any(len(v) != dims for v in vectors):
        raise ValueError("cost vectors must have equal dimension")
    lows = [min(v[d] for v in vectors) for d in range(dims)]
    highs = [max(v[d] for v in vectors) for d in range(dims)]
    out = []
    for p, v in zip(points, vectors):
        normalized = tuple(
            0.0 if highs[d] == lows[d] else (v[d] - lows[d]) / (highs[d] - lows[d])
            for d in range(dims)
        )
        out.append((p, normalized))
    return out


def select_architecture(
    points: list[EvaluatedPoint],
    weights: tuple[float, ...] = (1.0, 1.0, 1.0),
    order: float = 2.0,
    key: Callable[[EvaluatedPoint], Sequence[float]] | None = None,
) -> SelectionResult:
    """Pick the candidate with the smallest weighted p-norm.

    ``order=2`` with equal weights is the paper's choice; other orders
    (1 = Manhattan, inf supported via ``float('inf')``) are available for
    the ablation benches.  ``key`` selects under an arbitrary objective
    vector (see :func:`normalize_points`); extra weights beyond the
    vector's dimension are ignored.
    """
    normalized = normalize_points(points, key=key)
    dims = len(normalized[0][1])
    if len(weights) < dims:
        raise ValueError(f"need {dims} weights, got {len(weights)}")

    best: SelectionResult | None = None
    for point, vector in normalized:
        weighted = [w * x for w, x in zip(weights, vector)]
        if order == float("inf"):
            norm = max(weighted)
        else:
            norm = sum(x**order for x in weighted) ** (1.0 / order)
        if best is None or norm < best.norm or (
            norm == best.norm and point.area < best.point.area
        ):
            best = SelectionResult(point=point, norm=norm, normalized=vector)
    assert best is not None
    return best
