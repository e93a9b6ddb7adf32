"""Pareto filtering in any number of cost dimensions.

The paper bounds the solution space with local optima: "Pareto points
limit the design space such that for all (a, t) in the solution space,
a >= a_p or t >= t_p".  All axes are costs (smaller is better).
:func:`pareto_filter` serves every dimension, from the paper's Fig. 2
and Fig. 8 planes to five-objective studies.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")


def dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when cost vector ``a`` dominates ``b`` (<= everywhere, < once)."""
    if len(a) != len(b):
        raise ValueError("cost vectors must have equal dimension")
    no_worse = all(x <= y for x, y in zip(a, b))
    better = any(x < y for x, y in zip(a, b))
    return no_worse and better


def pareto_filter(
    items: Iterable[T],
    key: Callable[[T], Sequence[float]],
) -> list[T]:
    """Non-dominated subset of ``items`` under the cost vector ``key``.

    Deterministic: input order is preserved; among items with *identical*
    cost vectors the first is kept.  Any number of cost dimensions.

    One scan in (cost, index) order: every point that dominates or
    duplicates the current one sorts before it, and a dropped one was
    itself covered by a kept point, so the current point is dropped
    exactly when an already-kept point is <= it on every axis.  That is
    O(n log n + n * front); the test suite checks it against the
    quadratic reference filter.
    """
    pool = list(items)
    costs = [tuple(key(item)) for item in pool]
    if any(len(c) != len(costs[0]) for c in costs):
        raise ValueError("cost vectors must have equal dimension")
    kept: list[int] = []
    for i in sorted(range(len(costs)), key=lambda i: (costs[i], i)):
        cost = costs[i]
        if not any(
            all(k <= c for k, c in zip(costs[j], cost)) for j in kept
        ):
            kept.append(i)
    return [pool[i] for i in sorted(kept)]
