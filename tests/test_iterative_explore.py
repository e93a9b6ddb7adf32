"""Iterative explorer: finds the frontier with far fewer evaluations."""

from repro.apps import build_gcd_ir
from repro.apps.crypt_kernel import build_crypt_ir
from repro.explore import crypt_space
from repro.explore.iterative import neighbours
from repro.explore.space import ArchConfig, RFConfig
from repro.study import pareto_front
from repro.study.engine import run_search


def _iterative(workload, max_evaluations):
    """The neighbourhood search, unbounded (empty space), via the
    study engine's ``iterative`` strategy."""
    return run_search(
        workload, [], strategy="iterative",
        strategy_params={"max_evaluations": max_evaluations},
    )


def _front(points):
    return pareto_front(points, ("area", "cycles"))


def test_neighbours_single_mutations():
    config = ArchConfig(num_buses=2, num_alus=2, rfs=(RFConfig(8),))
    near = neighbours(config)
    labels = {c.label() for c in near}
    assert len(labels) == len(near), "no duplicate neighbours"
    assert config.label() not in labels
    # one parameter changes at a time
    for candidate in near:
        diffs = sum(
            [
                candidate.num_buses != config.num_buses,
                candidate.num_alus != config.num_alus,
                candidate.num_shifters != config.num_shifters,
                candidate.rfs != config.rfs,
            ]
        )
        assert diffs == 1


def test_neighbours_respect_bounds():
    low = ArchConfig(num_buses=1, num_alus=1, rfs=(RFConfig(4),))
    for candidate in neighbours(low):
        assert candidate.num_buses >= 1
        assert candidate.num_alus >= 1


def test_iterative_matches_exhaustive_on_gcd():
    fn = build_gcd_ir(252, 105)
    exhaustive = run_search(fn, crypt_space())
    target = {(p.area, p.cycles) for p in _front(exhaustive.points)}

    iterative = _iterative(fn, max_evaluations=80)
    found = {(p.area, p.cycles) for p in _front(iterative.points)}
    # the search needs far fewer evaluations than the sweep...
    assert iterative.evaluations <= 80 < len(crypt_space())
    # ...and recovers most of the true frontier
    recovered = len(found & target) / len(target)
    assert recovered >= 0.6, f"only {recovered:.0%} of the frontier found"


def test_iterative_on_crypt_is_budgeted():
    fn = build_crypt_ir("x", "ab")
    iterative = _iterative(fn, max_evaluations=30)
    assert iterative.evaluations <= 30
    assert _front(iterative.points)
    # the frontier never shrinks during the search
    history = iterative.frontier_history
    assert history == sorted(history) or len(set(history)) > 1
