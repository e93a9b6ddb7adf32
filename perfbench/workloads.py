"""The benchmark's three workloads, each a list of studies built from a seed.

Every workload runs the real study flow through the public
``Study``/``StudySpec`` API.  The seed only permutes the order of each
space's configurations (always passed as an inline space) and the order
of the workloads inside a study; results are compared as sets keyed by
configuration label, so the correctness oracle holds for every seed.

Each workload puts one layer in front and leaves the others nearly
idle:

* ``cold_atpg`` -- ATPG characterisation from an empty ATPG cache
  (``gcd`` on the ``small`` space at width 8, RTL calibration on);
* ``warm_study`` -- activity-traced simulation for the energy axis,
  against a pre-warmed ATPG cache (``crypt,gcd`` on an 8-point slice
  of the ``crypt`` space at width 8, all five objectives, two workers);
* ``sweep_store`` -- the compile sweep into an empty result cache, then
  ten read passes through fresh ``ResultCache`` instances (1392 points
  at widths 8 and 16, no ATPG and no simulation).

Repetitions are kept to a few seconds each (``cold_atpg`` excepted: its
width-8 ALU alone takes ~16 s of ATPG) so that a run takes the median of
several; on a shared two-CPU host single repetitions vary by 10-40%.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Read passes that follow the write pass of ``sweep_store``.
SWEEP_READ_PASSES = 10

ALL_OBJECTIVES = ("area", "cycles", "test_cost", "energy", "code_size")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Start from a copy of the shared pre-warmed ATPG directory.
    warm_atpg: bool = False
    #: Route the studies through a ``ResultCache`` (write + read passes).
    result_cache: bool = False
    calibrate_front: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold_atpg",
            "ATPG characterisation from an empty ATPG cache; the layer "
            "a cold study spends nearly all its time in",
            calibrate_front=True,
        ),
        Workload(
            "warm_study",
            "five-objective study on a warm ATPG cache; activity-traced "
            "simulation for the energy axis dominates",
            warm_atpg=True,
        ),
        Workload(
            "sweep_store",
            "compile-only sweep written to and read back from the result "
            "cache; bypasses ATPG and simulation",
            result_cache=True,
        ),
    )
}


def _warm_slice(config) -> bool:
    """The ``crypt``-space slice ``warm_study`` explores (8 configs)."""
    return (
        config.num_alus == 3
        and config.num_buses >= 3
        and str(config.rfs[0]) in ("16r2R2W", "12r2R1W")
    )


def _shuffled(rng: random.Random, items) -> tuple:
    items = list(items)
    rng.shuffle(items)
    return tuple(items)


def build_specs(name: str, seed: int) -> list:
    """The workload's studies, in run order, for one seed."""
    from repro.explore.space import space_by_name
    from repro.study import StudySpec

    rng = random.Random(f"{name}:{seed}")

    def spec(workloads, space, width, objectives, workers=1, where=None):
        configs = [c for c in space_by_name(space) if where is None or where(c)]
        return StudySpec(
            name=f"{name}-{space}-w{width}",
            workloads=_shuffled(rng, workloads),
            space=_shuffled(rng, configs),
            width=width,
            objectives=objectives,
            workers=workers,
        )

    if name == "cold_atpg":
        return [spec(("gcd",), "small", 8, ("area", "cycles", "test_cost"))]
    if name == "warm_study":
        return [
            spec(("crypt", "gcd"), "crypt", 8, ALL_OBJECTIVES, workers=2,
                 where=_warm_slice)
        ]
    if name == "sweep_store":
        objectives = ("area", "cycles", "code_size")
        grid = [
            (("crypt", "gcd", "checksum", "crc16"), "crypt", width)
            for width in (8, 16)
        ] + [(("fir", "dotprod"), "dsp", width) for width in (8, 16)]
        return [spec(w, s, width, objectives) for w, s, width in _shuffled(rng, grid)]
    raise KeyError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


def warmup_specs() -> list:
    """Studies whose cold run fills the ATPG cache ``warm_study`` reads.

    The same slice, width and march as ``warm_study`` with only the
    test-cost post-pass, so every component the warm run characterises
    is already on disk.
    """
    from repro.explore.space import space_by_name
    from repro.study import StudySpec

    configs = tuple(c for c in space_by_name("crypt") if _warm_slice(c))
    return [
        StudySpec(
            name="warm_study-warmup",
            workloads=("crypt", "gcd"),
            space=configs,
            width=8,
            objectives=("area", "cycles", "test_cost", "code_size"),
        )
    ]
