"""Iterative (neighbourhood-search) exploration.

The MOVE environment performs "iterative generation of different
architectures" rather than brute-force sweeps.  This explorer starts
from seed templates, evaluates their neighbourhoods (one architectural
parameter changed at a time), and expands only candidates that are
non-dominated so far — typically reaching the same Pareto frontier as
the exhaustive sweep while evaluating a fraction of the space.

The search loops themselves live in :mod:`repro.study.strategies` (the
``iterative`` and ``simulated_annealing`` strategies); this module keeps
the neighbourhood model they walk — :func:`neighbours`, which steps
through the Crypt space's RF arrangements, and the default seed
templates.  (The legacy ``iterative_explore()`` entry point was a
deprecation shim over the study engine and has been removed; use
``StudySpec(strategy="iterative")`` or :func:`repro.study.run_search`.)
"""

from __future__ import annotations

from repro.explore.space import _CRYPT_RF_OPTIONS, ArchConfig, RFConfig


def default_seeds() -> list[ArchConfig]:
    """The seed templates the iterative search starts from by default:
    one minimal single-bus machine and one mid-range template."""
    return [
        ArchConfig(num_buses=1, rfs=(RFConfig(8),)),
        ArchConfig(num_buses=3, num_alus=2, rfs=_CRYPT_RF_OPTIONS[3]),
    ]


def neighbours(config: ArchConfig) -> list[ArchConfig]:
    """Single-parameter mutations of one template."""
    out: list[ArchConfig] = []

    def replace(**kwargs) -> None:
        merged = dict(
            num_buses=config.num_buses,
            num_alus=config.num_alus,
            num_cmps=config.num_cmps,
            num_shifters=config.num_shifters,
            num_muls=config.num_muls,
            rfs=config.rfs,
        )
        merged.update(kwargs)
        out.append(ArchConfig(**merged))

    if config.num_buses < 4:
        replace(num_buses=config.num_buses + 1)
    if config.num_buses > 1:
        replace(num_buses=config.num_buses - 1)
    if config.num_alus < 3:
        replace(num_alus=config.num_alus + 1)
    if config.num_alus > 1:
        replace(num_alus=config.num_alus - 1)
    replace(num_shifters=1 - config.num_shifters)

    try:
        position = _CRYPT_RF_OPTIONS.index(config.rfs)
    except ValueError:
        position = None
    if position is not None:
        if position + 1 < len(_CRYPT_RF_OPTIONS):
            replace(rfs=_CRYPT_RF_OPTIONS[position + 1])
        if position > 0:
            replace(rfs=_CRYPT_RF_OPTIONS[position - 1])
    return out
