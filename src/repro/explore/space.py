"""The architecture configuration space.

A point in the space is an :class:`ArchConfig`: bus count, number of
ALUs/comparators/shifters, and the register-file arrangement.  Every
configuration also carries the fixed per-architecture units (one LSU, one
PC, one immediate unit) which the paper excludes from the cost ranking
because "they always appear once for arbitrary architecture and
application".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from repro.components.library import (
    alu_spec,
    cmp_spec,
    imm_spec,
    lsu_spec,
    mul_spec,
    pc_spec,
    rf_spec,
    shifter_spec,
)
from repro.tta.arch import Architecture, UnitInstance


@dataclass(frozen=True)
class RFConfig:
    """One register file: size and port arrangement."""

    num_regs: int
    read_ports: int = 1
    write_ports: int = 1

    def __str__(self) -> str:
        return f"{self.num_regs}r{self.read_ports}R{self.write_ports}W"

    def to_dict(self) -> dict:
        return {
            "num_regs": self.num_regs,
            "read_ports": self.read_ports,
            "write_ports": self.write_ports,
        }

    @classmethod
    def from_dict(cls, data: dict) -> RFConfig:
        return cls(
            num_regs=int(data["num_regs"]),
            read_ports=int(data.get("read_ports", 1)),
            write_ports=int(data.get("write_ports", 1)),
        )


@dataclass(frozen=True)
class ArchConfig:
    """One candidate TTA template."""

    num_buses: int
    num_alus: int = 1
    num_cmps: int = 1
    num_shifters: int = 0
    num_muls: int = 0
    rfs: tuple[RFConfig, ...] = (RFConfig(8),)

    def label(self) -> str:
        rf_text = "+".join(str(rf) for rf in self.rfs)
        parts = [f"b{self.num_buses}", f"alu{self.num_alus}"]
        if self.num_cmps != 1:
            parts.append(f"cmp{self.num_cmps}")
        if self.num_shifters:
            parts.append(f"sh{self.num_shifters}")
        if self.num_muls:
            parts.append(f"mul{self.num_muls}")
        parts.append(rf_text)
        return "-".join(parts)

    @property
    def total_registers(self) -> int:
        return sum(rf.num_regs for rf in self.rfs)

    def to_dict(self) -> dict:
        return {
            "num_buses": self.num_buses,
            "num_alus": self.num_alus,
            "num_cmps": self.num_cmps,
            "num_shifters": self.num_shifters,
            "num_muls": self.num_muls,
            "rfs": [rf.to_dict() for rf in self.rfs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> ArchConfig:
        return cls(
            num_buses=int(data["num_buses"]),
            num_alus=int(data.get("num_alus", 1)),
            num_cmps=int(data.get("num_cmps", 1)),
            num_shifters=int(data.get("num_shifters", 0)),
            num_muls=int(data.get("num_muls", 0)),
            rfs=tuple(
                RFConfig.from_dict(rf)
                for rf in data.get("rfs", ({"num_regs": 8},))
            ),
        )


def build_architecture(config: ArchConfig, width: int = 16) -> Architecture:
    """Instantiate the template (full port->bus connectivity)."""
    units: list[UnitInstance] = []
    for i in range(config.num_alus):
        units.append(UnitInstance(f"alu{i}", alu_spec(width)))
    for i in range(config.num_cmps):
        units.append(UnitInstance(f"cmp{i}", cmp_spec(width)))
    for i in range(config.num_shifters):
        units.append(UnitInstance(f"shifter{i}", shifter_spec(width)))
    for i in range(config.num_muls):
        units.append(UnitInstance(f"mul{i}", mul_spec(width)))
    for i, rf in enumerate(config.rfs):
        units.append(
            UnitInstance(
                f"rf{i}",
                rf_spec(rf.num_regs, width, rf.read_ports, rf.write_ports),
            )
        )
    units.append(UnitInstance("lsu0", lsu_spec(width)))
    units.append(UnitInstance("pc", pc_spec(width)))
    units.append(UnitInstance("imm0", imm_spec(width)))
    return Architecture(
        name=config.label(),
        width=width,
        num_buses=config.num_buses,
        units=units,
    )


@lru_cache(maxsize=1024)
def build_architecture_cached(config: ArchConfig, width: int = 16) -> Architecture:
    """Shared :class:`Architecture` instance for a (config, width) pair.

    ``ArchConfig`` is frozen, so equal configs always instantiate the
    same template; the evaluation pipeline and the test-cost layer both
    consult this cache instead of rebuilding (``attach_test_costs`` used
    to reconstruct every Pareto point's architecture from scratch).
    Callers must treat the returned object as immutable — anyone who
    needs a private mutable copy should call :func:`build_architecture`.
    """
    return build_architecture(config, width)


#: Register-file arrangements offered to the Crypt exploration, small to
#: large; the iterative walk's RF mutations step along this order.
_CRYPT_RF_OPTIONS: tuple[tuple[RFConfig, ...], ...] = (
    (RFConfig(4),),
    (RFConfig(8),),
    (RFConfig(12),),
    (RFConfig(8), RFConfig(12)),            # the Fig. 9 arrangement
    (RFConfig(8, read_ports=2), RFConfig(12)),
    (RFConfig(12, read_ports=2), RFConfig(12, read_ports=2)),
    (RFConfig(16, read_ports=2, write_ports=2),),
)


def crypt_space() -> list[ArchConfig]:
    """The configuration grid explored for the Crypt application.

    4 bus counts x 3 ALU counts x 2 shifter options x 7 RF arrangements
    = 168 candidate templates, the same order of magnitude as the MOVE
    exploration sweeps.
    """
    space = []
    for buses, alus, shifters, rfs in itertools.product(
        (1, 2, 3, 4), (1, 2, 3), (0, 1), _CRYPT_RF_OPTIONS
    ):
        space.append(
            ArchConfig(
                num_buses=buses,
                num_alus=alus,
                num_shifters=shifters,
                rfs=rfs,
            )
        )
    return space


def small_space() -> list[ArchConfig]:
    """A fast sub-grid for unit tests and quick demos (12 points)."""
    space = []
    for buses, alus in itertools.product((1, 2, 3), (1, 2)):
        for rfs in ((RFConfig(8),), (RFConfig(8), RFConfig(12))):
            space.append(ArchConfig(num_buses=buses, num_alus=alus, rfs=rfs))
    return space


def dsp_space() -> list[ArchConfig]:
    """A MUL-equipped sub-grid for the DSP kernels (FIR, dot product).

    The plain Crypt grids carry no multiplier, so ``mul``-using workloads
    compile on none of their points; this grid adds one MUL to every
    template (12 points).
    """
    space = []
    for buses, alus, rfs in itertools.product(
        (2, 3, 4),
        (1, 2),
        ((RFConfig(8),), (RFConfig(8, read_ports=2), RFConfig(12))),
    ):
        space.append(
            ArchConfig(num_buses=buses, num_alus=alus, num_muls=1, rfs=rfs)
        )
    return space


#: Named configuration grids addressable from specs and the CLI.
_SPACE_BUILDERS = {
    "crypt": crypt_space,
    "small": small_space,
    "dsp": dsp_space,
}


def space_names() -> list[str]:
    """Names accepted by :func:`space_by_name` (sorted)."""
    return sorted(_SPACE_BUILDERS)


def space_by_name(name: str) -> list[ArchConfig]:
    """Build a named configuration grid (``crypt``, ``small``, ``dsp``)."""
    try:
        builder = _SPACE_BUILDERS[name]
    except KeyError:
        known = ", ".join(space_names())
        raise KeyError(f"unknown space {name!r} (known: {known})") from None
    return builder()
