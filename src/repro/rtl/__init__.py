"""Full-core RTL emission and model calibration (ROADMAP open item 5).

``repro.rtl`` closes the hardware loop: :mod:`repro.rtl.core` elaborates a
complete TTA core — interconnect sockets and bus muxes from the port
table, a move decoder mirroring :class:`~repro.tta.encoding.MoveEncoder`'s
instruction format, instruction fetch and program memory — around the
existing gate-level component netlists, and emits it as synthesizable
Verilog.  :mod:`repro.rtl.calibrate` then audits the study layer's
numbers against that structure: per-component area deltas between the
emitted gates and the ``TechnologyParameters``-weighted model, and the
static ``cycles`` objective against simulated cycles from the one
activity-traced simulation that also prices the point's energy.
:mod:`repro.rtl.lint` keeps the emitted text self-consistent.
"""

from repro.rtl.core import CoreDesign, RTLError, elaborate_core
from repro.rtl.calibrate import (
    CalibrationReport,
    ComponentDelta,
    calibrate,
    format_calibration_report,
)
from repro.rtl.lint import lint_core, lint_verilog

__all__ = [
    "CalibrationReport",
    "ComponentDelta",
    "CoreDesign",
    "RTLError",
    "calibrate",
    "elaborate_core",
    "format_calibration_report",
    "lint_core",
    "lint_verilog",
]
