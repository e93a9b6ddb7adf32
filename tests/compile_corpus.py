"""The shipped compile path against the oracle on a workload x config grid.

Runs :func:`tests.test_compile_oracle.check_point` -- allocate the
workload for each configuration, then compare the shipped scheduler's
program or error and the shipped validator's findings (``strict`` on
and off) with those of the compile path kept in ``tests/oracles.py`` --
over every workload x space configuration x width.  Points the register
allocator rejects are skipped; points the scheduler rejects are
compared by their error.  It prints the point counts and exits 1 on the
first mismatch.  The name does not match ``test_*.py``,
so the test suite does not collect it.

From the repository root::

    PYTHONPATH=src python3 tests/compile_corpus.py

It runs the whole corpus: every workload on every ``small``, ``dsp``
and ``crypt`` configuration at widths 8 and 16 (2,304 points).  A
reported mismatch reproduces with ``check_point`` alone.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.apps.registry import workload_names  # noqa: E402
from repro.explore.space import space_by_name  # noqa: E402

from tests.test_compile_oracle import check_point  # noqa: E402


#: The explored template spaces and datapath widths of the corpus.
SPACES = ("small", "dsp", "crypt")
WIDTHS = (8, 16)


def main() -> int:
    started = time.perf_counter()
    compiled = rejected = unallocated = 0
    for workload in workload_names():
        for space in SPACES:
            for config in space_by_name(space):
                for width in WIDTHS:
                    try:
                        outcome = check_point(workload, config, width)
                    except AssertionError as exc:
                        print(
                            f"MISMATCH: {workload} on {space}/{config.label()} "
                            f"w{width}: {exc}"
                        )
                        return 1
                    if outcome is None:
                        unallocated += 1
                    elif outcome:
                        compiled += 1
                    else:
                        rejected += 1
        print(
            f"{workload}: {compiled} compiled, {rejected} rejected by the "
            f"scheduler, {unallocated} unallocatable "
            f"({time.perf_counter() - started:.0f} s)",
            flush=True,
        )
    points = compiled + rejected + unallocated
    print(
        f"{points} points, 0 mismatches: {compiled} programs and "
        f"{rejected} schedule errors matched the oracle "
        f"({unallocated} unallocatable points skipped)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
