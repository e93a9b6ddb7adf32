"""The shipped simulator against the oracle on a workload x config grid.

Runs :func:`tests.test_simulator_oracle._check` -- compile the workload
onto each configuration, then compare the shipped simulator's result,
final state and activity trace with the oracle's -- over every
workload x space configuration x width x tracing mode asked for.
Infeasible points are skipped.  It prints the run count and exits 1 on
the first mismatch.  The name does not match ``test_*.py``, so the test
suite does not collect it.

From the repository root::

    PYTHONPATH=src python3 tests/simulator_corpus.py \\
        --workloads crypt --spaces crypt --widths 8 --tracing on

With no options it runs the whole corpus: every workload on every
``small``, ``dsp`` and ``crypt`` configuration at widths 8 and 16,
tracing off and on (3,168 feasible runs; most of the time goes into the
oracle).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from repro.apps.registry import workload_names  # noqa: E402
from repro.explore.space import space_by_name  # noqa: E402

from tests.test_simulator_oracle import _check  # noqa: E402


def _names(text: str) -> list[str]:
    return [name for name in text.split(",") if name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", type=_names, default=workload_names())
    parser.add_argument("--spaces", type=_names, default=["small", "dsp", "crypt"])
    parser.add_argument(
        "--widths", type=lambda t: [int(w) for w in _names(t)], default=[8, 16]
    )
    parser.add_argument(
        "--tracing", type=_names, default=["off", "on"],
        help="comma-separated subset of off,on",
    )
    args = parser.parse_args(argv)
    modes = [{"off": False, "on": True}[mode] for mode in args.tracing]

    started = time.perf_counter()
    runs = skipped = 0
    for workload in args.workloads:
        for space in args.spaces:
            for config in space_by_name(space):
                for width in args.widths:
                    for activity in modes:
                        try:
                            compared = _check(workload, config, width, activity)
                        except AssertionError as exc:
                            print(f"MISMATCH after {runs} runs: {exc}")
                            return 1
                        runs += compared
                        skipped += not compared
        print(
            f"{workload}: {runs} runs, {skipped} infeasible "
            f"({time.perf_counter() - started:.0f} s)",
            flush=True,
        )
    print(f"{runs} runs matched the oracle ({skipped} infeasible points skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
