"""End-to-end and per-layer benchmark of the study flow.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_atpg --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the workload is repeated, each repetition in a fresh
interpreter (``perfbench/rep.py``) with its own ATPG and result-cache
directories, until ``--seconds`` would be exceeded; the end-to-end
metrics are medians over the repetitions.  With ``--trace 1`` one
untraced and one traced repetition run, and the per-layer metrics come
from the traced one.  Every repetition is checked against the reference
results in ``perfbench/reference/``; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Everything the benchmark writes goes under ``.perfbench/`` in the
repository root: per-run temporary directories (removed on exit), the
pre-warmed ATPG directory ``warm_study`` copies (built once per source
tree), and a JSON report per run with host metadata and raw samples
(plus the spans of a traced run).

``--write-reference`` regenerates the reference file of one workload
from the current source tree instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans
from workloads import SWEEP_READ_PASSES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = ROOT / ".perfbench"
REFERENCE = BENCH / "reference"

#: Set-up-only interpreters started per timed run, besides the repetitions.
SETUP_PROBES = 5
#: No child may still be running this long after the benchmark started.
DEADLINE_S = 170.0


class RepFailed(RuntimeError):
    pass


# ----------------------------------------------------------------------
# repetitions
# ----------------------------------------------------------------------
def spawn(workload: str, seed: int, mode: str, deadline: float,
          atpg_from: Path | None = None, atpg_dir: Path | None = None) -> dict:
    """Run ``rep.py`` once in a fresh interpreter; return its record.

    The child gets its own temporary working, ATPG and result-cache
    directories (the ATPG one a copy of ``atpg_from`` when given, or
    ``atpg_dir`` itself when the caller keeps it), so it can neither
    see nor touch ``~/.cache/repro-tta``.  ``setup_s`` is measured from
    just before the spawn to the child's first ``Study.run()`` call.
    """
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-{mode}-", dir=OUT / "tmp"))
    try:
        if atpg_dir is None:
            atpg_dir = tmp / "atpg"
            if atpg_from is not None:
                shutil.copytree(atpg_from, atpg_dir)
            else:
                atpg_dir.mkdir()
        env = dict(os.environ)
        env.update(
            PYTHONPATH=str(ROOT / "src"),
            REPRO_ATPG_CACHE=str(atpg_dir),
            REPRO_CAMPAIGN_CACHE=str(tmp / "cache"),
        )
        out = tmp / "record.json"
        command = [
            sys.executable, str(BENCH / "rep.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--out", str(out),
        ]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(
                command, cwd=tmp, env=env, capture_output=True, text=True,
                timeout=max(1.0, deadline - spawned),
            )
        except subprocess.TimeoutExpired:
            raise RepFailed(f"{workload} {mode}: timed out") from None
        wall_s = time.monotonic() - spawned
        if proc.returncode != 0:
            tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
            raise RepFailed(f"{workload} {mode}: exit {proc.returncode}\n{tail}")
        record = json.loads(out.read_text())
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["setup_s"] = record.pop("setup_at") - spawned
    record["wall_s"] = wall_s
    return record


def _source_digest() -> str:
    """Content hash of the program and of the workload definitions."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + [BENCH / "workloads.py"]
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def warm_atpg_dir(deadline: float) -> tuple[Path, dict]:
    """The pre-warmed ATPG directory for this source tree, built once.

    The warm-up is a cold test-cost study over ``warm_study``'s slice;
    it runs outside every timed region, and its duration is kept next
    to the directory.  The directory appears atomically (rename), so an
    interrupted warm-up leaves nothing behind that a later run trusts.
    """
    final = OUT / f"atpg-warm-{_source_digest()}"
    meta = final / "warmup.json"
    if meta.is_file():
        return final / "atpg", dict(json.loads(meta.read_text()), built_this_run=False)
    OUT.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix="atpg-warm-", dir=OUT))
    try:
        (staging / "atpg").mkdir()
        started = time.monotonic()
        spawn("warm_study", 0, "warmup", deadline, atpg_dir=staging / "atpg")
        info = {"warmup_s": time.monotonic() - started}
        (staging / "warmup.json").write_text(json.dumps(info))
        try:
            staging.rename(final)
        except OSError:
            if not meta.is_file():  # not a concurrent run that won the race
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return final / "atpg", dict(info, built_this_run=True)


# ----------------------------------------------------------------------
# correctness oracle
# ----------------------------------------------------------------------
def load_reference(workload: str) -> dict:
    return json.loads((REFERENCE / f"{workload}.json").read_text())


def _run_mismatches(run: dict, ref: dict) -> int:
    """Config labels whose objective vector or front membership differs."""
    labels = set(run["points"]) | set(ref["points"])
    bad = {l for l in labels if run["points"].get(l) != ref["points"].get(l)}
    bad |= set(run["front"]) ^ set(ref["front"])
    return len(bad)


def check(record: dict, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of one repetition.

    Operations are the evaluated points plus the post-passed front
    points (and, on ``cold_atpg``, the calibrations and the component
    characterisations).  An operation fails if it raised, if its
    objective vector or front membership differs from the reference,
    or if its RTL calibration drifted.
    """
    attempted = failed = 0
    problems: list[str] = []
    for index, runs in enumerate(record["passes"]):
        for label, ref in reference["runs"].items():
            run = runs.get(label)
            if run is None:
                attempted += ref["operations"]
                failed += ref["operations"]
                problems.append(f"pass {index}: {label} missing")
                continue
            bad = _run_mismatches(run, ref) + run["failures"] + run["drifted"]
            attempted += run["operations"]
            failed += min(bad, run["operations"])
            if bad:
                problems.append(f"pass {index}: {label}: {bad} mismatches")
    components = reference.get("components", {})
    if components:
        attempted += len(components)
        wrong = [n for n in components if record["components"].get(n) != components[n]]
        failed += len(wrong)
        if wrong:
            problems.append(f"component n_p/aborted differ: {', '.join(wrong)}")
    return attempted, failed, problems


def _results(record: dict) -> list[dict]:
    """Per pass: label -> (objective vectors, front), for comparisons."""
    return [
        {label: (run["points"], run["front"]) for label, run in runs.items()}
        for runs in record["passes"]
    ]


def expected_operations(reference: dict, passes: int) -> int:
    ops = sum(r["operations"] for r in reference["runs"].values())
    return ops * passes + len(reference.get("components", {}))


# ----------------------------------------------------------------------
# per-layer metrics of a traced repetition
# ----------------------------------------------------------------------
def layer_metrics(traced: dict, untraced_study_s: float) -> dict[str, tuple[float, str]]:
    span_list = [spans.Span(*s) for s in traced["spans"]]
    table = spans.summarize(span_list)
    counters = traced["counters"]
    phases: dict[str, dict] = {}
    for runs in traced["passes"]:
        for run in runs.values():
            for name, row in run["phases"].items():
                acc = phases.setdefault(name, {"calls": 0, "seconds": 0.0})
                acc["calls"] += row["calls"]
                acc["seconds"] += row["seconds"]

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return table.get(name, {}).get(key, 0.0)

    def micros(name, q):
        values = [s.end - s.start for s in span_list if s.name == name]
        return spans.percentile(values, q) * 1e6

    def phase(name, key="seconds"):
        return phases.get(name, {}).get(key, 0)

    root_total = secs("study")
    sim_s = secs("tta.sim")
    misses = counters.get("atpg.faultsim_built", 0)
    return {
        "atpg.run_calls": (calls("atpg.run"), "count"),
        "atpg.run_s": (secs("atpg.run"), "s"),
        "atpg.self_s": (secs("atpg.run", "self_s"), "s"),
        "atpg.podem_calls": (calls("atpg.podem"), "count"),
        "atpg.podem_s": (secs("atpg.podem"), "s"),
        "atpg.faultsim_calls": (calls("atpg.faultsim"), "count"),
        "atpg.faultsim_s": (secs("atpg.faultsim"), "s"),
        "atpg.cache_hits": (calls("atpg.run") - misses, "count"),
        "atpg.cache_misses": (misses, "count"),
        "atpg.patterns": (counters.get("atpg.patterns", 0), "count"),
        "atpg.aborted": (counters.get("atpg.aborted", 0), "count"),
        "memtest.march_calls": (calls("memtest.march"), "count"),
        "memtest.march_s": (secs("memtest.march"), "s"),
        "testcost.attach_s": (secs("testcost.attach"), "s"),
        "testcost.points": (counters.get("testcost.points", 0), "count"),
        "tta.sim_calls": (calls("tta.sim"), "count"),
        "tta.sim_s": (sim_s, "s"),
        "tta.sim_cycles": (counters.get("tta.sim_cycles", 0), "count"),
        "tta.sim_kcycles_per_s": (
            counters.get("tta.sim_cycles", 0) / sim_s / 1e3 if sim_s else 0.0,
            "kcycles/s",
        ),
        "tta.tracing_multiplier": (traced["tracing_multiplier"]["multiplier"], "ratio"),
        "energy.attach_s": (secs("energy.attach"), "s"),
        "energy.simulated": (calls("energy.point"), "count"),
        "energy.model_s": (secs("energy.model"), "s"),
        "compiler.schedule_calls": (phase("schedule", "calls"), "count"),
        "compiler.schedule_s": (phase("schedule"), "s"),
        "compiler.regalloc_calls": (phase("regalloc", "calls"), "count"),
        "compiler.regalloc_s": (phase("regalloc"), "s"),
        "tta.validate_s": (phase("validate"), "s"),
        "explore.build_s": (phase("build"), "s"),
        "explore.netlist_stats_s": (phase("netlist_stats"), "s"),
        "study.search_s": (secs("study.search"), "s"),
        "study.profile_s": (secs("study.profile"), "s"),
        "campaign.cache_get_calls": (calls("campaign.cache_get"), "count"),
        "campaign.cache_get_us_p50": (micros("campaign.cache_get", 50.0), "us"),
        "campaign.cache_get_us_p99": (micros("campaign.cache_get", 99.0), "us"),
        "campaign.cache_put_calls": (calls("campaign.cache_put"), "count"),
        "campaign.cache_put_us_p50": (micros("campaign.cache_put", 50.0), "us"),
        "campaign.cache_put_us_p99": (micros("campaign.cache_put", 99.0), "us"),
        "campaign.cache_bytes_written": (traced["cache_bytes_written"], "bytes"),
        "rtl.calibrate_calls": (calls("rtl.calibrate"), "count"),
        "rtl.calibrate_s": (secs("rtl.calibrate"), "s"),
        "rtl.elaborate_s": (secs("rtl.elaborate"), "s"),
        "rtl.drifted": (counters.get("rtl.drifted", 0), "count"),
        "telemetry.traced_study_s": (traced["study_s"], "s"),
        "telemetry.overhead_ratio": (traced["study_s"] / untraced_study_s, "ratio"),
        "telemetry.attributed_share": (
            1.0 - secs("study", "self_s") / root_total if root_total else 0.0,
            "ratio",
        ),
    }


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def host_metadata() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "loadavg_at_start": list(os.getloadavg()),
    }


def write_reference(workload: str) -> int:
    deadline = time.monotonic() + 10 * DEADLINE_S
    seed_dir = warm_atpg_dir(deadline)[0] if WORKLOADS[workload].warm_atpg else None
    record = spawn(workload, 0, "timed", deadline, atpg_from=seed_dir)
    runs = {
        label: {k: run[k] for k in ("points", "front", "operations")}
        for label, run in record["passes"][0].items()
    }
    reference = {"workload": workload, "seed": 0, "runs": runs}
    if not WORKLOADS[workload].warm_atpg and record["components"]:
        reference["components"] = record["components"]
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{workload}.json"
    text = json.dumps(reference, indent=1, sort_keys=True)
    # One line per objective vector and per front keeps the file small
    # and its diffs readable.
    text = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text
    )
    path.write_text(text + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return 0


def measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    started = time.monotonic()
    deadline = started + DEADLINE_S
    entry = WORKLOADS[workload]
    reference = load_reference(workload)
    report: dict = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "host": host_metadata(),
    }
    atpg_from = None
    if entry.warm_atpg:
        atpg_from, report["warmup"] = warm_atpg_dir(deadline)

    attempted = failed = 0
    problems: list[str] = []
    records: list[dict] = []

    def rep(mode: str) -> dict | None:
        nonlocal attempted, failed
        try:
            record = spawn(workload, seed, mode, deadline, atpg_from=atpg_from)
        except RepFailed as exc:
            ops = expected_operations(
                reference, 1 + (SWEEP_READ_PASSES if entry.result_cache else 0)
            )
            attempted += ops
            failed += ops
            problems.append(str(exc))
            return None
        a, f, p = check(record, reference)
        attempted += a
        failed += f
        problems.extend(p)
        return record

    metrics: dict[str, tuple[float, str]] = {}
    if not trace:
        setups = []
        for _ in range(SETUP_PROBES):
            setups.append(spawn(workload, seed, "setup", deadline)["setup_s"])
        reps_started = time.monotonic()
        while True:
            record = rep("timed")
            if record is None:
                break
            records.append(record)
            setups.append(record["setup_s"])
            elapsed = time.monotonic() - reps_started
            if elapsed + record["wall_s"] > seconds:
                break
        if records:
            metrics = {
                "study_s": (statistics.median(r["study_s"] for r in records), "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in records), "MB"),
            }
        report["samples"] = {
            "study_s": [r["study_s"] for r in records],
            "setup_s": setups,
            "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        }
    else:
        untraced = rep("timed")
        traced = rep("traced")
        if untraced is not None and traced is not None:
            records = [untraced, traced]
            if _results(traced) != _results(untraced):
                problems.append("traced results differ from untraced results")
                failed += 1
            metrics = layer_metrics(traced, untraced["study_s"])
            table = spans.summarize([spans.Span(*s) for s in traced["spans"]])
            report["layers"] = table
            (OUT / "traces").mkdir(parents=True, exist_ok=True)
            (OUT / "traces" / f"{workload}-seed{seed}.json").write_text(
                json.dumps({"spans": traced["spans"], "layers": table})
            )
        report["samples"] = {
            "study_s": [r["study_s"] for r in records],
            "setup_s": [r["setup_s"] for r in records],
        }

    report["problems"] = problems
    report["elapsed_s"] = time.monotonic() - started
    report["metrics"] = {k: v for k, (v, _u) in metrics.items()}
    (OUT / "reports").mkdir(parents=True, exist_ok=True)
    (OUT / "reports" / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=1)
    )
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    if not metrics:
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(f"workload={workload} seed={seed} trace={int(trace)} "
          f"reps={len(records)} elapsed={report['elapsed_s']:.1f}s")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Study-flow benchmark (see the module docstring)."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the running child is killed and
    # waited for, and its temporary directories are removed.
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.write_reference:
            return write_reference(args.workload)
        return measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except RepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
