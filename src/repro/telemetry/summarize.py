"""Offline trace analysis: turn a recorded JSONL run into tables.

``python -m repro trace summarize FILE.jsonl`` renders what this module
computes: per-run (and whole-trace) phase time tables from the
``metrics`` events, a cache report from the ``cache`` events and point
stream, span/wave accounting, and — for traces written by the study
server — a **job join**: schema-v2 records stamped with ``job``/
``tenant`` ids group server-side lifecycle events (``job_state``,
``queue``, ``metric_snapshot``) with the study-layer runs the job
executed, so one trace answers "what did tenant a's job actually do".
All of it without touching the study stack, so traces can be analysed
on machines that never ran a study.

The summary dict is JSON-safe by construction (``--format json``
round-trips it).
"""

from __future__ import annotations

from pathlib import Path

from repro.telemetry.histogram import Histogram
from repro.telemetry.metrics import format_phases, merge_snapshots
from repro.telemetry.schema import read_trace


def load_trace(path: str | Path) -> list[dict]:
    """Read and schema-validate one trace file."""
    with Path(path).open() as handle:
        return read_trace(handle)


def summarize_trace(records: list[dict]) -> dict:
    """Aggregate one validated record list.

    Returns a plain, JSON-safe dict: ``study`` (name or None),
    ``records``, ``spans`` (name -> {count, seconds}), ``runs`` — one
    entry per run label with its merged metrics snapshot, wave/point
    accounting, cache delta and (for service traces) the owning
    job/tenant — plus ``jobs`` (the service-side join: lifecycle
    transitions, queue actions, run labels and registry snapshots per
    job id), ``metric_snapshots`` (count + the last registry dump) and
    ``metrics``, the all-run merge.
    """
    study = None
    spans: dict[str, dict] = {}
    runs: dict[str, dict] = {}
    jobs: dict[str, dict] = {}
    snapshot_count = 0
    last_snapshot = None

    def run_entry(label: str) -> dict:
        entry = runs.get(label)
        if entry is None:
            entry = runs[label] = {
                "label": label,
                "job": None,
                "tenant": None,
                "waves": 0,
                "points": 0,
                "cached_points": 0,
                "metrics": None,
                "cache": None,
                "seconds": None,
                "failures": [],
                "retries": 0,
                "interrupted": None,
                "calibrations": [],
            }
        return entry

    def job_entry(job_id: str) -> dict:
        entry = jobs.get(job_id)
        if entry is None:
            entry = jobs[job_id] = {
                "job": job_id,
                "tenant": None,
                "states": [],
                "queue": {},
                "runs": [],
                "snapshots": 0,
            }
        return entry

    for record in records:
        study = record.get("study", study)
        name = record["name"]
        label = record.get("run")
        job_id = record.get("job")
        tenant = record.get("tenant")
        data = record.get("data", {})
        if job_id is None and name in ("job_state", "queue"):
            # v1 service traces: the job id rode the ``run`` field and
            # the tenant rode ``data`` — still joinable.
            job_id = label
            tenant = tenant or data.get("tenant")

        if job_id is not None:
            job = job_entry(job_id)
            if tenant is not None:
                job["tenant"] = tenant
            if name == "job_state" and data.get("state"):
                job["states"].append(data["state"])
            elif name == "queue" and data.get("action"):
                action = data["action"]
                job["queue"][action] = job["queue"].get(action, 0) + 1

        if record["kind"] == "metric_snapshot":
            snapshot_count += 1
            last_snapshot = data
            if job_id is not None:
                job_entry(job_id)["snapshots"] += 1
            continue

        # service lifecycle events carry the job id in ``run``; keep
        # them out of the study-run table (they are not run labels).
        if name in ("job_state", "queue"):
            continue

        if record["kind"] == "span":
            span = spans.setdefault(name, {"count": 0, "seconds": 0.0})
            span["count"] += 1
            span["seconds"] = round(span["seconds"] + record["dur"], 6)
            if name == "run" and label is not None:
                entry = run_entry(label)
                entry["seconds"] = round(record["dur"], 6)
                if job_id is not None:
                    entry["job"] = job_id
                if tenant is not None:
                    entry["tenant"] = tenant
        elif record["kind"] == "event" and label is not None:
            entry = run_entry(label)
            if job_id is not None:
                entry["job"] = job_id
            if tenant is not None:
                entry["tenant"] = tenant
            if name == "wave":
                entry["waves"] += 1
            elif name == "point":
                entry["points"] += 1
                if data.get("source") == "cache":
                    entry["cached_points"] += 1
            elif name == "metrics":
                entry["metrics"] = data
            elif name == "cache":
                entry["cache"] = data
            elif name == "failure":
                entry["failures"].append({
                    "config": record.get("config"),
                    "error": data.get("error"),
                    "digest": data.get("digest"),
                    "attempts": data.get("attempts"),
                })
            elif name == "retry":
                entry["retries"] += 1
            elif name == "interrupted":
                entry["interrupted"] = {
                    "completed": data.get("completed"),
                    "total": data.get("total"),
                }
            elif name == "calibration":
                entry["calibrations"].append({
                    "config": record.get("config"),
                    "workload": data.get("workload"),
                    "cycles_delta": data.get("cycles_delta"),
                    "area_ratio": data.get("area_ratio"),
                    "ok": data.get("ok"),
                })

    for run in runs.values():
        if run["job"] is not None and run["job"] in jobs:
            jobs[run["job"]]["runs"].append(run["label"])

    merged = merge_snapshots(
        [r["metrics"] for r in runs.values() if r["metrics"]]
    )
    return {
        "study": study,
        "records": len(records),
        "spans": spans,
        "runs": list(runs.values()),
        "jobs": list(jobs.values()),
        "metric_snapshots": {
            "count": snapshot_count,
            "last": last_snapshot,
        },
        "metrics": merged,
    }


def _cache_lines(cache: dict, indent: str) -> list[str]:
    hits = cache.get("hits", 0)
    misses = cache.get("misses", 0)
    looked = hits + misses
    lines = [
        f"{indent}result cache: {hits} hits / {looked} lookups"
        + (f" ({hits / looked:.1%})" if looked else "")
        + f", {cache.get('puts', 0)} writes"
    ]
    detail = []
    if cache.get("merged_axes"):
        detail.append(f"{cache['merged_axes']} merged post-pass axes")
    if cache.get("bytes_written") is not None:
        detail.append(f"{cache['bytes_written']} bytes written")
    if cache.get("bytes_on_disk") is not None:
        detail.append(f"{cache['bytes_on_disk']} bytes on disk")
    if detail:
        lines.append(f"{indent}              {', '.join(detail)}")
    return lines


def _histogram_lines(histograms: dict, indent: str) -> list[str]:
    lines = []
    for name in sorted(histograms):
        snap = histograms[name]
        if not snap.get("count"):
            continue
        quantiles = Histogram.from_snapshot(snap).quantiles()
        joined = " ".join(
            f"{q}={v * 1000:.2f}ms" if v is not None else f"{q}=-"
            for q, v in quantiles.items()
        )
        lines.append(
            f"{indent}{name}: n={snap['count']} {joined}"
        )
    return lines


def format_trace_summary(summary: dict) -> str:
    """Human-readable report of one :func:`summarize_trace` result."""
    study = summary["study"] or "(unnamed)"
    lines = [
        f"trace of study {study!r}: {summary['records']} records, "
        f"{len(summary['runs'])} run{'s' if len(summary['runs']) != 1 else ''}"
    ]
    for job in summary.get("jobs", []):
        states = " -> ".join(job["states"]) or "(no transitions)"
        queue = ", ".join(
            f"{action} x{count}"
            for action, count in sorted(job["queue"].items())
        )
        header = f"job {job['job']}"
        if job["tenant"]:
            header += f" (tenant {job['tenant']})"
        header += f": {states}"
        lines.append(header)
        detail = []
        if queue:
            detail.append(f"queue: {queue}")
        if job["runs"]:
            detail.append(f"runs: {', '.join(sorted(job['runs']))}")
        if job["snapshots"]:
            detail.append(f"{job['snapshots']} registry snapshot(s)")
        if detail:
            lines.append("  " + " · ".join(detail))
    for run in summary["runs"]:
        header = f"run {run['label']}"
        if run.get("job"):
            header += f" [job {run['job']}]"
        if run["seconds"] is not None:
            header += f" ({run['seconds']:.2f}s)"
        header += (
            f": {run['points']} points over {run['waves']} waves, "
            f"{run['cached_points']} from cache"
        )
        lines.append(header)
        if run["interrupted"]:
            done = run["interrupted"].get("completed")
            total = run["interrupted"].get("total")
            lines.append(
                f"  interrupted after {done}/{total} points"
                if done is not None and total is not None
                else "  interrupted"
            )
        if run["failures"] or run["retries"]:
            quarantined = (run["cache"] or {}).get("quarantined", 0)
            lines.append(
                f"  robustness: {len(run['failures'])} failed, "
                f"{run['retries']} retried, {quarantined} quarantined"
            )
            for failure in run["failures"]:
                lines.append(
                    f"    failed {failure['config']}: {failure['error']} "
                    f"(trace {failure['digest']}, "
                    f"{failure['attempts']} attempt"
                    f"{'s' if failure['attempts'] != 1 else ''})"
                )
        if run["metrics"]:
            lines.append(format_phases(run["metrics"], indent="  "))
            counters = run["metrics"].get("counters", {})
            if counters:
                joined = ", ".join(
                    f"{k}={counters[k]}" for k in sorted(counters)
                )
                lines.append(f"  counters: {joined}")
            lines.extend(
                _histogram_lines(
                    run["metrics"].get("histograms", {}), "  "
                )
            )
        if run.get("calibrations"):
            reports = run["calibrations"]
            drifted = [r for r in reports if not r.get("ok")]
            lines.append(
                f"  calibration: {len(reports)} front point"
                f"{'s' if len(reports) != 1 else ''} audited, "
                f"{len(drifted)} drifted"
            )
            for report in drifted:
                delta = report.get("cycles_delta")
                ratio = report.get("area_ratio")
                lines.append(
                    f"    drift {report.get('config')}: "
                    f"cycles delta {delta:+d}, area ratio {ratio:.2f}"
                    if delta is not None and ratio is not None
                    else f"    drift {report.get('config')}"
                )
        if run["cache"]:
            lines.extend(_cache_lines(run["cache"], "  "))
    snapshots = summary.get("metric_snapshots", {})
    if snapshots.get("count"):
        lines.append(
            f"{snapshots['count']} registry snapshot(s) recorded"
        )
    if len(summary["runs"]) > 1 and summary["metrics"]["phases"]:
        lines.append("all runs:")
        lines.append(format_phases(summary["metrics"], indent="  "))
    return "\n".join(lines)
