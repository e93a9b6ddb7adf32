"""The ``python -m repro`` command line.

The batch subcommands drive the paper's flow:

* ``study``    — the one exploration entry point: a declarative spec
  (workloads, space, objectives, strategy) through the study engine;
  a campaign over several spaces or widths is one ``study`` per
  (space, width) sharing ``--cache-dir``,
* ``rtl``      — emit one configuration as a synthesizable core, or
  report one (workload, configuration) point: the model-vs-RTL audit
  and the component-level energy breakdown of its traced simulation,
* ``report``   — re-emit / Pareto-filter previously exported results,
* ``list``     — show the registered workloads, spaces, objectives,
  search strategies and technology parameter sets,
* ``trace``    — validate / summarize a recorded telemetry trace,
* ``cache``    — verify / repair / stat an on-disk result cache.

The service subcommands run the same engine as a long-lived job server
(see :mod:`repro.service`):

* ``serve``    — start the study server on a unix socket or TCP port,
* ``submit``   — send a study spec to a server (``--watch`` streams
  partial fronts and the job's state transitions),
* ``jobs``     — list a server's queue,
* ``results``  — fetch a finished job's result JSON,
* ``cancel``   — cancel a queued or running job.

``study`` takes ``--fault-policy skip|retry`` (plus ``--max-retries``
and ``--point-timeout``) so one dying configuration costs a point, not
the run, checkpoints with ``--checkpoint FILE`` / ``--checkpoint-every
N`` and continues a killed run with ``--resume FILE``.  Study exit
codes are structured: 0 clean, 1 usage/runtime error, 3 interrupted
(partial result), 4 completed but with failed points recorded.

``study`` accepts ``--profile`` to dump a cProfile top-25
(cumulative) of the run to stderr and ``--trace FILE.jsonl`` to record
the structured telemetry stream, whose per-run ``metrics`` events carry
the phase timers, counters and histograms (``trace summarize --format
json`` reads them back); both are strictly opt-in and change no
results.

All tabular output goes through :mod:`repro.reporting`, so files written
here feed straight back into ``report`` (and any spreadsheet).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.apps.registry import workload_entry, workload_names
from repro.campaign import ResultCache
from repro.energy import technology_by_name, technology_names
from repro.explore.space import ArchConfig, space_by_name, space_names
from repro.reporting import (
    exploration_from_csv,
    exploration_from_json,
    exploration_rows,
    exploration_to_csv,
    exploration_to_json,
)
from repro.study import (
    Study,
    StudySpec,
    objective_by_name,
    objective_names,
    pareto_front,
    strategy_by_name,
    strategy_names,
)
from repro.telemetry import NULL_TRACER, Tracer


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text if text.endswith("\n") else text + "\n")
        print(f"wrote {output}", file=sys.stderr)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _progress(line: str) -> None:
    print(line, file=sys.stderr)


def _maybe_profiled(args: argparse.Namespace, call):
    """Run ``call()``, optionally under cProfile (top-25 to stderr)."""
    if not getattr(args, "profile", False):
        return call()
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return call()
    finally:
        profiler.disable()
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats(
            "cumulative"
        ).print_stats(25)
        print(stream.getvalue(), file=sys.stderr)


def _make_cache(args: argparse.Namespace) -> ResultCache | None:
    if args.no_cache:
        return None
    return ResultCache(args.cache_dir)


def _make_tracer(args: argparse.Namespace) -> Tracer:
    """A Tracer on ``--trace FILE.jsonl``, else :data:`NULL_TRACER`."""
    if not args.trace:
        return NULL_TRACER
    return Tracer(args.trace)


def _make_policy(args: argparse.Namespace):
    """A FaultPolicy from ``--fault-policy``/friends, or None (default)."""
    mode = getattr(args, "fault_policy", None)
    timeout = getattr(args, "point_timeout", None)
    retries = getattr(args, "max_retries", None)
    if mode is None and timeout is None and retries is None:
        return None
    from repro.resilience import FaultPolicy

    return FaultPolicy(
        mode=mode or "fail_fast",
        max_retries=2 if retries is None else retries,
        timeout=timeout,
    )


def _make_cancel(args: argparse.Namespace):
    """A CancelToken from ``--cancel-after N``, or None."""
    after = getattr(args, "cancel_after", None)
    if not after:
        return None
    from repro.resilience import CancelToken

    return CancelToken(after_points=after)


def _study_exit_code(result) -> int:
    """0 clean; 3 interrupted (partial result); 4 failed points."""
    if result.interrupted:
        return 3
    if result.failures:
        return 4
    return 0


def _points_text(points, fmt: str) -> str:
    if fmt == "csv":
        return exploration_to_csv(points)
    return exploration_to_json(points)


def _selection_lines(runs) -> list[str]:
    lines = []
    for run in runs:
        if run.selection is not None:
            sel = run.selection
            lines.append(
                f"selected [{run.label}]: {sel.point.label} "
                f"(norm={sel.norm:.4f})"
            )
    return lines


# ----------------------------------------------------------------------
# study
# ----------------------------------------------------------------------
def _parse_param(text: str) -> tuple[str, object]:
    """``key=value`` with value coerced to int/float when possible."""
    if "=" not in text:
        raise SystemExit(f"study: --param needs KEY=VALUE, got {text!r}")
    key, raw = text.split("=", 1)
    value: object = raw
    for cast in (int, float):
        try:
            value = cast(raw)
            break
        except ValueError:
            continue
    return key, value


def _study_spec_from_args(args: argparse.Namespace) -> StudySpec:
    if args.spec:
        return StudySpec.from_json(Path(args.spec).read_text())
    if not args.workloads:
        raise SystemExit("study: need --spec FILE or --workloads LIST")
    return StudySpec(
        name=args.name,
        workloads=tuple(args.workloads.split(",")),
        space=args.space,
        width=args.width,
        objectives=tuple(args.objectives.split(",")),
        strategy=args.strategy,
        strategy_params=dict(
            _parse_param(p) for p in (args.param or ())
        ),
        select=args.select,
        march=args.march,
        tech=args.tech,
    )


def _run_study(args: argparse.Namespace, spec: StudySpec | None):
    """Build and run one study from parsed CLI args (shared plumbing).

    ``spec=None`` means ``--resume``: the spec is rebuilt (and
    hash-verified) from the checkpoint file instead of the flags.
    The tracer is closed in the ``finally`` so an interrupted run
    still leaves a valid JSONL trace behind.
    """
    tracer = _make_tracer(args)
    common = dict(
        cache=_make_cache(args),
        workers=args.workers,
        progress=None if args.quiet else _progress,
        tracer=tracer,
        policy=_make_policy(args),
        cancel=_make_cancel(args),
        checkpoint_every=getattr(args, "checkpoint_every", None) or 16,
        calibrate_front=getattr(args, "calibrate", False),
    )
    try:
        if spec is None:
            study = Study.resume(args.resume, **common)
        else:
            study = Study(
                spec,
                checkpoint=getattr(args, "checkpoint", None),
                **common,
            )
        return _maybe_profiled(args, study.run)
    finally:
        tracer.close()


def cmd_study(args: argparse.Namespace) -> int:
    spec = None if getattr(args, "resume", None) else (
        _study_spec_from_args(args)
    )
    result = _run_study(args, spec)
    for failure in result.failures:
        print(f"failed: {failure}", file=sys.stderr)
    if result.interrupted:
        print("study interrupted: result is partial", file=sys.stderr)
    if args.format == "summary":
        text = result.summary()
        for line in _selection_lines(result.runs):
            text += "\n" + line
        for run in result.runs:
            if run.calibrations:
                drifted = [r for r in run.calibrations if not r.ok]
                text += (
                    f"\n{run.label}: calibrated {len(run.calibrations)} "
                    f"front points, {len(drifted)} drifted"
                )
                for report in drifted:
                    text += (
                        f"\n  drift {report.config}: cycles "
                        f"{report.cycles_delta:+d}, area ratio "
                        f"{report.area_ratio:.2f}"
                    )
    else:
        if len(result.runs) != 1:
            raise SystemExit(
                "study: csv/json export needs a single-workload study "
                "(use --format summary)"
            )
        run = result.single
        points = run.pareto if args.pareto else run.result.points
        text = _points_text(points, args.format)
    _emit(text, args.output)
    return _study_exit_code(result)


# ----------------------------------------------------------------------
# rtl (full-core emission + the one-point report)
# ----------------------------------------------------------------------
def _config_from_args(args: argparse.Namespace):
    """The ArchConfig named by ``--config FILE`` or ``--space/--index``."""
    if args.config:
        return ArchConfig.from_dict(json.loads(Path(args.config).read_text()))
    space = space_by_name(args.space)
    if not 0 <= args.index < len(space):
        raise ValueError(
            f"--index {args.index} outside space "
            f"{args.space!r} (0..{len(space) - 1})"
        )
    return space[args.index]


def cmd_rtl(args: argparse.Namespace) -> int:
    from repro.apps.registry import build_workload
    from repro.explore.evaluate import EvaluationContext
    from repro.explore.space import build_architecture_cached
    from repro.rtl import (
        calibrate,
        elaborate_core,
        format_calibration_report,
        lint_core,
    )
    from repro.study.engine import workload_profile

    config = _config_from_args(args)

    if args.rtl_command == "emit":
        arch = build_architecture_cached(config, args.width)
        program = None
        if args.workload:
            workload = build_workload(args.workload)
            profile = workload_profile(args.workload, args.width)
            context = EvaluationContext(workload, profile, args.width)
            point = context.evaluate(config, keep_compile_result=True)
            if not point.feasible:
                raise ValueError(
                    f"{args.workload} does not compile onto "
                    f"{config.label()}"
                )
            program = point.compile_result.program
        design = elaborate_core(arch, program=program, top_name=args.top)
        problems = lint_core(design)
        for problem in problems:
            print(f"lint: {problem}", file=sys.stderr)
        if args.format == "json":
            text = json.dumps(
                {
                    "top": design.top_name,
                    "config": config.label(),
                    "width": args.width,
                    "modules": list(design.modules),
                    "instances": design.instances,
                    "flop_bits": design.flop_bits,
                    "instruction_bits": design.instruction_bits,
                    "num_instructions": design.num_instructions,
                    "imem_bits": design.imem_bits,
                    "lint_problems": problems,
                },
                indent=2,
            )
        else:
            text = design.verilog
        _emit(text, args.output)
        return 1 if problems else 0

    # calibrate
    workload = build_workload(args.workload)
    tech = technology_by_name(args.tech)
    report = calibrate(
        workload, config, width=args.width, tech=tech,
        max_cycles=args.max_cycles,
    )
    if args.format == "json":
        text = json.dumps(report.to_dict(), indent=2)
    else:
        text = format_calibration_report(report)
    _emit(text, args.output)
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.input)
    text = path.read_text()
    if path.suffix == ".csv":
        points = exploration_from_csv(text)
    else:
        points = exploration_from_json(text)
    if args.pareto:
        points = pareto_front(points, ("area", "cycles"))
    if args.format == "summary":
        rows = exploration_rows(points)
        widths = {k: max(len(k), *(len(str(r[k])) for r in rows))
                  for k in rows[0]} if rows else {}
        cols = [k for k in widths if k != "config"]
        lines = ["  ".join(k.ljust(widths[k]) for k in cols)]
        for r in rows:
            lines.append(
                "  ".join(str(r[k]).ljust(widths[k]) for k in cols)
            )
        out = "\n".join(lines)
    else:
        out = _points_text(points, args.format)
    _emit(out, args.output)
    return 0


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def _cache_stats_text(cache: ResultCache) -> str:
    """The ``cache stats`` report: shards, sizes, lifetime counters."""
    shards = cache.shard_stats()
    entries = sum(s["entries"] for s in shards.values())
    total = sum(s["bytes"] for s in shards.values())
    lines = [
        f"cache {cache.directory}: {entries} entries, "
        f"{total} bytes in {len(shards)} shard(s)"
    ]
    for name in sorted(shards):
        shard = shards[name]
        lines.append(
            f"  shard {name:<6} {shard['entries']:>6} entries  "
            f"{shard['bytes']:>10} bytes"
        )
    quarantined = cache.quarantined_entries()
    if quarantined:
        lines.append(f"quarantine: {quarantined} entries")
    persisted = cache.persisted_stats()
    if persisted:
        lookups = persisted.get("hits", 0) + persisted.get("misses", 0)
        rate = persisted.get("hits", 0) / lookups if lookups else 0.0
        lines.append(
            "lifetime: "
            f"{persisted.get('hits', 0)} hits / {lookups} lookups "
            f"({rate:.1%}), {persisted.get('puts', 0)} puts, "
            f"{persisted.get('merged_axes', 0)} merged axes, "
            f"{persisted.get('quarantined', 0)} quarantined, "
            f"{persisted.get('evictions', 0)} evicted"
        )
    else:
        lines.append(
            "lifetime: no persisted counters yet (the study server "
            "records them)"
        )
    return "\n".join(lines)


def cmd_cache(args: argparse.Namespace) -> int:
    """``cache verify|repair|stats``: inspect a result-cache directory.

    ``verify`` reports and exits 1 when corrupt entries exist (leaving
    them in place); ``repair`` moves them to ``<dir>/quarantine/`` and
    exits 0 — re-evaluation then replaces them on the next run.
    ``stats`` prints per-shard entry counts and sizes plus the
    persisted lifetime hit/miss/quarantine counters.
    """
    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        _emit(_cache_stats_text(cache), getattr(args, "output", None))
        return 0
    report = cache.verify(repair=args.action == "repair")
    print(
        f"cache {cache.directory}: {report['checked']} entries, "
        f"{report['ok']} ok, {report['stale']} stale, "
        f"{len(report['corrupt'])} corrupt"
    )
    for name in report["corrupt"]:
        print(f"  corrupt: {name}")
    if report["quarantined"]:
        print(
            f"quarantined {report['quarantined']} "
            f"entr{'y' if report['quarantined'] == 1 else 'ies'} "
            f"to {cache.directory / 'quarantine'}"
        )
    if args.action == "verify" and report["corrupt"]:
        return 1
    return 0


# ----------------------------------------------------------------------
# service (serve / submit / jobs / results / cancel)
# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    """Run the study server until SIGINT/SIGTERM or a shutdown op."""
    import asyncio
    import signal

    from repro.service import StudyServer

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir, max_bytes=args.max_cache_bytes)
    tracer = _make_tracer(args)
    server = StudyServer(
        args.state_dir,
        cache=cache,
        total_workers=args.workers,
        job_workers=args.job_workers,
        tenant_max_running=args.tenant_max_running,
        stream_every=args.stream_every,
        checkpoint_every=args.checkpoint_every,
        tracer=tracer,
    )
    exporter = None
    if args.metrics_addr is not None:
        from repro.telemetry import MetricsExporter

        host, _, port = args.metrics_addr.rpartition(":")
        exporter = MetricsExporter(
            server.registry, host=host or "127.0.0.1", port=int(port),
        ).start()

    async def run() -> None:
        bound = await server.start(args.address)
        # The readiness line scripts and tests wait for; stdout so it
        # composes with `grep -m1` without touching diagnostics.
        print(f"listening on {bound}", flush=True)
        if exporter is not None:
            print(
                f"metrics on http://{exporter.address}/metrics",
                flush=True,
            )
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, server.stop)
        await server.serve_until_stopped()

    try:
        asyncio.run(run())
    finally:
        if exporter is not None:
            exporter.stop()
        tracer.close()
    return 0


def _service_errors(call) -> int:
    """Run one client command; map service/transport errors to exit 1."""
    from repro.service.client import ServiceError

    try:
        return call()
    except (ServiceError, ConnectionError, TimeoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    spec = _study_spec_from_args(args)

    def run() -> int:
        with ServiceClient(args.server) as client:
            response = client.submit(
                spec.to_dict(), tenant=args.tenant, priority=args.priority
            )
            job = response["job"]
            note = (
                f" (duplicate: already {response['state']})"
                if response["deduped"] else ""
            )
            print(f"submitted {job}{note}")
            if not args.watch:
                return 0
            final = None
            for frame in client.watch(job):
                if frame["event"] == "front":
                    kind = "front" if not frame.get("final") else (
                        "final front"
                    )
                    print(
                        f"[{frame['run']}] {kind}: "
                        f"{len(frame['front'])} points "
                        f"({frame['done']} evaluated)"
                    )
                elif frame["event"] == "job_state":
                    line = f"[{job}] {frame['state']}"
                    if frame.get("error"):
                        line += f": {frame['error']}"
                    print(line)
                    if frame.get("terminal"):
                        final = frame["state"]
            # Mirror the batch study exit codes: 0 clean, 3
            # interrupted/cancelled, 4 failed points.
            return {"done": 0, "cancelled": 3, "failed": 4}.get(final, 1)

    return _service_errors(run)


def cmd_jobs(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    def run() -> int:
        with ServiceClient(args.server) as client:
            jobs = client.jobs()
            if not jobs:
                print("no jobs")
            for job in jobs:
                line = (
                    f"{job['job']:<28} {job['state']:<10} "
                    f"tenant={job['tenant']} priority={job['priority']} "
                    f"name={job['name']}"
                )
                if job.get("error"):
                    line += f"  error: {job['error']}"
                print(line)
        return 0

    return _service_errors(run)


def cmd_results(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    def run() -> int:
        with ServiceClient(args.server) as client:
            result = client.result(args.job)
        _emit(json.dumps(result, indent=2), args.output)
        return 0

    return _service_errors(run)


def cmd_cancel(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient

    def run() -> int:
        with ServiceClient(args.server) as client:
            response = client.cancel(args.job)
        if response.get("noop"):
            print(
                f"{response['job']} already {response['state']}; "
                "nothing to cancel"
            )
        else:
            print(f"cancelling {response['job']} ({response['state']})")
        return 0

    return _service_errors(run)


def cmd_metrics(args: argparse.Namespace) -> int:
    """One-shot scrape of a running server's live metrics."""
    from repro.service import ServiceClient
    from repro.telemetry import render_prometheus

    def run() -> int:
        with ServiceClient(args.server) as client:
            metrics = client.metrics(tenant=args.tenant)
        if args.format == "json":
            _emit(json.dumps(metrics, indent=2, sort_keys=True),
                  args.output)
        else:
            _emit(render_prometheus(metrics["registry"]).rstrip("\n"),
                  args.output)
        return 0

    return _service_errors(run)


def cmd_top(args: argparse.Namespace) -> int:
    """Live terminal dashboard polling a running server."""
    from repro.service import run_top

    return _service_errors(
        lambda: run_top(
            args.server,
            interval=args.interval,
            iterations=args.iterations,
            clear=not args.no_clear,
        )
    )


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry import (
        format_trace_summary,
        load_trace,
        summarize_trace,
    )

    records = load_trace(args.input)
    if args.action == "validate":
        print(f"{args.input}: {len(records)} records, schema OK")
        return 0
    summary = summarize_trace(records)
    if args.format == "json":
        _emit(json.dumps(summary, indent=2, sort_keys=True), args.output)
    else:
        _emit(format_trace_summary(summary), args.output)
    return 0


# ----------------------------------------------------------------------
# list
# ----------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    chosen = [
        section
        for section, wanted in (
            ("workloads", args.workloads),
            ("spaces", args.spaces),
            ("objectives", args.objectives),
            ("strategies", args.strategies),
            ("technologies", args.technologies),
        )
        if wanted
    ]
    sections = chosen or [
        "workloads", "spaces", "objectives", "strategies", "technologies",
    ]
    if "workloads" in sections:
        print("workloads:")
        for name in workload_names():
            entry = workload_entry(name)
            mul = "  [needs MUL]" if entry.needs_mul else ""
            print(f"  {name:<10} {entry.description}{mul}")
    if "spaces" in sections:
        print("spaces:")
        for name in space_names():
            print(f"  {name:<10} {len(space_by_name(name))} configurations")
    if "objectives" in sections:
        print("objectives:")
        for name in objective_names():
            objective = objective_by_name(name)
            post = ""
            if objective.requires_test_costs:
                post = "  [needs test-cost pass]"
            elif objective.requires_energy:
                post = "  [needs energy pass]"
            print(f"  {name:<10} {objective.description}{post}")
    if "strategies" in sections:
        print("strategies:")
        for name in strategy_names():
            entry = strategy_by_name(name)
            print(f"  {name:<10} {entry.description}")
            print(f"  {'':<10} params: {entry.params}")
    if "technologies" in sections:
        print("technologies:")
        for name in technology_names():
            tech = technology_by_name(name)
            print(
                f"  {name:<10} cap/area={tech.cap_per_area} "
                f"wire/bit={tech.wire_cap_per_bit} "
                f"leakage/area={tech.leakage_per_area}"
            )
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def _add_cache_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: "
                        "$REPRO_CAMPAIGN_CACHE or ~/.cache/repro-tta/campaign)")
    p.add_argument("--no-cache", action="store_true",
                   help="re-evaluate every point, touch no cache")


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--fault-policy", choices=("fail_fast", "skip", "retry"),
                   default=None,
                   help="what a crashing evaluation does to the sweep: "
                        "abort it (fail_fast, default), record the point "
                        "as failed and continue (skip), or re-attempt "
                        "with backoff first (retry)")
    p.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="extra attempts per point under --fault-policy "
                        "retry (default 2)")
    p.add_argument("--point-timeout", type=float, default=None, metavar="SEC",
                   help="per-point wall-clock budget on the pool path; "
                        "a point past it is recorded as failed")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size for the sweep and the front's "
                        "simulations; 1 = serial (default)")
    p.add_argument("--profile", action="store_true",
                   help="dump cProfile top-25 (cumulative) to stderr")
    p.add_argument("-q", "--quiet", action="store_true",
                   help="suppress progress lines on stderr")


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    """The flags :func:`_study_spec_from_args` reads (study, submit)."""
    p.add_argument("--spec", default=None,
                   help="study spec JSON file (overrides the flags)")
    p.add_argument("--name", default="study")
    p.add_argument("--workloads", default=None,
                   help="comma-separated workload names")
    p.add_argument("--space", default="small",
                   help=f"one of: {', '.join(space_names())}")
    p.add_argument("--width", type=int, default=16)
    p.add_argument("--objectives", default="area,cycles",
                   help="comma-separated objective names "
                        "(see: python -m repro list --objectives)")
    p.add_argument("--strategy", default="exhaustive",
                   help="search strategy "
                        "(see: python -m repro list --strategies)")
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="strategy parameter (repeatable), e.g. "
                        "--param budget=20 --param seed=1")
    p.add_argument("--select", action="store_true",
                   help="pick an architecture with the weighted norm")
    p.add_argument("--march", default="March C-",
                   help="march algorithm for RF test costs")
    p.add_argument("--tech", default="default",
                   help="technology parameter set for the energy "
                        "objectives (see: python -m repro list "
                        "--technologies)")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    """The flags :func:`_config_from_args` reads (rtl), plus -o."""
    p.add_argument("--space", default="small",
                   help=f"configuration grid to pick from "
                        f"(one of: {', '.join(space_names())})")
    p.add_argument("--index", type=int, default=0,
                   help="configuration index within --space (default 0)")
    p.add_argument("--config", default=None,
                   help="ArchConfig JSON file (overrides --space/--index)")
    p.add_argument("--width", type=int, default=16)
    p.add_argument("-o", "--output", default=None,
                   help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Design and test space exploration of TTAs "
                    "(DATE 2000) — study driver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("study",
                       help="run a declarative study (objectives x strategy)")
    _add_spec_args(p)
    p.add_argument("--pareto", action="store_true",
                   help="export only the objective-vector Pareto points")
    p.add_argument("--calibrate", action="store_true",
                   help="audit each run's base front against the "
                        "emitted RTL core (see: python -m repro rtl)")
    p.add_argument("--format", choices=("summary", "csv", "json"),
                   default="summary")
    p.add_argument("-o", "--output", default=None,
                   help="write to file instead of stdout")
    _add_run_args(p)
    _add_cache_args(p)
    p.add_argument("--trace", default=None, metavar="FILE.jsonl",
                   help="record the structured telemetry stream here "
                        "(see: python -m repro trace summarize)")
    _add_fault_args(p)
    p.add_argument("--checkpoint", default=None, metavar="FILE.json",
                   help="write a resumable checkpoint here as points "
                        "complete (see --resume)")
    p.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                   help="flush the checkpoint every N points (default 16)")
    p.add_argument("--resume", default=None, metavar="FILE.json",
                   help="continue an interrupted study from its "
                        "checkpoint instead of building a spec from "
                        "the flags")
    p.add_argument("--cancel-after", type=int, default=None, metavar="N",
                   help="stop cleanly after N evaluated points "
                        "(testing aid; the run is flagged interrupted)")
    # None (not 1) so a --spec file's own `workers` field wins unless
    # the flag is given explicitly.
    p.set_defaults(func=cmd_study, workers=None)

    p = sub.add_parser("rtl",
                       help="emit a full synthesizable TTA core, or "
                            "calibrate the model against it")
    rtl_sub = p.add_subparsers(dest="rtl_command", required=True)

    def _rtl_common(q, workload_required):
        if workload_required:
            q.add_argument("workload",
                           help=f"one of: {', '.join(workload_names())}")
        else:
            q.add_argument("workload", nargs="?", default=None,
                           help="workload whose compiled program to "
                                "embed as the instruction ROM "
                                "(omit for an external-imem core); "
                                f"one of: {', '.join(workload_names())}")
        _add_config_args(q)

    q = rtl_sub.add_parser("emit",
                           help="elaborate one configuration into "
                                "synthesizable Verilog")
    _rtl_common(q, workload_required=False)
    q.add_argument("--top", default="tta_core",
                   help="top module name (default tta_core)")
    q.add_argument("--format", choices=("verilog", "json"),
                   default="verilog",
                   help="emit the Verilog text, or a JSON structure "
                        "summary with lint results")
    q.set_defaults(func=cmd_rtl)

    q = rtl_sub.add_parser("calibrate",
                           help="audit model area and cycles against "
                                "the emitted core")
    _rtl_common(q, workload_required=True)
    q.add_argument("--tech", default="default",
                   help="technology parameter set "
                        "(see: python -m repro list --technologies)")
    q.add_argument("--max-cycles", type=int, default=5_000_000,
                   help="simulation cycle budget (default 5M)")
    q.add_argument("--format", choices=("text", "json"), default="text")
    q.set_defaults(func=cmd_rtl)

    p = sub.add_parser("report",
                       help="re-emit exported results (CSV or JSON)")
    p.add_argument("input", help="a result file written by study "
                                 "--format csv|json")
    p.add_argument("--pareto", action="store_true",
                   help="keep only the 2-D Pareto points")
    p.add_argument("--format", choices=("summary", "csv", "json"),
                   default="summary")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("cache",
                       help="verify, repair or stat a result-cache "
                            "directory")
    p.add_argument("action", choices=("verify", "repair", "stats"),
                   help="verify: report corrupt entries (exit 1 if any); "
                        "repair: move them to <dir>/quarantine/; "
                        "stats: per-shard sizes + lifetime hit/miss "
                        "counters")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory (default: "
                        "$REPRO_CAMPAIGN_CACHE or ~/.cache/repro-tta/campaign)")
    p.add_argument("-o", "--output", default=None,
                   help="write to file instead of stdout")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("serve",
                       help="run the study job server (see repro submit)")
    p.add_argument("address",
                   help="bind address: unix:PATH, PATH.sock, "
                        "tcp:HOST:PORT, HOST:PORT or PORT (0 picks a "
                        "free port)")
    p.add_argument("--state-dir", default="repro-service",
                   help="queue state, per-job checkpoints and results "
                        "live here (default: ./repro-service)")
    p.add_argument("--workers", type=int, default=2,
                   help="shared evaluation-worker budget leased across "
                        "running jobs (default 2)")
    p.add_argument("--job-workers", type=int, default=1,
                   help="minimum worker lease per job (default 1)")
    p.add_argument("--tenant-max-running", type=int, default=2,
                   help="max concurrently running jobs per tenant "
                        "(default 2)")
    p.add_argument("--stream-every", type=int, default=4,
                   help="recompute+stream a watching client's partial "
                        "front every N completed points (default 4)")
    p.add_argument("--checkpoint-every", type=int, default=4,
                   help="flush per-job study checkpoints every N points "
                        "(default 4)")
    p.add_argument("--max-cache-bytes", type=int, default=None,
                   metavar="BYTES",
                   help="LRU budget for the result cache (default: "
                        "unbounded)")
    _add_cache_args(p)
    p.add_argument("--trace", default=None, metavar="FILE.jsonl",
                   help="record job/queue telemetry events here")
    p.add_argument("--metrics-addr", default=None, metavar="HOST:PORT",
                   help="serve Prometheus text at "
                        "http://HOST:PORT/metrics (port 0 picks a free "
                        "one; a bare PORT binds 127.0.0.1)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit",
                       help="submit a study spec to a running server")
    p.add_argument("--server", required=True,
                   help="server address (same forms as repro serve)")
    p.add_argument("--tenant", default="default",
                   help="tenant name for fairness/quota accounting")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs earlier within your tenant "
                        "(default 0)")
    p.add_argument("--watch", action="store_true",
                   help="stay connected; print partial fronts and state "
                        "changes until the job finishes")
    _add_spec_args(p)
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="list a running server's job queue")
    p.add_argument("--server", required=True,
                   help="server address (same forms as repro serve)")
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("results",
                       help="fetch a finished job's result JSON")
    p.add_argument("job", help="job id (see repro jobs)")
    p.add_argument("--server", required=True,
                   help="server address (same forms as repro serve)")
    p.add_argument("-o", "--output", default=None,
                   help="write to file instead of stdout")
    p.set_defaults(func=cmd_results)

    p = sub.add_parser("cancel", help="cancel a queued or running job")
    p.add_argument("job", help="job id (see repro jobs)")
    p.add_argument("--server", required=True,
                   help="server address (same forms as repro serve)")
    p.set_defaults(func=cmd_cancel)

    p = sub.add_parser("metrics",
                       help="scrape a running server's live metrics")
    p.add_argument("action", choices=("dump",),
                   help="dump: one-shot scrape over the metrics op")
    p.add_argument("--server", required=True,
                   help="server address (same forms as repro serve)")
    p.add_argument("--tenant", default=None,
                   help="narrow per-tenant aggregates to one tenant")
    p.add_argument("--format", choices=("prom", "json"), default="prom",
                   help="prom: Prometheus text exposition (default); "
                        "json: the full metrics op response")
    p.add_argument("-o", "--output", default=None,
                   help="write to file instead of stdout")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("top",
                       help="live dashboard: tenants, jobs, queue depth, "
                            "latency percentiles")
    p.add_argument("--server", required=True,
                   help="server address (same forms as repro serve)")
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between polls (default 2)")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N frames (default: run until ^C)")
    p.add_argument("--no-clear", action="store_true",
                   help="append frames instead of redrawing (for "
                        "transcripts and pipes)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("trace",
                       help="validate or summarize a telemetry trace "
                            "(JSONL written by --trace)")
    p.add_argument("action", choices=("summarize", "validate"),
                   help="summarize: phase/cache/wave report; "
                        "validate: schema-check every record")
    p.add_argument("input", help="a .jsonl trace file")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="summarize output: human report (default) or "
                        "the raw summary dict as JSON")
    p.add_argument("-o", "--output", default=None,
                   help="write to file instead of stdout")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("list",
                       help="show known workloads, spaces, objectives, "
                            "strategies and technologies")
    p.add_argument("--workloads", action="store_true",
                   help="list only the workload registry")
    p.add_argument("--spaces", action="store_true",
                   help="list only the space registry")
    p.add_argument("--objectives", action="store_true",
                   help="list only the objective registry")
    p.add_argument("--strategies", action="store_true",
                   help="list only the strategy registry")
    p.add_argument("--technologies", action="store_true",
                   help="list only the technology parameter sets")
    p.set_defaults(func=cmd_list)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        # str(KeyError) is the repr of its message; unwrap for clean output
        message = (
            exc.args[0]
            if isinstance(exc, KeyError) and exc.args
            else exc
        )
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
