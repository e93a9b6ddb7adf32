"""The resilience layer: fault policies, checkpoints, cache hardening.

Everything here leans on the deterministic injectors in
:mod:`repro.resilience.faults` — a fault is planted at an exact,
reproducible place (a configuration label or the N-th evaluation call)
and the recovery machinery is asserted around it.
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.campaign import ResultCache
from repro.campaign.cache import cache_key
from repro.explore import EvaluatedPoint, small_space
from repro.resilience import (
    CancelToken,
    CheckpointManager,
    FailedPoint,
    FaultPolicy,
    StudyInterrupted,
    faults,
    traceback_digest,
)
from repro.resilience.faults import FaultPlan, InjectedFault, plan_from_env
from repro.study import StudySpec, run_study
from repro.study.engine import Study

SMALL = small_space()
POISON = SMALL[2].label()

SKIP = FaultPolicy(mode="skip")
RETRY = FaultPolicy(mode="retry", max_retries=2)


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    faults.clear()
    yield
    faults.clear()


def small_spec(name="resilience", strategy="exhaustive", params=(), **kw):
    kw.setdefault("workloads", ("gcd",))
    kw.setdefault("space", "small")
    return StudySpec(
        name=name,
        strategy=strategy,
        strategy_params=dict(params),
        **kw,
    )


def front_labels(result) -> set[str]:
    return {p.config.label() for p in result.single.pareto}


def point_labels(result) -> list[str]:
    return [p.config.label() for p in result.single.result.points]


def walk_record(result) -> tuple:
    """Everything a resume must reproduce besides points and front."""
    run = result.single
    return run.iterations, run.frontier_history, run.evaluations


# ----------------------------------------------------------------------
# policy / failure-record units
# ----------------------------------------------------------------------
def test_policy_attempt_budget():
    assert FaultPolicy().attempts == 1
    assert FaultPolicy(mode="skip").attempts == 1
    assert FaultPolicy(mode="retry", max_retries=3).attempts == 4


def test_policy_backoff_schedule():
    policy = FaultPolicy(mode="retry", max_retries=3)
    assert policy.delay(1) == pytest.approx(0.05)
    assert policy.delay(2) == pytest.approx(0.1)
    assert policy.delay(3) == pytest.approx(0.2)


def test_policy_rejects_unknown_mode():
    with pytest.raises(ValueError, match="fault-policy mode"):
        FaultPolicy(mode="explode")


def test_failed_point_from_exception():
    try:
        raise RuntimeError("boom")
    except RuntimeError as exc:
        failed = FailedPoint.from_exception(SMALL[0], exc, attempts=2)
        digest = traceback_digest(exc)
    assert failed.error_type == "RuntimeError"
    assert failed.message == "boom"
    assert failed.digest == digest
    assert failed.attempts == 2


# ----------------------------------------------------------------------
# injector plumbing
# ----------------------------------------------------------------------
def test_plan_from_env_variants():
    plan = plan_from_env("raise@#3")
    assert (plan.kind, plan.nth, plan.times) == ("raise", 3, -1)
    plan = plan_from_env(f"raise@{POISON}:2")
    assert (plan.kind, plan.label, plan.times) == ("raise", POISON, 2)
    plan = plan_from_env("sleep@#2:0.5:1")
    assert (plan.kind, plan.nth, plan.seconds, plan.times) == (
        "sleep", 2, 0.5, 1,
    )
    plan = plan_from_env("kill@b1-alu1-8r1R1W")
    assert (plan.kind, plan.label) == ("kill", "b1-alu1-8r1R1W")


def test_plan_from_env_rejects_garbage():
    with pytest.raises(ValueError, match="spec"):
        plan_from_env("raise")
    with pytest.raises(ValueError, match="kind"):
        plan_from_env("explode@#1")
    with pytest.raises(ValueError, match="label/nth"):
        FaultPlan(kind="raise")


def test_times_caps_firings():
    plan = faults.install(FaultPlan(kind="raise", nth=1, times=1))
    with pytest.raises(InjectedFault):
        faults.on_evaluate(SMALL[0])
    assert plan.fired == 1
    faults.install(FaultPlan(kind="raise", label=POISON, times=1))
    config = next(c for c in SMALL if c.label() == POISON)
    with pytest.raises(InjectedFault):
        faults.on_evaluate(config)
    faults.on_evaluate(config)          # cap reached: no second firing


# ----------------------------------------------------------------------
# fault policies on the serial path
# ----------------------------------------------------------------------
def test_fail_fast_propagates_by_default():
    faults.install(FaultPlan(kind="raise", label=POISON))
    with pytest.raises(InjectedFault):
        run_study(small_spec())


def test_skip_records_failure_and_keeps_the_rest():
    faults.install(FaultPlan(kind="raise", label=POISON))
    result = run_study(small_spec(), policy=SKIP)

    assert [f.label for f in result.failures] == [POISON]
    failure = result.failures[0]
    assert failure.error_type == "InjectedFault"
    assert failure.attempts == 1
    assert len(failure.digest) == 12
    # The full front minus only the poisoned point: identical to a
    # clean study over the space with that configuration removed.
    faults.clear()
    reference = run_study(small_spec(
        name="minus-poison",
        space=tuple(c for c in SMALL if c.label() != POISON),
    ))
    assert front_labels(result) == front_labels(reference)
    # The failed point stays in the stream as an infeasible placeholder.
    placeholder = [
        p for p in result.single.result.points
        if p.config.label() == POISON
    ]
    assert len(placeholder) == 1
    assert placeholder[0].failed and not placeholder[0].feasible


def test_retry_recovers_transient_fault():
    clean = run_study(small_spec())
    faults.install(FaultPlan(kind="raise", nth=3, times=1))
    result = run_study(small_spec(), policy=RETRY)
    assert result.failures == []
    assert front_labels(result) == front_labels(clean)
    assert point_labels(result) == point_labels(clean)


def test_retry_exhausts_into_failure():
    faults.install(FaultPlan(kind="raise", label=POISON))   # persistent
    result = run_study(small_spec(), policy=RETRY)
    assert [f.label for f in result.failures] == [POISON]
    assert result.failures[0].attempts == RETRY.attempts


# ----------------------------------------------------------------------
# fault policies on the pool path
# ----------------------------------------------------------------------
def test_pool_timeout_marks_point_failed():
    faults.install(FaultPlan(kind="sleep", label=POISON, seconds=1.5))
    result = run_study(
        small_spec(workers=2),
        policy=FaultPolicy(mode="skip", timeout=0.3),
    )
    assert [f.label for f in result.failures] == [POISON]
    assert result.failures[0].error_type == "TimeoutError"
    assert len(result.single.result.points) == len(SMALL)


def test_pool_killed_worker_is_survived():
    # The plan is module state, so forked pool workers inherit it; the
    # per-process call counter makes exactly one worker die on its 2nd
    # evaluation, and the retry lands as an earlier call in a rebuilt
    # worker.
    clean = run_study(small_spec())
    faults.install(FaultPlan(kind="kill", nth=2, times=1))
    result = run_study(small_spec(workers=2), policy=RETRY)
    assert result.failures == []
    assert point_labels(result) == point_labels(clean)
    assert front_labels(result) == front_labels(clean)


def test_pool_persistent_crash_becomes_failed_point():
    clean = run_study(small_spec())
    faults.install(FaultPlan(kind="kill", label=POISON))
    result = run_study(small_spec(workers=2), policy=SKIP)
    assert [f.label for f in result.failures] == [POISON]
    assert result.failures[0].error_type == "WorkerCrash"
    survivors = {
        label for label in point_labels(clean) if label != POISON
    }
    assert survivors <= set(point_labels(result))


# ----------------------------------------------------------------------
# cancel / checkpoint / resume
# ----------------------------------------------------------------------
def test_cancel_token_self_trips():
    token = CancelToken(after_points=3)
    token.tick(2)
    assert not token.cancelled
    token.tick()
    assert token.cancelled
    with pytest.raises(StudyInterrupted):
        token.raise_if_cancelled()


def assert_resume_equals_uninterrupted(path, spec, cut, workers=1):
    """Kill ``spec`` after ``cut`` fresh points, resume it, and check
    the resumed run is the uninterrupted one, evaluated only once."""
    clean = run_study(spec)

    interrupted = run_study(
        spec, checkpoint=path, cancel=CancelToken(after_points=cut),
        workers=workers,
    )
    assert interrupted.interrupted
    assert 0 < len(interrupted.single.result.points) < len(
        clean.single.result.points
    ) + 1
    assert json.loads(path.read_text())["interrupted"]

    resumed = Study.resume(path, workers=workers).run()
    assert not resumed.interrupted
    assert point_labels(resumed) == point_labels(clean)
    assert front_labels(resumed) == front_labels(clean)
    assert walk_record(resumed) == walk_record(clean)
    # Nothing recorded before the cut was re-evaluated.
    stats = resumed.single.stats
    assert stats.cache_hits >= cut
    assert stats.evaluated + stats.cache_hits == len(point_labels(clean))
    # A clean completion clears the flag for the next reader.
    assert not json.loads(path.read_text())["interrupted"]


@pytest.mark.parametrize(
    "strategy, params, cut",
    [
        ("exhaustive", (), 4),
        ("random", (("budget", 8), ("seed", 3)), 3),
        (
            "simulated_annealing",
            (("max_evaluations", 20), ("seed", 7)),
            5,
        ),
        ("iterative", (("max_evaluations", 10),), 4),
    ],
)
def test_kill_and_resume_equals_uninterrupted(tmp_path, strategy, params, cut):
    spec = small_spec(name=f"resume-{strategy}", strategy=strategy,
                      params=params)
    assert_resume_equals_uninterrupted(tmp_path / "ck.json", spec, cut)


@pytest.mark.parametrize(
    "strategy, params",
    [
        ("simulated_annealing", (("max_evaluations", 20), ("seed", 7))),
        # iterative's wider waves are the ones that reach the pool
        ("iterative", (("max_evaluations", 10),)),
    ],
)
def test_kill_and_resume_on_the_pool_equals_uninterrupted(
    tmp_path, strategy, params
):
    spec = small_spec(name=f"resume-pool-{strategy}", strategy=strategy,
                      params=params)
    assert_resume_equals_uninterrupted(
        tmp_path / "ck.json", spec, cut=4, workers=2
    )


def checkpointed_labels(path, run_label) -> set[str]:
    return set(json.loads(path.read_text())["runs"][run_label]["points"])


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "strategy, params, workload, space",
    [
        ("exhaustive", (), "gcd", "small"),
        ("iterative", (("max_evaluations", 12),), "gcd", "small"),
        (
            "simulated_annealing",
            (("max_evaluations", 20), ("seed", 7)),
            "crypt",
            "crypt",
        ),
    ],
)
def test_partial_result_is_the_checkpointed_points(
    tmp_path, strategy, params, workload, space, workers
):
    """An interrupted run reports exactly the points its checkpoint
    recorded, cut after cut.  The pool's drained set depends on
    timing (a cut can even land after the last point), so only these
    invariants are asserted there, never a count."""
    spec = small_spec(
        name=f"partial-{strategy}", strategy=strategy, params=params,
        workloads=(workload,), space=space,
    )
    path = tmp_path / "ck.json"
    clean = run_study(spec, workers=workers)
    run_label = clean.single.label

    def partial_labels(result) -> set[str]:
        if workers == 1:
            assert result.interrupted and result.single.interrupted
        labels = point_labels(result)
        assert len(labels) == len(set(labels))
        assert set(labels) == checkpointed_labels(path, run_label)
        return set(labels)

    first = partial_labels(run_study(
        spec, checkpoint=path, cancel=CancelToken(after_points=3),
        workers=workers,
    ))
    second = partial_labels(Study.resume(
        path, workers=workers, cancel=CancelToken(after_points=2),
    ).run())
    assert first <= second

    resumed = Study.resume(path, workers=workers).run()
    assert not resumed.interrupted
    assert point_labels(resumed) == point_labels(clean)


def test_resume_ignores_legacy_strategy_state(tmp_path):
    """Checkpoints from before replay-only resume carry each walk's
    saved locals under ``"strategy"``; a resume must not read them."""
    spec = small_spec(
        name="resume-legacy", strategy="simulated_annealing",
        params=(("max_evaluations", 20), ("seed", 7)),
    )
    clean = run_study(spec)
    path = tmp_path / "ck.json"
    assert run_study(
        spec, checkpoint=path, cancel=CancelToken(after_points=3),
    ).interrupted

    data = json.loads(path.read_text())
    for run in data["runs"].values():
        run["strategy"] = {
            "rng": [3, [0] * 625, None],
            "current": SMALL[-1].to_dict(),
            "current_cost": 0.5,
            "reference": [1.0, 1.0],
            "temp": 0.01,
            "steps": 99,
            "proposals": 99,
            "accepted": 0,
            "order": [],
            "history": [1],
        }
    path.write_text(json.dumps(data))

    resumed = Study.resume(path).run()
    assert point_labels(resumed) == point_labels(clean)
    assert front_labels(resumed) == front_labels(clean)
    assert walk_record(resumed) == walk_record(clean)
    assert resumed.single.stats.cache_hits >= 3


def test_resume_rejects_tampered_checkpoint(tmp_path):
    path = tmp_path / "ck.json"
    run_study(
        small_spec(), checkpoint=path, cancel=CancelToken(after_points=2),
    )
    data = json.loads(path.read_text())
    data["spec"]["width"] = 32          # silently different study
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="corrupt"):
        Study.resume(path)


def test_checkpoint_manager_round_trip(tmp_path):
    path = tmp_path / "ck.json"
    manager = CheckpointManager({"name": "x"}, path=path, every=1)
    manager.record_point("run", "cfg-a", {"area": 1.0})
    manager.write(force=True)
    loaded = CheckpointManager.load(path)
    assert loaded.points("run") == {"cfg-a": {"area": 1.0}}


# ----------------------------------------------------------------------
# telemetry stays valid through interruption (S2)
# ----------------------------------------------------------------------
def test_interrupted_run_leaves_valid_trace(tmp_path):
    from repro.telemetry import Tracer
    from repro.telemetry.summarize import load_trace, summarize_trace

    trace_path = tmp_path / "trace.jsonl"
    tracer = Tracer(trace_path)
    try:
        result = run_study(
            small_spec(), tracer=tracer, collect_metrics=True,
            cancel=CancelToken(after_points=3),
        )
    finally:
        tracer.close()
    assert result.interrupted
    records = load_trace(trace_path)    # schema-validates every line
    summary = summarize_trace(records)
    (run,) = summary["runs"]
    assert run["interrupted"] == {"completed": 3, "total": len(SMALL)}


def test_failure_events_reach_trace_summary(tmp_path):
    from repro.telemetry import Tracer
    from repro.telemetry.summarize import load_trace, summarize_trace

    trace_path = tmp_path / "trace.jsonl"
    faults.install(FaultPlan(kind="raise", label=POISON))
    tracer = Tracer(trace_path)
    try:
        run_study(small_spec(), tracer=tracer, policy=RETRY)
    finally:
        tracer.close()
    summary = summarize_trace(load_trace(trace_path))
    (run,) = summary["runs"]
    assert run["retries"] == RETRY.attempts - 1
    (failure,) = run["failures"]
    assert failure["config"] == POISON
    assert failure["error"] == "InjectedFault"
    assert failure["attempts"] == RETRY.attempts


# ----------------------------------------------------------------------
# cache hardening
# ----------------------------------------------------------------------
def _seed_cache(tmp_path) -> tuple[ResultCache, object]:
    cache = ResultCache(tmp_path / "cache")
    config = SMALL[0]
    cache.put(
        "gcd",
        EvaluatedPoint(config=config, area=2.0, cycles=100),
        16,
    )
    return cache, config


def test_truncated_entry_is_quarantined(tmp_path):
    cache, config = _seed_cache(tmp_path)
    torn = faults.truncate_cache_entry(cache, "gcd", config, 16)
    assert cache.get("gcd", config, 16) is None
    assert cache.stats.quarantined == 1
    assert not os.path.exists(torn)
    quarantined = cache.directory / "quarantine" / os.path.basename(torn)
    assert quarantined.exists()
    # Re-evaluation replaces the slot; the poison never comes back.
    cache.put("gcd", EvaluatedPoint(config=config, area=2.0, cycles=100), 16)
    assert cache.get("gcd", config, 16) is not None


def test_stale_schema_is_miss_not_quarantine(tmp_path):
    cache, config = _seed_cache(tmp_path)
    path = cache._path(cache_key("gcd", config, 16))
    entry = json.loads(path.read_text())
    entry["schema"] = 999
    path.write_text(json.dumps(entry))
    assert cache.get("gcd", config, 16) is None
    assert cache.stats.quarantined == 0
    assert path.exists()                # stale is not corrupt


def test_verify_and_repair(tmp_path):
    cache, config = _seed_cache(tmp_path)
    cache.put("gcd", EvaluatedPoint(config=SMALL[1], area=3.0, cycles=50), 16)
    faults.truncate_cache_entry(cache, "gcd", config, 16)

    report = cache.verify()
    assert (report["checked"], report["ok"]) == (2, 1)
    assert len(report["corrupt"]) == 1
    assert report["quarantined"] == 0

    report = cache.verify(repair=True)
    assert report["quarantined"] == 1
    assert cache.verify() == {
        "checked": 1, "ok": 1, "stale": 0, "corrupt": [], "quarantined": 0,
    }


def _hammer_axis(directory: str, axis: str, rounds: int) -> None:
    cache = ResultCache(directory)
    config = small_space()[0]
    for i in range(rounds):
        if axis == "test":
            point = EvaluatedPoint(
                config=config, area=2.0, cycles=100, test_cost=1000 + i,
            )
            cache.put("gcd", point, 16, march="March C-")
        else:
            point = EvaluatedPoint(
                config=config, area=2.0, cycles=100, energy=5.0 + i,
            )
            cache.put("gcd", point, 16, energy_model="default")


def test_concurrent_axis_writers_do_not_drop_each_other(tmp_path):
    """S3: two processes hammer one key; flock + merge keep both axes."""
    directory = str(tmp_path / "cache")
    ResultCache(directory)              # create before the race starts
    ctx = multiprocessing.get_context("fork")
    writers = [
        ctx.Process(target=_hammer_axis, args=(directory, axis, 40))
        for axis in ("test", "energy")
    ]
    for p in writers:
        p.start()
    for p in writers:
        p.join(timeout=60)
        assert p.exitcode == 0

    cache = ResultCache(directory)
    point = cache.get(
        "gcd", small_space()[0], 16,
        march="March C-", energy_model="default",
    )
    assert point is not None
    assert point.test_cost == 1000 + 39     # last test-axis write
    assert point.energy == pytest.approx(5.0 + 39)
    # And the entry on disk is intact JSON with both axes present.
    entry = json.loads(
        cache._path(cache_key("gcd", small_space()[0], 16)).read_text()
    )
    assert entry["test_cost"] is not None and entry["energy"] is not None


# ----------------------------------------------------------------------
# up-front validation (S1)
# ----------------------------------------------------------------------
def test_spec_rejects_bad_workers():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        small_spec(workers=0)


def test_validate_prefixes_unknown_names():
    with pytest.raises(KeyError, match="study 'resilience'.*known"):
        small_spec(workloads=("no-such-workload",)).validate()
    with pytest.raises(KeyError, match="study 'resilience'"):
        StudySpec(name="resilience", workloads=("gcd",),
                  space="no-such-space").validate()


def test_unusable_cache_dir_message(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    with pytest.raises(OSError, match="--cache-dir"):
        ResultCache(blocker / "cache")


def test_study_rejects_bad_workers_override():
    with pytest.raises(ValueError, match="workers must be >= 1"):
        Study(small_spec(), workers=0)


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
def test_cli_exit_codes(tmp_path, capsys):
    from repro.__main__ import main

    base = ["study", "--workloads", "gcd", "--space", "small",
            "--no-cache", "-q"]
    assert main(base + ["--cancel-after", "2"]) == 3

    faults.install(FaultPlan(kind="raise", label=POISON))
    assert main(base + ["--fault-policy", "skip"]) == 4
    capsys.readouterr()


def test_cli_cache_verify_and_repair(tmp_path, capsys):
    from repro.__main__ import main

    cache, config = _seed_cache(tmp_path)
    directory = str(cache.directory)
    assert main(["cache", "verify", "--cache-dir", directory]) == 0
    faults.truncate_cache_entry(cache, "gcd", config, 16)
    assert main(["cache", "verify", "--cache-dir", directory]) == 1
    assert main(["cache", "repair", "--cache-dir", directory]) == 0
    assert main(["cache", "verify", "--cache-dir", directory]) == 0
    capsys.readouterr()


def test_cli_checkpoint_resume_round_trip(tmp_path, capsys):
    from repro.__main__ import main

    path = str(tmp_path / "ck.json")
    base = ["study", "--workloads", "gcd", "--space", "small",
            "--no-cache", "-q"]
    assert main(base + ["--checkpoint", path, "--cancel-after", "3"]) == 3
    assert main(["study", "--resume", path, "--no-cache", "-q"]) == 0
    assert not json.loads(open(path).read())["interrupted"]
    capsys.readouterr()
