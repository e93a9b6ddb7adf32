"""The study service: queue, dedupe, sharded cache, wire protocol, e2e.

Unit sections exercise the queue's fairness/dedupe policy, the
single-flight in-flight index and the sharded/LRU result cache with no
sockets involved.  The end-to-end section runs real servers in
subprocesses (``python -m repro serve``) and drives them through
:class:`repro.service.ServiceClient` — including the SIGKILL-and-resume
path, which only means anything against a real process.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.campaign.cache import ResultCache, cache_key
from repro.explore import EvaluatedPoint
from repro.explore.space import ArchConfig
from repro.resilience.checkpoint import spec_digest
from repro.service import (
    DedupeCache,
    InflightIndex,
    JobQueue,
    JobState,
    METRICS_VERSION,
    ServiceClient,
    parse_address,
    render_dashboard,
    wait_for_server,
)
from repro.service.client import ServiceError
from repro.service.protocol import decode_frame, encode_frame
from repro.study import StudySpec, run_study
from repro.__main__ import main

SRC = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# spec_id / digest unification
# ----------------------------------------------------------------------
class TestSpecId:
    def test_spec_id_is_the_checkpoint_digest(self):
        spec = StudySpec(name="s", workloads=("gcd",), space="small")
        assert spec.spec_id == spec_digest(spec.to_dict())

    def test_spec_id_stable_across_param_order(self):
        a = StudySpec(
            name="s", workloads=("gcd",), strategy="random",
            strategy_params={"budget": 4, "seed": 1},
        )
        b = StudySpec(
            name="s", workloads=("gcd",), strategy="random",
            strategy_params={"seed": 1, "budget": 4},
        )
        assert a.spec_id == b.spec_id

    def test_spec_id_changes_with_content(self):
        a = StudySpec(name="s", workloads=("gcd",))
        b = StudySpec(name="s", workloads=("gcd",), width=32)
        assert a.spec_id != b.spec_id

    def test_spec_hashable_via_spec_id(self):
        a = StudySpec(name="s", workloads=("gcd",))
        b = StudySpec(name="s", workloads=("gcd",))
        assert hash(a) == hash(b) and len({a, b}) == 1


# ----------------------------------------------------------------------
# protocol
# ----------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        frame = {"op": "submit", "spec": {"name": "x"}, "priority": 2}
        assert decode_frame(encode_frame(frame)) == frame

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("unix:/tmp/x.sock", ("unix", "/tmp/x.sock")),
            ("/tmp/x", ("unix", "/tmp/x")),
            ("x.sock", ("unix", "x.sock")),
            ("tcp:somehost:900", ("tcp", ("somehost", 900))),
            ("tcp:900", ("tcp", ("127.0.0.1", 900))),
            ("somehost:900", ("tcp", ("somehost", 900))),
            ("900", ("tcp", ("127.0.0.1", 900))),
        ],
    )
    def test_parse_address(self, text, expected):
        assert parse_address(text) == expected

    def test_parse_address_rejects_nonsense(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_address("not an address")


# ----------------------------------------------------------------------
# job queue
# ----------------------------------------------------------------------
def _spec_dict(name="s", **kw):
    kw.setdefault("workloads", ("gcd",))
    kw.setdefault("space", "small")
    return StudySpec(name=name, **kw).to_dict()


def _submit(queue, tenant, name="s", priority=0, **kw):
    spec = _spec_dict(name, **kw)
    return queue.submit(tenant, spec_digest(spec), spec, priority)


class TestJobQueue:
    def test_duplicate_submit_dedupes(self):
        queue = JobQueue()
        job, deduped = _submit(queue, "a")
        assert not deduped and job.state == JobState.QUEUED
        again, deduped = _submit(queue, "a")
        assert deduped and again is job and job.submissions == 2
        queue.mark_running(job)
        _, deduped = _submit(queue, "a")
        assert deduped
        queue.finish(job, JobState.DONE)
        _, deduped = _submit(queue, "a")
        assert deduped

    def test_same_spec_different_tenants_do_not_dedupe(self):
        queue = JobQueue()
        job_a, _ = _submit(queue, "a")
        job_b, deduped = _submit(queue, "b")
        assert not deduped and job_a.job_id != job_b.job_id

    def test_failed_job_resubmit_rearms(self):
        queue = JobQueue()
        job, _ = _submit(queue, "a")
        queue.mark_running(job)
        queue.finish(job, JobState.FAILED, "boom")
        again, deduped = _submit(queue, "a", priority=7)
        assert not deduped and again is job
        assert job.state == JobState.QUEUED
        assert job.error is None and job.priority == 7

    def test_fairness_under_contention(self):
        queue = JobQueue(tenant_max_running=1)
        a1, _ = _submit(queue, "a", name="a1")
        a2, _ = _submit(queue, "a", name="a2")
        a3, _ = _submit(queue, "a", name="a3", priority=5)
        b1, _ = _submit(queue, "b", name="b1")
        first = queue.pick()
        assert first is a3            # a's highest priority
        queue.mark_running(first)
        second = queue.pick()
        assert second is b1           # a is at its running cap
        queue.mark_running(second)
        assert queue.pick() is None   # both tenants capped
        queue.finish(first, JobState.DONE)
        third = queue.pick()
        assert third is a1            # back under cap; FIFO beyond prio

    def test_fairness_prefers_starved_tenant(self):
        queue = JobQueue(tenant_max_running=2)
        _submit(queue, "a", name="a1")
        _submit(queue, "a", name="a2")
        b1, _ = _submit(queue, "b", name="b1")
        first = queue.pick()
        queue.mark_running(first)
        # One of each is fair: with a running, b has fewer running jobs.
        second = queue.pick()
        assert second is b1
        queue.mark_running(second)

    def test_queue_state_round_trip(self):
        queue = JobQueue(tenant_max_running=3)
        a1, _ = _submit(queue, "a", name="a1")
        a2, _ = _submit(queue, "a", name="a2", priority=2)
        queue.mark_running(a1)
        queue.finish(a2, JobState.CANCELLED)
        loaded = JobQueue.from_dict(
            json.loads(json.dumps(queue.to_dict()))
        )
        # the running job came back queued + interrupted (resume path)
        job = loaded.get(a1.job_id)
        assert job.state == JobState.QUEUED and job.interrupted
        assert loaded.get(a2.job_id).state == JobState.CANCELLED
        assert loaded.tenant_max_running == 3
        # the scheduler serials survive, so fairness has no amnesia
        assert loaded.to_dict()["sched_seq"] == queue.to_dict()["sched_seq"]

    def test_from_dict_rejects_alien_schema(self):
        with pytest.raises(ValueError, match="schema"):
            JobQueue.from_dict({"schema": 99})


# ----------------------------------------------------------------------
# in-flight dedupe
# ----------------------------------------------------------------------
class _DictCache:
    """A minimal thread-safe get/put cache for dedupe unit tests."""

    def __init__(self):
        self.data = {}
        self.puts = 0
        self.lock = threading.Lock()
        self.stats = None

    def get(self, workload, config, width, march=None, energy_model=None):
        with self.lock:
            return self.data.get(cache_key(workload, config, width))

    def put(self, workload, point, width, march=None, energy_model=None):
        with self.lock:
            self.data[cache_key(workload, point.config, width)] = point
            self.puts += 1


class TestInflightDedupe:
    def test_claim_resolve_cycle(self):
        index = InflightIndex()
        assert index.claim("k", "job1") is None       # ours
        assert index.claim("k", "job1") is None       # re-claim is ours
        event = index.claim("k", "job2")
        assert event is not None and not event.is_set()
        index.resolve("k")
        assert event.is_set()
        assert index.as_dict()["in_flight"] == 0

    def test_release_owner_wakes_waiters(self):
        index = InflightIndex()
        index.claim("k1", "job1")
        index.claim("k2", "job1")
        event = index.claim("k1", "job2")
        assert index.release_owner("job1") == 2
        assert event.is_set()

    def test_concurrent_misses_evaluate_once(self):
        inner = _DictCache()
        index = InflightIndex()
        config = ArchConfig(num_buses=2)
        point = EvaluatedPoint(config=config, area=1.0, cycles=10)
        barrier = threading.Barrier(2)
        results = {}

        def job(name):
            cache = DedupeCache(inner, index, name, wait_timeout=5.0)
            barrier.wait()
            hit = cache.get("gcd", config, 16)
            if hit is None:
                time.sleep(0.05)          # the "evaluation"
                cache.put("gcd", point, 16)
                hit = point
            results[name] = hit

        threads = [
            threading.Thread(target=job, args=(f"job{i}",))
            for i in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert inner.puts == 1            # the point ran exactly once
        assert index.coalesced == 1
        assert results["job0"].area == results["job1"].area == 1.0

    def test_waiter_falls_back_when_owner_dies(self):
        inner = _DictCache()
        index = InflightIndex()
        config = ArchConfig(num_buses=1)
        owner = DedupeCache(inner, index, "dying", wait_timeout=5.0)
        assert owner.get("gcd", config, 16) is None   # claims the key

        woke = {}

        def waiter():
            cache = DedupeCache(inner, index, "patient", wait_timeout=5.0)
            woke["result"] = cache.get("gcd", config, 16)

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.1)
        owner.release()                   # the job died without a put
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert woke["result"] is None     # waiter re-evaluates itself


# ----------------------------------------------------------------------
# sharded cache
# ----------------------------------------------------------------------
def _point(n: int) -> EvaluatedPoint:
    return EvaluatedPoint(
        config=ArchConfig(num_buses=n), area=float(n), cycles=10 * n
    )


def _tested_point(n: int) -> EvaluatedPoint:
    """:func:`_point` with a test-cost axis (its put takes the key lock)."""
    return EvaluatedPoint(
        config=ArchConfig(num_buses=n), area=float(n), cycles=10 * n,
        test_cost=100 * n,
    )


class TestShardedCache:
    def test_entries_land_in_shards(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("gcd", _point(1), 16)
        key = cache_key("gcd", ArchConfig(num_buses=1), 16)
        path = tmp_path / "shards" / key[:2] / f"{key}.json"
        assert path.exists()
        assert not (tmp_path / f"{key}.json").exists()
        assert len(cache) == 1

    def test_verify_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("gcd", _point(1), 16)
        # Only a put that carries a post-pass axis leaves a lock file.
        cache.put("gcd", _tested_point(2), 16, march="March C-")
        assert len(list(tmp_path.glob("shards/*/*.lock"))) == 1
        assert len(cache) == 2
        assert cache.verify()["ok"] == 2
        assert cache.clear() == 2
        assert len(cache) == 0
        assert not list(tmp_path.glob("shards/*/*.lock"))

    def test_stats_file_is_not_an_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("gcd", _point(1), 16)
        cache.persist_stats()
        assert (tmp_path / "stats.json").exists()
        assert len(cache) == 1
        assert cache.verify()["checked"] == 1

    def test_lru_eviction_drops_oldest(self, tmp_path):
        seed = ResultCache(tmp_path)
        for n in (1, 2):
            seed.put("gcd", _point(n), 16)
        budget = seed.bytes_on_disk() + 16   # room for 2, not 3
        key1 = cache_key("gcd", ArchConfig(num_buses=1), 16)
        path1 = tmp_path / "shards" / key1[:2] / f"{key1}.json"
        os.utime(path1, (1, 1))              # entry 1 is clearly oldest

        cache = ResultCache(tmp_path, max_bytes=budget)
        cache.put("gcd", _point(3), 16)      # pushes past the budget
        assert cache.stats.evictions >= 1
        assert cache.get("gcd", ArchConfig(num_buses=1), 16) is None
        assert cache.get("gcd", ArchConfig(num_buses=3), 16) is not None
        assert cache.bytes_on_disk() <= budget

    def test_hit_refreshes_recency(self, tmp_path):
        cache = ResultCache(tmp_path, max_bytes=1 << 20)
        cache.put("gcd", _point(1), 16)
        key = cache_key("gcd", ArchConfig(num_buses=1), 16)
        path = tmp_path / "shards" / key[:2] / f"{key}.json"
        os.utime(path, (1, 1))
        assert cache.get("gcd", ArchConfig(num_buses=1), 16) is not None
        assert path.stat().st_mtime > 1      # the hit was the LRU touch

    def test_explicit_compact_with_override_budget(self, tmp_path):
        cache = ResultCache(tmp_path)        # unbounded instance
        cache.put("gcd", _tested_point(1), 16, march="March C-")
        for n in (2, 3):
            cache.put("gcd", _point(n), 16)
        for n in (1, 2, 3):
            key = cache_key("gcd", ArchConfig(num_buses=n), 16)
            os.utime(
                tmp_path / "shards" / key[:2] / f"{key}.json", (n, n)
            )
        assert len(list(tmp_path.glob("shards/*/*.lock"))) == 1
        report = cache.compact(max_bytes=0)
        assert report["evicted"] == 3 and report["bytes"] == 0
        assert cache.stats.evictions == 3
        # each eviction sweeps its entry's lock file
        assert not list(tmp_path.glob("shards/*/*.lock"))

    def test_persist_stats_accumulates_across_instances(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put("gcd", _point(1), 16)
        first.get("gcd", ArchConfig(num_buses=1), 16)
        merged = first.persist_stats()
        assert merged["puts"] == 1 and merged["hits"] == 1
        second = ResultCache(tmp_path)
        second.get("gcd", ArchConfig(num_buses=1), 16)
        second.get("gcd", ArchConfig(num_buses=9), 16)
        merged = second.persist_stats()
        assert merged["hits"] == 2 and merged["misses"] == 1
        # idempotent: persisting with no new activity changes nothing
        assert second.persist_stats() == merged

    def test_rejects_nonpositive_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            ResultCache(tmp_path, max_bytes=0)


# ----------------------------------------------------------------------
# cache stats CLI
# ----------------------------------------------------------------------
class TestCacheStatsCli:
    def test_stats_on_sharded_cache(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        for n in (1, 2, 3):
            cache.put("gcd", _point(n), 16)
        cache.get("gcd", ArchConfig(num_buses=1), 16)
        cache.persist_stats()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "3 entries" in out
        assert "shard" in out
        assert "1 hits / 1 lookups" in out

    def test_stats_without_counters_names_the_server(self, tmp_path, capsys):
        # A batch study fills the cache but persists no counters; only
        # the study server writes stats.json, and the message says so.
        assert main([
            "study", "--workloads", "gcd", "--space", "small",
            "--cache-dir", str(tmp_path), "-q",
        ]) == 0
        assert not (tmp_path / "stats.json").exists()
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no persisted counters yet (the study server records them)" in out


# ----------------------------------------------------------------------
# end-to-end: real servers in subprocesses
# ----------------------------------------------------------------------
def _env(fault: str | None = None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_FAULT_INJECT", None)
    if fault:
        env["REPRO_FAULT_INJECT"] = fault
    return env


def _start_server(tmp_path: Path, *extra: str, fault: str | None = None):
    sock = tmp_path / "s.sock"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", str(sock),
            "--state-dir", str(tmp_path / "state"), *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_env(fault),
    )
    try:
        wait_for_server(str(sock))
    except Exception:
        proc.kill()
        out, _ = proc.communicate(timeout=10)
        raise AssertionError(f"server never came up; output:\n{out}")
    return proc


def _stop_server(proc, sock: str | Path) -> None:
    try:
        with ServiceClient(str(sock)) as client:
            client.shutdown()
    except (OSError, ServiceError):
        proc.kill()
    proc.wait(timeout=30)


def _batch_front(spec_dict: dict) -> list[str]:
    result = run_study(StudySpec.from_dict(spec_dict))
    return sorted(p.label for p in result.single.pareto)


def _watch_until_done(client, job_id: str) -> tuple[dict, dict]:
    """Drain a watch; returns (final job_state frame, last front per run)."""
    fronts: dict[str, dict] = {}
    for frame in client.watch(job_id):
        if frame["event"] == "front":
            fronts[frame["run"]] = frame
        elif frame["event"] == "job_state" and frame.get("terminal"):
            return frame, fronts
    raise AssertionError(f"watch of {job_id} ended without a terminal state")


SPEC_A = {"name": "svc-a", "workloads": ["gcd"], "space": "small"}
SPEC_B = {
    "name": "svc-b", "workloads": ["gcd", "checksum"], "space": "small",
}


class TestServiceEndToEnd:
    def test_concurrent_overlap_streams_and_dedupes(self, tmp_path):
        """Two tenants, overlapping studies: fronts match batch runs and
        each shared point is evaluated exactly once across the server."""
        sock = tmp_path / "s.sock"
        proc = _start_server(
            tmp_path,
            "--workers", "2", "--stream-every", "2",
            "--cache-dir", str(tmp_path / "cache"),
            fault="sleep@*:0.05",   # stretch points so the jobs overlap
        )
        try:
            with ServiceClient(str(sock)) as ca, \
                    ServiceClient(str(sock)) as cb:
                job_a = ca.submit(SPEC_A, tenant="a")["job"]
                job_b = cb.submit(SPEC_B, tenant="b")["job"]
                state_a, fronts_a = _watch_until_done(ca, job_a)
                state_b, fronts_b = _watch_until_done(cb, job_b)
                assert state_a["state"] == "done"
                assert state_b["state"] == "done"
                result_a = ca.result(job_a)
                result_b = cb.result(job_b)
                gauges = ca.metrics()["registry"]["gauges"]

            # streamed final fronts == the batch Study.run() fronts
            assert fronts_a["gcd/small/w16"]["final"]
            assert sorted(fronts_a["gcd/small/w16"]["front"]) == (
                _batch_front(SPEC_A)
            )
            batch_b = run_study(StudySpec.from_dict(SPEC_B))
            for run in batch_b.runs:
                assert sorted(fronts_b[run.label]["front"]) == sorted(
                    p.label for p in run.pareto
                )
                assert fronts_b[run.label]["final"]
            # ...and the persisted results agree with the stream
            assert sorted(result_a["runs"][0]["pareto"]) == (
                _batch_front(SPEC_A)
            )

            # the dedupe guarantee: 24 unique points (12 gcd shared +
            # 12 checksum), evaluated exactly once server-wide
            evaluated = sum(
                run["stats"]["evaluated"]
                for result in (result_a, result_b)
                for run in result["runs"]
            )
            assert evaluated == 24
            # the shared points were served by coalescing or the cache
            shared = sum(
                run["stats"]["cache_hits"]
                for result in (result_a, result_b)
                for run in result["runs"]
            ) + gauges["dedupe_coalesced"][0]["value"]
            assert shared >= 12
        finally:
            _stop_server(proc, sock)

    def test_cancel_queued_and_running(self, tmp_path):
        sock = tmp_path / "s.sock"
        proc = _start_server(
            tmp_path,
            "--workers", "1", "--no-cache", "--stream-every", "1",
            fault="sleep@*:0.2",
        )
        try:
            with ServiceClient(str(sock)) as client, \
                    ServiceClient(str(sock)) as side:
                running = client.submit(SPEC_A, tenant="a")["job"]
                queued = client.submit(
                    dict(SPEC_A, name="svc-queued"), tenant="a"
                )["job"]
                # worker budget is 1: the second job cannot be running
                side.cancel(queued)
                assert side.status(queued)["state"] == "cancelled"

                cancelled = False
                for frame in client.watch(running):
                    if frame["event"] == "front" and not cancelled:
                        side.cancel(running)   # mid-wave, points pending
                        cancelled = True
                    if frame["event"] == "job_state" and frame.get(
                        "terminal"
                    ):
                        assert frame["state"] == "cancelled"
                        break
                with pytest.raises(ServiceError, match="no result"):
                    side.result(running)
        finally:
            _stop_server(proc, sock)

    def test_sigkill_server_resumes_queue_and_finishes(self, tmp_path):
        """SIGKILL mid-study; the restarted server resumes the running
        job from its checkpoint and still runs the queued one."""
        sock = tmp_path / "s.sock"
        flags = (
            "--workers", "1", "--tenant-max-running", "1", "--no-cache",
            "--stream-every", "1", "--checkpoint-every", "1",
        )
        proc = _start_server(tmp_path, *flags, fault="sleep@*:0.1")
        spec_second = {
            "name": "svc-second", "workloads": ["checksum"],
            "space": "small",
        }
        with ServiceClient(str(sock)) as client:
            job_a = client.submit(SPEC_A, tenant="a")["job"]
            job_b = client.submit(spec_second, tenant="b")["job"]
            fronts_seen = 0
            for frame in client.watch(job_a):
                if frame["event"] == "front":
                    fronts_seen += 1
                if fronts_seen >= 3:       # mid-study, points recorded
                    break
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        proc = _start_server(tmp_path, *flags)   # no fault: finish fast
        try:
            with ServiceClient(str(sock)) as client:
                state_a, fronts_a = _watch_until_done(client, job_a)
                state_b, _ = _watch_until_done(client, job_b)
                assert state_a["state"] == "done"
                assert state_b["state"] == "done"
                result_a = client.result(job_a)
                result_b = client.result(job_b)
            assert sorted(result_a["runs"][0]["pareto"]) == (
                _batch_front(SPEC_A)
            )
            assert fronts_a["gcd/small/w16"]["front"] == (
                _batch_front(SPEC_A)
            )
            assert sorted(result_b["runs"][0]["pareto"]) == (
                _batch_front(spec_second)
            )
            # the resumed run did not restart: all 12 points are there
            assert result_a["runs"][0]["stats"]["total"] == 12
            assert len(result_a["runs"][0]["points"]) == 12
        finally:
            _stop_server(proc, sock)


# ----------------------------------------------------------------------
# job lifecycle timestamps (what `repro top` ages come from)
# ----------------------------------------------------------------------
class TestJobTimestamps:
    def test_lifecycle_stamps_and_round_trip(self):
        queue = JobQueue()
        job, _ = _submit(queue, "a")
        assert job.submitted_at is not None
        assert job.started_at is None and job.finished_at is None
        queue.mark_running(job)
        assert job.started_at >= job.submitted_at
        queue.finish(job, JobState.DONE)
        assert job.finished_at >= job.started_at
        loaded = JobQueue.from_dict(
            json.loads(json.dumps(queue.to_dict()))
        ).get(job.job_id)
        assert loaded.submitted_at == job.submitted_at
        assert loaded.started_at == job.started_at
        assert loaded.finished_at == job.finished_at

    def test_rearm_resets_stamps(self):
        queue = JobQueue()
        job, _ = _submit(queue, "a")
        first_submit = job.submitted_at
        queue.mark_running(job)
        queue.finish(job, JobState.FAILED, "boom")
        time.sleep(0.01)
        again, deduped = _submit(queue, "a")
        assert again is job and not deduped
        assert job.submitted_at > first_submit
        assert job.started_at is None and job.finished_at is None


# ----------------------------------------------------------------------
# `repro top` rendering (pure function; no server)
# ----------------------------------------------------------------------
class TestTopDashboard:
    METRICS = {
        "uptime": 61.0,
        "queue": {"depth": 1, "jobs": {"running": 1, "done": 2}},
        "workers": {"total": 4, "available": 3, "busy": 1},
        "tenants": {
            "alice": {
                "jobs_submitted": {"value": 2},
                "points_recorded": {"value": 24},
                "points_evaluated": {"value": 12},
                "cache_hits": {"value": 12},
                "queue_wait_seconds": {
                    "count": 2, "quantiles": {"p50": 0.0008, "p90": 0.002},
                },
                "eval_seconds": {
                    "count": 12,
                    "quantiles": {"p50": 0.004, "p99": 0.09},
                },
            },
        },
        "registry": {"counters": {"points_recorded": [
            {"labels": {"tenant": "alice", "job": "j1"}, "value": 24},
        ]}},
    }
    JOBS = [
        {"job": "j1", "tenant": "alice", "state": "done",
         "submitted_at": 100.0, "started_at": 101.0, "finished_at": 103.5},
        {"job": "j2", "tenant": "alice", "state": "running",
         "submitted_at": 104.0, "started_at": 105.0, "finished_at": None},
    ]

    def test_frame_contents_and_ordering(self):
        frame = render_dashboard(self.METRICS, self.JOBS, now=110.0)
        assert "up 1m01s" in frame
        assert "workers 1/4" in frame
        assert "queue 1" in frame
        assert "running:1 done:2" in frame
        # tenant row: points, evals, hits, latency quantiles
        alice = next(l for l in frame.splitlines() if l.startswith("alice"))
        assert "24" in alice and "12" in alice
        assert "800us" in alice and "4.0ms" in alice
        # running jobs sort above done ones; ages come from the stamps
        lines = frame.splitlines()
        assert lines.index(
            next(l for l in lines if l.startswith("j2"))
        ) < lines.index(next(l for l in lines if l.startswith("j1")))
        j1 = next(l for l in lines if l.startswith("j1"))
        assert "2.5s" in j1      # took = finished - started
        j2 = next(l for l in lines if l.startswith("j2"))
        assert "6.0s" in j2      # age = now - submitted

    def test_empty_server_renders(self):
        frame = render_dashboard({"uptime": 0.5}, [], now=1.0)
        assert "(no jobs)" in frame
        assert "(queue is empty)" in frame


# ----------------------------------------------------------------------
# the metrics op + CLI, against real servers
# ----------------------------------------------------------------------
class TestMetricsEndToEnd:
    def test_metrics_op_two_concurrent_tenants(self, tmp_path):
        """Acceptance: per-tenant evaluation counts reported by the
        ``metrics`` op equal the points actually recorded/evaluated by
        that tenant's jobs, with both tenants in flight at once."""
        sock = tmp_path / "s.sock"
        proc = _start_server(
            tmp_path,
            "--workers", "2", "--stream-every", "2",
            "--cache-dir", str(tmp_path / "cache"),
            fault="sleep@*:0.05",
        )
        try:
            with ServiceClient(str(sock)) as ca, \
                    ServiceClient(str(sock)) as cb:
                job_a = ca.submit(SPEC_A, tenant="a")["job"]
                job_b = cb.submit(SPEC_B, tenant="b")["job"]
                _watch_until_done(ca, job_a)
                _watch_until_done(cb, job_b)
                result_a = ca.result(job_a)
                result_b = cb.result(job_b)
                metrics = ca.metrics()
                only_b = ca.metrics(tenant="b")
                jobs = ca.request("jobs")["jobs"]

            assert metrics["version"] == METRICS_VERSION
            assert metrics["uptime"] > 0
            for tenant, result in (("a", result_a), ("b", result_b)):
                agg = metrics["tenants"][tenant]
                recorded = sum(
                    len(run["points"]) for run in result["runs"]
                )
                evaluated = sum(
                    run["stats"]["evaluated"] for run in result["runs"]
                )
                assert agg["points_recorded"]["value"] == recorded
                assert agg["points_evaluated"]["value"] == evaluated
                assert agg["jobs_submitted"]["value"] == 1
                assert agg["jobs_finished"]["value"] == 1
                # the per-point latency histogram saw every evaluation
                assert agg["eval_seconds"]["count"] == evaluated
                assert agg["queue_wait_seconds"]["count"] == 1
            assert list(only_b["tenants"]) == ["b"]
            g = metrics["global"]
            assert g["points_evaluated"]["value"] == 24   # dedupe holds
            assert g["jobs_finished"]["value"] == 2
            assert metrics["workers"]["total"] == 2
            assert metrics["queue"]["jobs"]["done"] == 2
            # per-(tenant, job) series survive in the raw registry
            eval_series = (
                metrics["registry"]["histograms"]["eval_seconds"]
            )
            assert sum(e["count"] for e in eval_series) == 24
            assert {e["labels"]["job"] for e in eval_series} == {
                job_a, job_b,
            }
            # lifecycle stamps flow through the jobs op for `repro top`
            for job in jobs:
                assert (
                    job["submitted_at"]
                    <= job["started_at"]
                    <= job["finished_at"]
                )
        finally:
            _stop_server(proc, sock)

    def test_metrics_cli_and_top_frames(self, tmp_path, capsys):
        sock = tmp_path / "s.sock"
        proc = _start_server(tmp_path, "--workers", "1", "--no-cache")
        try:
            with ServiceClient(str(sock)) as client:
                job = client.submit(SPEC_A, tenant="alice")["job"]
                _watch_until_done(client, job)

            # --format json round-trips the full metrics op response
            assert main([
                "metrics", "dump", "--server", str(sock),
                "--format", "json",
            ]) == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["version"] == METRICS_VERSION
            assert (
                payload["tenants"]["alice"]["points_evaluated"]["value"]
                == 12
            )

            # the default format is parseable Prometheus text
            assert main(["metrics", "dump", "--server", str(sock)]) == 0
            prom = capsys.readouterr().out
            helps = [
                l.split()[2] for l in prom.splitlines()
                if l.startswith("# HELP")
            ]
            types = [
                l.split()[2] for l in prom.splitlines()
                if l.startswith("# TYPE")
            ]
            assert helps and len(helps) == len(set(helps))
            assert types and len(types) == len(set(types))
            assert all(
                l.startswith(("#", "repro_"))
                for l in prom.splitlines() if l
            )
            assert (
                f'repro_points_evaluated_total'
                f'{{job="{job}",tenant="alice"}} 12'
            ) in prom

            # two top frames, no clear codes, job + tenant visible
            assert main([
                "top", "--server", str(sock), "--iterations", "2",
                "--interval", "0", "--no-clear",
            ]) == 0
            frames = capsys.readouterr().out
            assert frames.count("repro top — study server") == 2
            assert "\x1b" not in frames
            assert "alice" in frames and job in frames
        finally:
            _stop_server(proc, sock)
