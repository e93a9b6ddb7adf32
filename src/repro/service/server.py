"""The asyncio study server.

One process, one event loop, three moving parts:

* the **queue** (:class:`~repro.service.queue.JobQueue`) — mutated only
  from the event loop, persisted through a
  :class:`~repro.resilience.checkpoint.CheckpointManager` (atomic
  rename + content-hash verification) on every transition, so a
  ``SIGKILL`` at any moment leaves a loadable ``queue.json`` and the
  restarted server re-queues whatever was mid-run;
* the **runner** — each started job executes ``Study.run()`` on a
  worker thread (the study's own process pool does the heavy lifting;
  the thread exists so the loop stays responsive), holding a *lease* of
  worker slots from the server's shared budget so concurrent studies
  divide one pool-sized resource instead of oversubscribing the host;
* the **streamer** — a :class:`CheckpointManager` subclass taps the
  engine's per-point record stream (the same records the study
  checkpoint persists — streaming costs no extra bookkeeping), decodes
  them with the cache's entry codec and periodically recomputes the
  partial Pareto front, which subscribed ``watch`` connections receive
  as ``front`` events.

Evaluations dedupe at two levels: the shared
:class:`~repro.campaign.cache.ResultCache` collapses anything already
finished, and a per-server :class:`~repro.service.dedupe.InflightIndex`
single-flights points two running studies would otherwise both
evaluate.

Per-job study checkpoints live in ``<state_dir>/checkpoints/``; a job
recovered from a killed server resumes from its checkpoint (evaluated
points become an overlay) rather than restarting.  Finished results
are JSON files in ``<state_dir>/results/`` — restart-proof and
servable without re-deriving anything.
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
from time import perf_counter, time

from repro.campaign.cache import decode_entry
from repro.reporting import study_to_dict
from repro.resilience.checkpoint import CancelToken, CheckpointManager
from repro.service import protocol
from repro.service.dedupe import DedupeCache, InflightIndex
from repro.service.queue import JobQueue, JobState
from repro.service.protocol import parse_address
from repro.study.engine import Study
from repro.study.objectives import pareto_front, resolve_objectives
from repro.study.spec import StudySpec
from repro.telemetry.live import LiveRegistry, aggregate_series
from repro.telemetry.tracer import NULL_TRACER, Tracer

__all__ = ["ServiceCheckpointManager", "StudyServer"]

#: The pseudo-spec the queue checkpoint stores (a queue is not a study,
#: but the checkpoint file format wants to know whose state it holds).
_QUEUE_SPEC = {"service": "study-queue"}

#: Seconds between periodic cache-stats flushes and registry snapshots.
STATS_EVERY = 30.0


class ServiceCheckpointManager(CheckpointManager):
    """A study checkpoint manager that also feeds a point tap.

    ``on_point`` (set after construction/load) receives every recorded
    point — the server wires it to the front streamer.  Everything
    durable is inherited unchanged, so a study checkpointed through
    this class resumes through plain :class:`CheckpointManager` logic.
    """

    on_point = None

    def record_point(self, label: str, config_label: str, entry: dict) -> None:
        super().record_point(label, config_label, entry)
        if self.on_point is not None:
            self.on_point(label, config_label, entry)


class _FrontStreamer:
    """Accumulate a job's decoded points; publish periodic fronts.

    Runs on the job's worker thread (it is called from the engine's
    record path); ``publish`` must therefore be thread-safe — the
    server passes a ``call_soon_threadsafe`` trampoline.  Fronts are
    computed under the spec's objectives that need no post-pass (the
    base axes the paper's staged fronts start from); the final,
    complete front comes from the finished result, not from here.
    """

    def __init__(self, spec: StudySpec, every: int, publish) -> None:
        self.every = max(1, every)
        self.publish = publish
        resolved = resolve_objectives(spec.objectives)
        base = tuple(o for o in resolved if not o.needs_post_pass)
        self.objectives = base or ("area", "cycles")
        self._points: dict[str, dict[str, object]] = {}
        self._since: dict[str, int] = {}

    def on_point(self, label: str, config_label: str, entry: dict) -> None:
        try:
            point = decode_entry(entry)
        except (ValueError, KeyError, TypeError, AttributeError):
            return
        if point is None:
            return
        run = self._points.setdefault(label, {})
        run[config_label] = point
        self._since[label] = self._since.get(label, 0) + 1
        if self._since[label] >= self.every:
            self._since[label] = 0
            self.flush(label)

    def flush(self, label: str) -> None:
        run = self._points.get(label, {})
        front = pareto_front(run.values(), self.objectives)
        self.publish(
            label,
            {
                "done": len(run),
                "front": sorted(p.label for p in front),
                "final": False,
            },
        )


class StudyServer:
    """The service: queue + runner + streamer behind one socket.

    ``total_workers`` is the shared evaluation budget every running
    study leases from; ``job_workers`` the per-job default when a
    spec's own ``workers`` hint is 1.  ``cache`` is a shared
    :class:`~repro.campaign.cache.ResultCache`; ``None`` runs every job
    uncached, which also turns in-flight dedupe off (there is nothing
    to coalesce *from*).

    Operational state lives in :attr:`registry` — a
    :class:`~repro.telemetry.live.LiveRegistry` of queue/worker/cache
    gauges, job lifecycle counters and queue-wait/evaluation-latency
    histograms, served by the ``metrics`` op and (when the CLI starts
    one) the Prometheus ``/metrics`` exporter.  Every job's study runs
    metered, so its per-point latency histograms fold in on
    completion; metering is result-equivalent by design.
    """

    def __init__(
        self,
        state_dir: str | Path,
        cache=None,
        total_workers: int = 2,
        job_workers: int = 1,
        tenant_max_running: int = 2,
        stream_every: int = 4,
        checkpoint_every: int = 4,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        if total_workers < 1:
            raise ValueError("total_workers must be >= 1")
        self.state_dir = Path(state_dir)
        (self.state_dir / "checkpoints").mkdir(parents=True, exist_ok=True)
        (self.state_dir / "results").mkdir(parents=True, exist_ok=True)
        self.cache = cache
        self.total_workers = total_workers
        self.job_workers = max(1, job_workers)
        self.available_workers = total_workers
        self.stream_every = stream_every
        self.checkpoint_every = checkpoint_every
        self.tracer = tracer
        #: The live, scrapeable operational metrics (thread-safe; the
        #: ``metrics`` op and the Prometheus exporter both read it).
        self.registry = LiveRegistry()
        self.started_at = time()
        self.index = InflightIndex()
        self.queue = self._load_queue(tenant_max_running)
        self._queue_ckpt = CheckpointManager(
            _QUEUE_SPEC, path=self.state_dir / "queue.json", every=1
        )
        self._watchers: dict[str, set[asyncio.Queue]] = {}
        self._fronts: dict[str, dict[str, dict]] = {}
        self._tokens: dict[str, CancelToken] = {}
        self._tasks: dict[str, asyncio.Task] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stopping = asyncio.Event()

    # ------------------------------------------------------------------
    # durable queue state
    # ------------------------------------------------------------------
    def _load_queue(self, tenant_max_running: int) -> JobQueue:
        path = self.state_dir / "queue.json"
        if path.exists():
            manager = CheckpointManager.load(path)
            state = manager.points("queue").get("state")
            if state is not None:
                queue = JobQueue.from_dict(state)
                queue.tenant_max_running = tenant_max_running
                return queue
        return JobQueue(tenant_max_running)

    def _persist_queue(self) -> None:
        # ``every=1`` means each record is one atomic write; the queue
        # state rides the checkpoint format (schema + spec hash), so a
        # torn or hand-edited file fails loudly at load, not silently.
        start = perf_counter()
        self._queue_ckpt.record_point("queue", "state", self.queue.to_dict())
        self.registry.observe(
            "checkpoint_seconds", perf_counter() - start,
            help="durable-state write durations by kind", kind="queue",
        )

    # ------------------------------------------------------------------
    # telemetry + watcher fan-out
    # ------------------------------------------------------------------
    def _notify(self, job_id: str, frame: dict) -> None:
        for queue in self._watchers.get(job_id, ()):  # loop thread only
            queue.put_nowait(frame)

    def _job_state_frame(self, job) -> dict:
        return protocol.event(
            "job_state",
            terminal=job.state in JobState.TERMINAL,
            **job.describe(),
        )

    def _set_state(self, job, state: str, error: str | None = None) -> None:
        if state in JobState.TERMINAL:
            self.queue.finish(job, state, error)
            self.registry.count(
                "jobs_finished",
                help="jobs reaching a terminal state",
                tenant=job.tenant, state=state,
            )
            if job.started_at is not None and job.finished_at is not None:
                self.registry.observe(
                    "job_seconds",
                    max(0.0, job.finished_at - job.started_at),
                    help="start-to-finish job duration",
                    tenant=job.tenant,
                )
        else:
            job.state = state
        self._persist_queue()
        self.tracer.event(
            "job_state", run=job.job_id, job=job.job_id,
            tenant=job.tenant, state=job.state, error=error,
        )
        self._notify(job.job_id, self._job_state_frame(job))

    def _publish_front(self, job_id: str, run_label: str, info: dict) -> None:
        self._fronts.setdefault(job_id, {})[run_label] = info
        self._notify(
            job_id,
            protocol.event("front", job=job_id, run=run_label, **info),
        )

    # ------------------------------------------------------------------
    # live metrics
    # ------------------------------------------------------------------
    def _refresh_gauges(self, disk: bool = False) -> None:
        """Bring the registry's point-in-time gauges up to date.

        Cheap (in-memory) gauges refresh on every scheduler pass;
        ``disk=True`` additionally walks the cache for entry/byte
        totals — only the ``metrics`` op and the periodic stats
        flusher pay that.
        """
        reg = self.registry
        reg.gauge(
            "queue_depth", len(self.queue.queued()),
            help="jobs waiting for a worker lease",
        )
        reg.gauge(
            "jobs_running", self.queue.running_count(),
            help="jobs currently holding a lease",
        )
        reg.gauge(
            "workers_total", self.total_workers,
            help="the shared evaluation worker budget",
        )
        reg.gauge(
            "workers_available", self.available_workers,
            help="worker slots not currently leased",
        )
        reg.gauge(
            "workers_busy", self.total_workers - self.available_workers,
            help="worker slots leased to running jobs",
        )
        dedupe = self.index.as_dict()
        reg.gauge(
            "dedupe_inflight", dedupe["in_flight"],
            help="points currently claimed by a running study",
        )
        reg.gauge(
            "dedupe_claims", dedupe["claims"],
            help="lifetime single-flight claims taken",
        )
        reg.gauge(
            "dedupe_coalesced", dedupe["coalesced"],
            help="lifetime evaluations avoided by coalescing",
        )
        if self.cache is not None:
            stats = getattr(self.cache, "stats", None)
            if stats is not None:
                counters = stats.as_dict()
                hits = counters.get("hits", 0)
                misses = counters.get("misses", 0)
                reg.gauge(
                    "cache_hits_lifetime", hits,
                    help="result-cache hits since server start",
                )
                reg.gauge(
                    "cache_misses_lifetime", misses,
                    help="result-cache misses since server start",
                )
                reg.gauge(
                    "cache_hit_rate",
                    hits / (hits + misses) if hits + misses else 0.0,
                    help="hits / lookups since server start",
                )
            if disk:
                reg.gauge(
                    "cache_entries", len(self.cache),
                    help="entries in the shared result cache",
                )
                reg.gauge(
                    "cache_bytes", self.cache.bytes_on_disk(),
                    help="result-cache bytes on disk",
                )

    def _fold_run_metrics(self, job, result) -> None:
        """Fold a finished study's per-run telemetry into the registry.

        Counters and ``eval_seconds`` histograms were merged inside the
        study (worker snapshots, submission order — deterministic);
        here they land labelled by (tenant, job) so the ``metrics`` op
        can aggregate per tenant and globally.
        """
        labels = {"tenant": job.tenant, "job": job.job_id}
        for run in result.runs:
            stats = run.stats
            self.registry.count(
                "points_evaluated", stats.evaluated,
                help="configurations actually compiled", **labels,
            )
            self.registry.count(
                "cache_hits", stats.cache_hits,
                help="points served from the result cache", **labels,
            )
            hist = stats.histograms.get("eval_seconds")
            if hist is not None:
                self.registry.merge_histogram(
                    "eval_seconds", hist,
                    help="per-point evaluation latency "
                         "(measured in-worker)",
                    **labels,
                )

    def _snapshot_to_trace(self, job=None) -> None:
        """Emit one ``metric_snapshot`` trace record of the registry."""
        self.tracer.metric_snapshot(
            "registry",
            self.registry.snapshot(),
            job=None if job is None else job.job_id,
            tenant=None if job is None else job.tenant,
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        """Start every job the queue and worker budget allow."""
        if self._stopping.is_set():
            return
        while self.available_workers > 0:
            job = self.queue.pick()
            if job is None:
                return
            requested = max(
                int(job.spec_dict.get("workers", 1)), self.job_workers
            )
            lease = min(requested, self.available_workers)
            self.available_workers -= lease
            self.queue.mark_running(job)
            if job.submitted_at is not None and job.started_at is not None:
                self.registry.observe(
                    "queue_wait_seconds",
                    max(0.0, job.started_at - job.submitted_at),
                    help="submit-to-start latency",
                    tenant=job.tenant,
                )
            self._persist_queue()
            self._refresh_gauges()
            self.tracer.event(
                "queue", run=job.job_id, job=job.job_id,
                tenant=job.tenant, action="start", lease=lease,
                available=self.available_workers,
                queued=len(self.queue.queued()),
            )
            self._notify(job.job_id, self._job_state_frame(job))
            task = asyncio.get_running_loop().create_task(
                self._run_job(job, lease)
            )
            self._tasks[job.job_id] = task

    def _checkpoint_path(self, job) -> Path:
        return self.state_dir / "checkpoints" / f"{job.job_id}.json"

    def _result_path(self, job_id: str) -> Path:
        return self.state_dir / "results" / f"{job_id}.json"

    def _build_study(self, job, lease: int) -> tuple[Study, CancelToken]:
        """Assemble one job's engine stack (manager, dedupe, token)."""
        spec = StudySpec.from_dict(job.spec_dict)
        token = CancelToken()
        ckpt = self._checkpoint_path(job)
        if job.interrupted and ckpt.exists():
            manager = ServiceCheckpointManager.load(
                ckpt, every=self.checkpoint_every
            )
        else:
            manager = ServiceCheckpointManager(
                spec.to_dict(), path=ckpt, every=self.checkpoint_every
            )
        loop = asyncio.get_running_loop()
        streamer = _FrontStreamer(
            spec,
            self.stream_every,
            lambda label, info: loop.call_soon_threadsafe(
                self._publish_front, job.job_id, label, info
            ),
        )
        registry = self.registry
        tenant, job_id = job.tenant, job.job_id

        def on_point(label, config_label, entry):
            # Runs on the job's worker thread; the registry locks.
            registry.count(
                "points_recorded",
                help="points recorded by running studies "
                     "(fresh and cached)",
                tenant=tenant, job=job_id,
            )
            streamer.on_point(label, config_label, entry)

        manager.on_point = on_point
        cache = self.cache
        if cache is not None:
            cache = DedupeCache(cache, self.index, job.job_id, token=token)
        # Jobs run metered: the per-run counters and in-worker
        # ``eval_seconds`` histograms fold into the live registry on
        # completion.  Each job traces through a bound view that stamps
        # its job/tenant ids onto every study-layer record.
        study = Study(
            spec,
            cache=cache,
            workers=lease,
            manager=manager,
            cancel=token,
            tracer=self.tracer.bind(job=job.job_id, tenant=job.tenant),
            collect_metrics=True,
        )
        return study, token

    async def _run_job(self, job, lease: int) -> None:
        loop = asyncio.get_running_loop()
        job_id = job.job_id
        try:
            study, token = self._build_study(job, lease)
            self._tokens[job_id] = token
            result = await loop.run_in_executor(None, study.run)
            self._fold_run_metrics(job, result)
            if result.interrupted:
                self._set_state(job, JobState.CANCELLED)
                return
            payload = study_to_dict(result)
            payload["job"] = job.describe()
            self._write_result(job_id, payload)
            for run in result.runs:
                self._publish_front(
                    job_id,
                    run.label,
                    {
                        "done": len(run.result.points),
                        "front": sorted(p.label for p in run.pareto),
                        "final": True,
                    },
                )
            state = JobState.FAILED if result.failures else JobState.DONE
            error = (
                f"{len(result.failures)} point(s) failed"
                if result.failures else None
            )
            self._set_state(job, state, error)
        except asyncio.CancelledError:
            self._set_state(job, JobState.CANCELLED)
            raise
        except Exception as exc:              # noqa: BLE001 — job isolation:
            # one job's crash must never take the server down with it.
            self._set_state(job, JobState.FAILED, f"{type(exc).__name__}: {exc}")
        finally:
            self.available_workers += lease
            self._tasks.pop(job_id, None)
            self._tokens.pop(job_id, None)
            released = self.index.release_owner(job_id)
            self.tracer.event(
                "queue", run=job_id, job=job_id, tenant=job.tenant,
                action="finish", available=self.available_workers,
                claims_released=released,
            )
            self._flush_cache_stats()
            self._refresh_gauges()
            self._snapshot_to_trace(job)
            self._schedule()

    def _write_result(self, job_id: str, payload: dict) -> None:
        path = self._result_path(job_id)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(payload, indent=2))
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                frame: dict = {}
                try:
                    frame = protocol.decode_frame(line)
                    response = await self._dispatch(frame, writer)
                except protocol.ProtocolError as exc:
                    response = protocol.error(str(exc))
                except (KeyError, ValueError) as exc:
                    message = exc.args[0] if exc.args else str(exc)
                    response = protocol.error(str(message))
                # ``watch`` writes its own frames (subscription ack +
                # event stream) and returns None — nothing to send.
                if response is not None:
                    writer.write(protocol.encode_frame(response))
                    await writer.drain()
                if frame.get("op") == "shutdown" and (
                    response is not None and response.get("ok")
                ):
                    self._stopping.set()
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    async def _dispatch(self, frame: dict, writer) -> dict | None:
        op = frame.get("op")
        if op == "ping":
            return protocol.ok(version=protocol.PROTOCOL_VERSION)
        if op == "submit":
            return self._op_submit(frame)
        if op == "jobs":
            return protocol.ok(
                jobs=[
                    job.describe()
                    for job in sorted(
                        self.queue.jobs.values(), key=lambda j: j.seq
                    )
                ]
            )
        if op == "status":
            return protocol.ok(
                status=self.queue.get(str(frame.get("job"))).describe()
            )
        if op == "result":
            return self._op_result(frame)
        if op == "cancel":
            return self._op_cancel(frame)
        if op == "watch":
            return await self._op_watch(frame, writer)
        if op == "metrics":
            return self._op_metrics(frame)
        if op == "shutdown":
            return protocol.ok(stopping=True)
        return protocol.error(
            f"unknown op {op!r} (known: {', '.join(protocol.OPS)})"
        )

    def _op_submit(self, frame: dict) -> dict:
        spec = StudySpec.from_dict(frame["spec"])
        spec.validate()
        tenant = str(frame.get("tenant") or "default")
        priority = int(frame.get("priority", 0))
        job, deduped = self.queue.submit(
            tenant, spec.spec_id, spec.to_dict(), priority
        )
        self.registry.count(
            "jobs_submitted", help="submit requests accepted",
            tenant=tenant,
        )
        if deduped:
            self.registry.count(
                "jobs_deduped",
                help="submits answered by an existing job",
                tenant=tenant,
            )
        self._persist_queue()
        self._refresh_gauges()
        self.tracer.event(
            "queue", run=job.job_id, job=job.job_id, tenant=tenant,
            action="submit", deduped=deduped, priority=priority,
        )
        if not deduped:
            self._schedule()
        return protocol.ok(
            job=job.job_id, deduped=deduped, state=job.state,
            spec_id=spec.spec_id,
        )

    def _op_result(self, frame: dict) -> dict:
        job = self.queue.get(str(frame.get("job")))
        path = self._result_path(job.job_id)
        if job.state not in (JobState.DONE, JobState.FAILED) \
                or not path.exists():
            raise ValueError(
                f"job {job.job_id} has no result (state: {job.state})"
            )
        return protocol.ok(result=json.loads(path.read_text()))

    def _op_cancel(self, frame: dict) -> dict:
        job = self.queue.get(str(frame.get("job")))
        if job.state == JobState.QUEUED:
            self._set_state(job, JobState.CANCELLED)
            return protocol.ok(job=job.job_id, state=job.state)
        if job.state == JobState.RUNNING:
            token = self._tokens.get(job.job_id)
            if token is not None:
                token.cancel()
            self.tracer.event(
                "queue", run=job.job_id, job=job.job_id,
                tenant=job.tenant, action="cancel",
            )
            return protocol.ok(job=job.job_id, state=job.state)
        return protocol.ok(job=job.job_id, state=job.state, noop=True)

    async def _op_watch(self, frame: dict, writer) -> None:
        """Stream one job to this connection (writes its own frames).

        Replay first — the freshest front per run, then the current
        state — so a late subscriber starts from reality; a watch on an
        already-terminal job is exactly the replay.  Returns None: the
        subscription ack and every event frame went out here.
        """
        job = self.queue.get(str(frame.get("job")))
        job_id = job.job_id
        events: asyncio.Queue = asyncio.Queue()
        self._watchers.setdefault(job_id, set()).add(events)
        try:
            writer.write(protocol.encode_frame(protocol.ok(job=job_id)))
            for run_label, info in sorted(
                self._fronts.get(job_id, {}).items()
            ):
                writer.write(
                    protocol.encode_frame(
                        protocol.event(
                            "front", job=job_id, run=run_label, **info
                        )
                    )
                )
            writer.write(protocol.encode_frame(self._job_state_frame(job)))
            await writer.drain()
            if job.state in JobState.TERMINAL:
                return None
            while True:
                item = await events.get()
                writer.write(protocol.encode_frame(item))
                await writer.drain()
                if item.get("event") == "job_state" and item.get("terminal"):
                    return None
        finally:
            self._watchers.get(job_id, set()).discard(events)

    #: Metrics aggregated per tenant and globally by the ``metrics``
    #: op (counters sum; histograms merge buckets and re-derive
    #: quantiles).
    _AGGREGATED = (
        "jobs_submitted", "jobs_deduped", "jobs_finished",
        "points_recorded", "points_evaluated", "cache_hits",
        "queue_wait_seconds", "eval_seconds", "job_seconds",
    )

    def _op_metrics(self, frame: dict) -> dict:
        """The live registry plus per-tenant/global roll-ups.

        ``{"op": "metrics"}`` returns everything; ``{"op": "metrics",
        "tenant": "a"}`` narrows the ``tenants`` section to one tenant
        (the raw registry and global aggregates still cover all).
        """
        self._refresh_gauges(disk=True)
        snapshot = self.registry.snapshot()

        def series(name: str) -> list:
            for table in ("counters", "histograms", "gauges"):
                if name in snapshot[table]:
                    return snapshot[table][name]
            return []

        tenants: dict[str, dict] = {}
        global_agg: dict[str, dict] = {}
        for name in self._AGGREGATED:
            rows = series(name)
            if not rows:
                continue
            for tenant, value in aggregate_series(rows, by="tenant").items():
                if tenant:
                    tenants.setdefault(tenant, {})[name] = value
            global_agg[name] = aggregate_series(rows)[""]
        wanted = frame.get("tenant")
        if wanted is not None:
            tenants = {
                t: v for t, v in tenants.items() if t == str(wanted)
            }
        by_state: dict[str, int] = {}
        for job in self.queue.jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return protocol.ok(
            metrics={
                "version": protocol.METRICS_VERSION,
                "uptime": round(time() - self.started_at, 3),
                "queue": {
                    "depth": len(self.queue.queued()),
                    "jobs": by_state,
                },
                "workers": {
                    "total": self.total_workers,
                    "available": self.available_workers,
                    "busy": self.total_workers - self.available_workers,
                },
                "tenants": tenants,
                "global": global_agg,
                "registry": snapshot,
            }
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self, address: str) -> str:
        """Bind and start serving; returns the bound address string.

        TCP port 0 picks a free port (the returned string carries the
        real one — how the tests avoid port races).  A stale unix
        socket file from a killed server is swept before binding.
        """
        self._loop = asyncio.get_running_loop()
        family, target = parse_address(address)
        if family == "unix":
            Path(target).parent.mkdir(parents=True, exist_ok=True)
            try:
                os.unlink(target)
            except OSError:
                pass
            self._server = await asyncio.start_unix_server(
                self._handle, path=target
            )
            bound = f"unix:{target}"
        else:
            host, port = target
            self._server = await asyncio.start_server(
                self._handle, host=host, port=port
            )
            port = self._server.sockets[0].getsockname()[1]
            bound = f"tcp:{host}:{port}"
        # Recover: anything the loaded queue holds is schedulable now.
        self._persist_queue()
        self._refresh_gauges()
        self._schedule()
        return bound

    async def serve_until_stopped(self) -> None:
        """Serve until ``shutdown`` (or :meth:`stop`); drain jobs."""
        stats_task = asyncio.get_running_loop().create_task(
            self._stats_flusher()
        )
        await self._stopping.wait()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._tasks:
            await asyncio.gather(
                *list(self._tasks.values()), return_exceptions=True
            )
        stats_task.cancel()
        self._flush_cache_stats()

    async def _stats_flusher(self) -> None:
        while True:
            await asyncio.sleep(STATS_EVERY)
            self._flush_cache_stats()
            self._refresh_gauges(disk=True)
            self._snapshot_to_trace()

    def _flush_cache_stats(self) -> None:
        """Persist the shared cache's lifetime counters, timed."""
        if self.cache is None:
            return
        try:
            start = perf_counter()
            self.cache.persist_stats()
            self.registry.observe(
                "flush_seconds", perf_counter() - start,
                help="cache stats flush durations",
                kind="cache_stats",
            )
        except OSError:
            pass

    def stop(self) -> None:
        """Request a graceful stop; safe from any thread.

        Signal handlers call it from the loop thread; tests call it
        from wherever they are — the cross-thread case trampolines
        through ``call_soon_threadsafe``.
        """
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            running = asyncio.get_running_loop() is loop
        except RuntimeError:
            running = False
        if running:
            self._stopping.set()
        else:
            loop.call_soon_threadsafe(self._stopping.set)
