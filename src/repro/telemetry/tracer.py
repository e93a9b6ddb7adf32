"""Structured tracing: span/event records onto a JSONL sink.

A :class:`Tracer` is a thin, zero-dependency writer of the records
documented in :mod:`repro.telemetry.schema`.  Timestamps come from
``time.perf_counter`` relative to the moment the tracer opened, so the
stream is monotonic and durations subtract exactly; the wall-clock
start lives in the header record for humans.

Writes are **buffered**: records accumulate in memory and hit the file
every ``flush_every`` records or ``flush_seconds`` seconds, whichever
comes first (flush-per-record was a measurable drag on large traced
sweeps).  :meth:`~Tracer.flush` forces the buffer out at any time, and
:meth:`~Tracer.close` always flushes, so the ``finally``-flush
guarantees hold: a run that dies mid-study still leaves a valid trace
of everything recorded before the failure.  A lock serialises writers,
so the study server can hand :meth:`~Tracer.bind`-stamped views of one
tracer to jobs running on different threads.

Tracing is strictly opt-in: nothing in the study stack constructs a
tracer on its own, and every instrumented call site defaults to
:data:`NULL_TRACER`, whose recording methods do nothing, so one code
path serves both modes.  Only the parent process traces — pool workers
report their share through metric snapshots merged on wave
completion, never through the sink — so one file descriptor owns the
file and records never interleave.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter
from typing import IO, Iterator

from repro.telemetry.schema import SCHEMA_VERSION


class Tracer:
    """Emit schema-versioned span/event records as JSON lines.

    ``sink`` is a path (opened for writing, parents created) or any
    object with ``write``/``flush``.  ``study`` stamps every record
    with the study id; a study given a tracer without one traces
    through a :meth:`bind` view stamped with its own name.
    ``flush_every``/``flush_seconds`` bound how much a crash can lose
    (``flush_every=1`` restores the old flush-per-record behaviour).
    """

    def __init__(
        self,
        sink: str | Path | IO[str],
        study: str | None = None,
        flush_every: int = 64,
        flush_seconds: float = 1.0,
    ) -> None:
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        if isinstance(sink, (str, Path)):
            path = Path(sink)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._file: IO[str] = path.open("w")
            self._owns_file = True
        else:
            self._file = sink
            self._owns_file = False
        self.study = study
        self.flush_every = flush_every
        self.flush_seconds = flush_seconds
        self._t0 = perf_counter()
        self._lock = threading.Lock()
        self._buffer: list[str] = []
        self._last_flush = perf_counter()
        self._closed = False
        self._write({
            "v": SCHEMA_VERSION,
            "kind": "meta",
            "ts": 0.0,
            "name": "trace",
            "data": {
                "schema": SCHEMA_VERSION,
                "started": time.time(),
                "pid": os.getpid(),
            },
        })

    # ------------------------------------------------------------------
    def _write(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            if self._closed:
                return
            self._buffer.append(line)
            now = perf_counter()
            if (
                len(self._buffer) >= self.flush_every
                or now - self._last_flush >= self.flush_seconds
            ):
                self._flush_locked(now)

    def _flush_locked(self, now: float | None = None) -> None:
        if self._buffer:
            self._file.write("".join(self._buffer))
            self._buffer.clear()
        self._file.flush()
        self._last_flush = perf_counter() if now is None else now

    def flush(self) -> None:
        """Force buffered records to the sink now."""
        with self._lock:
            if not self._closed:
                self._flush_locked()

    def _record(
        self,
        kind: str,
        name: str,
        ts: float,
        run: str | None,
        wave: int | None,
        config: str | None,
        data: dict | None,
        dur: float | None = None,
        job: str | None = None,
        tenant: str | None = None,
        study: str | None = None,
    ) -> None:
        record: dict = {
            "v": SCHEMA_VERSION,
            "kind": kind,
            "ts": round(ts, 6),
            "name": name,
        }
        if dur is not None:
            record["dur"] = round(dur, 6)
        study = study if study is not None else self.study
        if study is not None:
            record["study"] = study
        if run is not None:
            record["run"] = run
        if wave is not None:
            record["wave"] = wave
        if config is not None:
            record["config"] = config
        if job is not None:
            record["job"] = job
        if tenant is not None:
            record["tenant"] = tenant
        if data:
            record["data"] = data
        self._write(record)

    # ------------------------------------------------------------------
    def event(
        self,
        name: str,
        run: str | None = None,
        wave: int | None = None,
        config: str | None = None,
        job: str | None = None,
        tenant: str | None = None,
        study: str | None = None,
        **data,
    ) -> None:
        """Emit one point-in-time event record."""
        self._record(
            "event", name, perf_counter() - self._t0, run, wave, config,
            data or None, job=job, tenant=tenant, study=study,
        )

    @contextmanager
    def span(
        self,
        name: str,
        run: str | None = None,
        wave: int | None = None,
        config: str | None = None,
        job: str | None = None,
        tenant: str | None = None,
        study: str | None = None,
        **data,
    ) -> Iterator[None]:
        """Time a block; emits one complete span record on exit.

        The record is written even when the block raises, so traces of
        failed runs still account for the time spent.
        """
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._record(
                "span", name, start - self._t0, run, wave, config,
                data or None, dur=end - start, job=job, tenant=tenant,
                study=study,
            )

    def metric_snapshot(
        self,
        name: str,
        data: dict,
        job: str | None = None,
        tenant: str | None = None,
        study: str | None = None,
    ) -> None:
        """Emit one ``metric_snapshot`` record (a live-registry dump)."""
        self._record(
            "metric_snapshot", name, perf_counter() - self._t0,
            None, None, None, data, job=job, tenant=tenant, study=study,
        )

    def bind(
        self, job: str | None = None, tenant: str | None = None,
        study: str | None = None,
    ) -> "BoundTracer":
        """A view of this tracer that stamps ``job``/``tenant``/``study``
        on every record — how the study server correlates study-layer
        spans with the service job that ran them, and how a study
        stamps its name without writing to a tracer it shares."""
        view = BoundTracer(self, job=job, tenant=tenant)
        if study is not None:
            view.study = study
        return view

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._flush_locked()
            if self._owns_file:
                self._file.close()
            self._closed = True

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class BoundTracer:
    """A :class:`Tracer` view with ``job``/``tenant``/``study`` pre-stamped.

    Shares the underlying sink, clock and buffer; exposes the same
    recording surface (``event``/``span``/``metric_snapshot``/
    ``bind``) plus a **view-local** ``study`` attribute — concurrent
    jobs bound to one tracer each keep their own study stamp without
    racing on the shared base.  Closing is the owner's business —
    ``close`` here only flushes.
    """

    def __init__(
        self, base: Tracer, job: str | None, tenant: str | None,
    ) -> None:
        self._base = base
        self.job = job
        self.tenant = tenant
        self.study: str | None = base.study

    def _stamp(self, kwargs: dict) -> dict:
        kwargs.setdefault("job", self.job)
        kwargs.setdefault("tenant", self.tenant)
        if self.study is not None:
            kwargs.setdefault("study", self.study)
        return kwargs

    def event(self, name: str, **kwargs) -> None:
        self._base.event(name, **self._stamp(kwargs))

    def span(self, name: str, **kwargs):
        return self._base.span(name, **self._stamp(kwargs))

    def metric_snapshot(self, name: str, data: dict, **kwargs) -> None:
        self._base.metric_snapshot(name, data, **self._stamp(kwargs))

    def bind(
        self, job: str | None = None, tenant: str | None = None,
        study: str | None = None,
    ) -> "BoundTracer":
        view = BoundTracer(
            self._base,
            job=self.job if job is None else job,
            tenant=self.tenant if tenant is None else tenant,
        )
        view.study = self.study if study is None else study
        return view

    def flush(self) -> None:
        self._base.flush()

    def close(self) -> None:
        self._base.flush()


class _NullTracer(Tracer):
    """A tracer that records nothing: the telemetry-off tracer."""

    def __init__(self) -> None:
        self.study = None

    def event(self, name: str, **kwargs) -> None:
        pass

    def span(self, name: str, **kwargs):
        return _NO_SPAN

    def metric_snapshot(self, name: str, data: dict, **kwargs) -> None:
        pass

    def bind(self, **kwargs) -> "_NullTracer":
        return self

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


_NO_SPAN = nullcontext()

#: The shared telemetry-off tracer (stateless, so one serves all).
NULL_TRACER: Tracer = _NullTracer()
