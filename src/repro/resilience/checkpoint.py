"""Checkpoint/resume/cancel for the study engine.

A checkpoint is one small JSON file that makes a killed study cheap to
finish: the spec (and its hash, so a resume cannot silently run a
different study), every evaluated point so far (the same entry shape
the on-disk result cache uses) and every recorded failure.  Nothing
about the search itself is saved: a resume reruns the strategy with the
recorded points served from the file, and since every strategy is
deterministic the rerun walks the same path up to the cut without
re-evaluating anything that finished.  A per-run ``"strategy"`` entry,
which older files carry, is ignored.

The :class:`CheckpointManager` always exists inside a running
:class:`~repro.study.engine.Study` as its checkpoint writer; it only
touches disk when given a path, writing atomically (temp file +
rename) every ``every`` recorded points and at run boundaries.

:class:`CancelToken` is the cooperative cancellation handle: the
evaluator and the pool supervisor check it, and either ends the
evaluation stream with :class:`StudyInterrupted` once every finished
point is recorded; the study converts that into a partial-but-valid
result flagged ``interrupted=True``.  Tokens can self-trip after N
fresh evaluations (``after_points``) — the
deterministic mid-wave kill the resilience tests and CI smoke job use.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path

from repro.util.digest import content_digest

CHECKPOINT_SCHEMA = 1

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CancelToken",
    "CheckpointManager",
    "StudyInterrupted",
    "spec_digest",
]


class StudyInterrupted(Exception):
    """Ends the evaluation stream when a cancel token trips.

    ``Study.run()`` catches it (and ``KeyboardInterrupt``) and returns
    the partial result; it only escapes to callers driving the
    evaluator directly.
    """


class CancelToken:
    """Cooperative cancellation: flip once, observed everywhere.

    ``after_points`` arms a deterministic self-trip: the token cancels
    itself once :meth:`tick` has been called that many times (the
    evaluator ticks per fresh evaluation), which interrupts a study at
    an exact, reproducible point mid-wave.
    """

    def __init__(self, after_points: int | None = None) -> None:
        if after_points is not None and after_points < 1:
            raise ValueError("after_points must be >= 1")
        self._event = threading.Event()
        self.after_points = after_points
        self.ticks = 0

    @property
    def cancelled(self) -> bool:
        return self._event.is_set()

    def cancel(self) -> None:
        self._event.set()

    def tick(self, n: int = 1) -> None:
        """Count ``n`` fresh evaluations toward ``after_points``."""
        self.ticks += n
        if self.after_points is not None and self.ticks >= self.after_points:
            self._event.set()

    def raise_if_cancelled(self) -> None:
        if self._event.is_set():
            raise StudyInterrupted()


def spec_digest(spec_dict: dict) -> str:
    """Stable content hash of a spec's dict form.

    The same digest a :class:`~repro.study.spec.StudySpec` reports as
    its ``spec_id`` — clients, checkpoints and the service layer's
    dedupe index all key jobs identically.
    """
    return content_digest(spec_dict)


class CheckpointManager:
    """Accumulate a study's durable state; write it atomically.

    Per run label the manager keeps the evaluated points (cache-entry
    dicts keyed by config label), the failures and a done flag.
    ``path=None`` keeps everything in memory and writes nothing; only
    resume-after-kill needs the file.
    """

    def __init__(
        self,
        spec_dict: dict,
        path: str | Path | None = None,
        every: int = 16,
    ) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        self.spec_dict = spec_dict
        self.path = Path(path) if path is not None else None
        self.every = every
        self.runs: dict[str, dict] = {}
        self.interrupted = False
        self._dirty = 0

    # ------------------------------------------------------------------
    def _run(self, label: str) -> dict:
        entry = self.runs.get(label)
        if entry is None:
            entry = self.runs[label] = {
                "points": {},
                "failures": {},
                "done": False,
            }
        return entry

    def record_point(self, label: str, config_label: str, entry: dict) -> None:
        self._run(label)["points"][config_label] = entry
        self._dirty += 1
        if self._dirty >= self.every:
            self.write()

    def record_failure(self, label: str, failure) -> None:
        self._run(label)["failures"][failure.label] = failure.to_dict()
        self._dirty += 1
        if self._dirty >= self.every:
            self.write()

    def points(self, label: str) -> dict[str, dict]:
        entry = self.runs.get(label)
        return entry["points"] if entry else {}

    def mark_done(self, label: str) -> None:
        self._run(label)["done"] = True
        self.write(force=True)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": CHECKPOINT_SCHEMA,
            "spec": self.spec_dict,
            "spec_hash": spec_digest(self.spec_dict),
            "interrupted": self.interrupted,
            "runs": self.runs,
        }

    def write(self, force: bool = False) -> None:
        """Persist the current state (atomic rename); no-op in-memory.

        ``force`` writes even when nothing changed since the last
        write — run boundaries and interrupt handling use it.
        """
        if self.path is None:
            return
        if self._dirty == 0 and not force:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(self.to_dict(), sort_keys=True))
        os.replace(tmp, self.path)
        self._dirty = 0

    @classmethod
    def load(cls, path: str | Path, every: int = 16) -> CheckpointManager:
        """Rehydrate a manager from a checkpoint file.

        Raises ``ValueError`` on schema mismatch or when the stored
        spec no longer matches its recorded hash (a corrupt or
        hand-edited file must not silently resume the wrong study).
        """
        path = Path(path)
        data = json.loads(path.read_text())
        if data.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"checkpoint {path} has schema {data.get('schema')!r}; "
                f"this reader handles {CHECKPOINT_SCHEMA}"
            )
        if spec_digest(data["spec"]) != data.get("spec_hash"):
            raise ValueError(
                f"checkpoint {path} is corrupt: stored spec does not "
                "match its recorded hash"
            )
        manager = cls(data["spec"], path=path, every=every)
        manager.runs = data.get("runs", {})
        manager.interrupted = bool(data.get("interrupted", False))
        return manager
