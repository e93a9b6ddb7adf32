"""The on-disk evaluated-point cache.

Each point of a sweep is one small JSON file keyed by a stable hash of
``(workload name, ArchConfig, width)`` — the full evaluation inputs, so
a key collision can only mean an identical evaluation.  Writes go
through a temp-file rename, which makes a campaign interruptible at any
point: whatever finished is durable, and the next run resumes from the
surviving entries instead of re-compiling them.

The cache stores *results* (area, cycles, test cost), never compiled
programs — entries are a few hundred bytes and safe to version or rsync
between machines.

Scaling posture (PR 8):

* entries live in **shards** — ``shards/<prefix>/`` keyed by the first
  :data:`SHARD_WIDTH` hex characters of the entry key — so a
  million-entry cache never puts a million files in one directory, and
  concurrent writers from different studies spread their directory
  traffic across 256 subtrees;
* an optional ``max_bytes`` budget turns the cache into an **LRU**:
  hits refresh an entry's mtime and :meth:`ResultCache.compact` evicts
  the least-recently-used entries once the budget is exceeded;
* lifetime :class:`CacheStats` counters can be folded into a durable
  ``stats.json`` (:meth:`ResultCache.persist_stats`) so ``repro cache
  stats`` reports hit rates across processes, not just one run.

Robustness posture (PR 7):

* a corrupt or truncated entry is **quarantined** — moved to
  ``<dir>/quarantine/`` — so re-evaluation replaces it and the torn
  bytes stay available for diagnosis instead of being re-read forever;
* a :meth:`ResultCache.put` that carries a post-pass axis holds a
  per-key ``flock`` around its read-merge-write-replace, so two
  processes attaching different axes to the same entry cannot drop
  each other's writes.  A put with neither axis (every fresh sweep
  point) merges nothing and writes without the lock: the base fields
  of one key are identical by construction, so a racer loses nothing
  to it;
* every write goes through a temp file named per process *and* thread
  (service jobs share one cache across threads) and a rename; a write
  or rename that fails removes its temp file, which no entry walk
  would ever find;
* :meth:`ResultCache.verify` sweeps every shard for the ``repro cache
  verify|repair`` CLI.

The entry codec is shared: :func:`encode_entry`/:func:`decode_entry`
are also what study checkpoints store per completed point, so the two
on-disk formats cannot drift.
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

try:
    import fcntl
except ImportError:          # pragma: no cover - non-POSIX fallback
    fcntl = None

from repro.explore.evaluate import EvaluatedPoint
from repro.explore.space import ArchConfig
from repro.util.digest import content_digest

_SCHEMA = 2

#: Hex characters of the key that name an entry's shard (2 -> 256 shards).
SHARD_WIDTH = 2

#: Top-level file that accumulates persisted :class:`CacheStats`
#: counters; never an entry, excluded from every entry walk.
STATS_FILE = "stats.json"

#: Exceptions that mean "this entry's bytes or shape are corrupt" (as
#: opposed to OSError, which means the file is missing or unreadable).
_CORRUPT_ERRORS = (ValueError, KeyError, TypeError, AttributeError)


@dataclass
class CacheStats:
    """Lifetime counters of one :class:`ResultCache` instance.

    ``hits``/``misses`` count :meth:`ResultCache.get` outcomes
    (unreadable or schema-mismatched entries are misses, exactly as
    they behave).  ``puts`` counts completed writes, ``merge_reads``
    the writes that took the merge-on-write path (a post-pass
    attachment rewriting an existing entry), ``merged_axes`` the
    post-pass axes actually preserved from the old entry — each one a
    write that, unmerged, would have dropped another study's work.
    ``bytes_written`` sums the serialised payloads.  ``quarantined``
    counts corrupt entries moved aside by :meth:`ResultCache.get`,
    and ``evictions`` entries removed by the LRU budget.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    merge_reads: int = 0
    merged_axes: int = 0
    bytes_written: int = 0
    quarantined: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hit fraction over the stats' lifetime (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "merge_reads": self.merge_reads,
            "merged_axes": self.merged_axes,
            "bytes_written": self.bytes_written,
            "quarantined": self.quarantined,
            "evictions": self.evictions,
        }

    def delta(self, since: dict) -> dict:
        """Counter changes since an earlier :meth:`as_dict` snapshot."""
        now = self.as_dict()
        return {k: now[k] - since.get(k, 0) for k in now}


def default_cache_dir() -> Path:
    """``$REPRO_CAMPAIGN_CACHE`` or ``~/.cache/repro-tta/campaign``."""
    env = os.environ.get("REPRO_CAMPAIGN_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-tta" / "campaign"


def cache_key(workload: str, config: ArchConfig, width: int) -> str:
    """Stable content hash of one evaluation's inputs."""
    return content_digest(
        {
            "schema": _SCHEMA,
            "workload": workload,
            "width": width,
            "config": config.to_dict(),
        }
    )


def encode_entry(
    workload: str,
    point: EvaluatedPoint,
    width: int,
    march: str | None = None,
    energy_model: str | None = None,
) -> dict:
    """One evaluated point as the JSON entry shape cache files use.

    Post-pass provenance keys (``march``, ``energy_model``) are stored
    only alongside the axis they qualify, so a restored axis can be
    rejected when it was computed under different settings.
    """
    return {
        "schema": _SCHEMA,
        "workload": workload,
        "width": width,
        "config": point.config.to_dict(),
        "area": point.area,
        "cycles": point.cycles,
        "code_size": point.code_size,
        "test_cost": point.test_cost,
        "march": march if point.test_cost is not None else None,
        "energy": point.energy,
        "energy_model": energy_model if point.energy is not None else None,
    }


def decode_entry(
    data: dict,
    march: str | None = None,
    energy_model: str | None = None,
) -> EvaluatedPoint | None:
    """Invert :func:`encode_entry`.

    Returns ``None`` on a schema mismatch (a stale-but-well-formed
    entry, not an error); raises one of ``_CORRUPT_ERRORS`` when the
    payload's shape is wrong — the caller decides whether that means
    quarantine.  A stored test cost is only restored when it was
    computed for the same ``march`` algorithm, and a stored energy only
    under the same ``energy_model``; the (area, cycles) evaluation
    depends on neither.
    """
    if not isinstance(data, dict):
        raise TypeError("cache entry is not a JSON object")
    if data.get("schema") != _SCHEMA:
        return None
    cycles = data["cycles"]
    code_size = data.get("code_size")
    test_cost = data.get("test_cost")
    if test_cost is not None and data.get("march") != march:
        test_cost = None
    energy = data.get("energy")
    if energy is not None and data.get("energy_model") != energy_model:
        energy = None
    return EvaluatedPoint(
        config=ArchConfig.from_dict(data["config"]),
        area=float(data["area"]),
        cycles=None if cycles is None else int(cycles),
        code_size=None if code_size is None else int(code_size),
        test_cost=None if test_cost is None else int(test_cost),
        energy=None if energy is None else float(energy),
    )


def _replace_atomically(path: str, payload: str) -> None:
    """Write ``payload`` to ``path`` through a temp file and a rename.

    Readers never see a torn file.  The temp name is unique per writer
    (process and thread) and never matches ``*.json``; when the write
    or the rename raises, the temp file is removed before the error
    propagates.
    """
    stem = path[: -len(".json")] if path.endswith(".json") else path
    tmp = f"{stem}.tmp.{os.getpid()}.{threading.get_ident()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(payload.encode())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class ResultCache:
    """Sharded directory of evaluated points, one JSON file per key.

    ``max_bytes`` (optional) bounds the entries' total size on disk:
    hits refresh the entry's mtime, and every put past the budget
    evicts least-recently-used entries back under it.  The budget
    governs entry files only — quarantine and lock plumbing are not
    counted.
    """

    def __init__(
        self,
        directory: str | Path | None = None,
        max_bytes: int | None = None,
    ) -> None:
        self.directory = Path(directory) if directory else default_cache_dir()
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise OSError(
                f"cache directory {self.directory} cannot be created "
                f"({exc}); pass a writable --cache-dir or set "
                "REPRO_CAMPAIGN_CACHE, or disable caching with --no-cache"
            ) from exc
        if not os.access(self.directory, os.W_OK):
            raise OSError(
                f"cache directory {self.directory} is not writable; "
                "pass a writable --cache-dir or set REPRO_CAMPAIGN_CACHE, "
                "or disable caching with --no-cache"
            )
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(
                f"max_bytes must be positive (got {max_bytes}); "
                "omit it for an unbounded cache"
            )
        self.max_bytes = max_bytes
        self._shards = os.path.join(self.directory, "shards")
        #: Always-on lifetime counters (reading them costs nothing on
        #: the hot path; a handful of integer adds per get/put).
        self.stats = CacheStats()
        self._persisted = CacheStats().as_dict()
        # The LRU budget needs a running total; one walk at
        # construction, then deltas per put/eviction keep it current.
        self._disk_bytes = (
            self.bytes_on_disk() if max_bytes is not None else 0
        )

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def _entry_file(self, key: str) -> str:
        """The sharded home of one key (where every write lands)."""
        return os.path.join(self._shards, key[:SHARD_WIDTH], f"{key}.json")

    def _path(self, key: str) -> Path:
        """:meth:`_entry_file` as a :class:`Path` (for fault injection)."""
        return Path(self._entry_file(key))

    def _entry_paths(self) -> Iterator[Path]:
        """Every entry file, shard by shard."""
        shards = self.directory / "shards"
        if shards.is_dir():
            for shard in sorted(shards.iterdir()):
                if shard.is_dir():
                    yield from sorted(shard.glob("*.json"))

    def _quarantine(self, path: Path) -> Path:
        """Move a corrupt entry to ``<dir>/quarantine/``; count it."""
        qdir = self.directory / "quarantine"
        qdir.mkdir(exist_ok=True)
        target = qdir / path.name
        try:
            size = path.stat().st_size
            os.replace(path, target)
        except OSError:
            pass                    # a concurrent reader beat us to it
        else:
            self._disk_bytes -= size
        self.stats.quarantined += 1
        return target

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------
    def get(
        self,
        workload: str,
        config: ArchConfig,
        width: int,
        march: str | None = None,
        energy_model: str | None = None,
    ) -> EvaluatedPoint | None:
        """Return the cached point, or None on a miss.

        A missing or unreadable file is a plain miss.  A *corrupt*
        entry (truncated bytes, wrong shape) is quarantined to
        ``<dir>/quarantine/`` and then counts as a miss — the killed
        writer that tore it degrades to one re-evaluation, never to a
        crash, a wrong result, or a file that stays poisonous forever.
        A well-formed entry from an older schema is a plain miss (stale
        is not corrupt).
        """
        path = self._entry_file(cache_key(workload, config, width))
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            point = decode_entry(json.loads(raw), march, energy_model)
        except _CORRUPT_ERRORS:
            self._quarantine(Path(path))
            self.stats.misses += 1
            return None
        if point is None:
            self.stats.misses += 1
            return None
        if self.max_bytes is not None:
            try:
                os.utime(path)          # the hit is the LRU touch
            except OSError:
                pass
        self.stats.hits += 1
        return point

    def put(
        self,
        workload: str,
        point: EvaluatedPoint,
        width: int,
        march: str | None = None,
        energy_model: str | None = None,
    ) -> None:
        """Persist one evaluated point (atomic: temp file + rename).

        Post-pass axes the caller did *not* compute are merged from the
        existing entry rather than erased: a study that only needs the
        energy axis restores points with ``test_cost=None`` (its march
        key differs) and must not wipe another study's persisted ATPG
        result when it writes its energies back — and vice versa.

        A put that carries a post-pass axis runs its whole
        read-merge-write-replace under a per-key ``flock`` (a sibling
        ``<key>.lock`` file in the key's shard — the entry itself cannot
        carry the lock because ``os.replace`` swaps its inode), so two
        processes attaching different axes to the same entry serialise
        instead of dropping each other's writes.  Keys hash uniformly,
        so concurrent writers contend on a shard's directory inode
        1/256th as often as on a flat layout.

        A put with neither axis — every freshly evaluated sweep point —
        takes no lock and opens no ``.lock`` file.  It reads nothing to
        merge, and every writer of a key writes the same base fields
        (area, cycles, code size are a function of the key), so
        whichever rename lands last, no racer's work is lost that the
        lock would have kept: serialised, the axis-free write could
        land last just the same.
        """
        key = cache_key(workload, point.config, width)
        if fcntl is None or (point.test_cost is None and point.energy is None):
            self._write(key, workload, point, width, march, energy_model)
        else:
            with self._key_lock(key):
                self._write(key, workload, point, width, march, energy_model)
        if self.max_bytes is not None and self._disk_bytes > self.max_bytes:
            self.compact()

    @contextmanager
    def _key_lock(self, key: str):
        """Hold the per-key ``flock``, creating the shard on first use."""
        lock_path = os.path.join(self._shards, key[:SHARD_WIDTH], f"{key}.lock")
        try:
            lock_file = open(lock_path, "w")
        except FileNotFoundError:
            os.makedirs(os.path.dirname(lock_path), exist_ok=True)
            lock_file = open(lock_path, "w")
        with lock_file:
            fcntl.flock(lock_file, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(lock_file, fcntl.LOCK_UN)

    def _write(
        self,
        key: str,
        workload: str,
        point: EvaluatedPoint,
        width: int,
        march: str | None,
        energy_model: str | None,
    ) -> None:
        path = self._entry_file(key)
        data = encode_entry(workload, point, width, march, energy_model)
        # Merge only when the caller computed exactly one post-pass axis
        # (a test-cost or energy attachment rewriting an existing entry);
        # a plain (area, cycles) store is a cache miss — the entry it
        # would merge from was just found absent — so the common fresh-
        # evaluation path pays no extra read.
        if (point.test_cost is None) != (point.energy is None):
            self.stats.merge_reads += 1
            try:
                with open(path, "rb") as handle:
                    old = json.loads(handle.read())
                if old.get("schema") == _SCHEMA:
                    if point.test_cost is None and old.get(
                        "test_cost"
                    ) is not None:
                        data["test_cost"] = old["test_cost"]
                        data["march"] = old.get("march")
                        self.stats.merged_axes += 1
                    if point.energy is None and old.get(
                        "energy"
                    ) is not None:
                        data["energy"] = old["energy"]
                        data["energy_model"] = old.get("energy_model")
                        self.stats.merged_axes += 1
            except (OSError, ValueError, AttributeError):
                pass
        payload = json.dumps(data, sort_keys=True)
        # Only the LRU budget reads the running byte total, so only a
        # budgeted cache pays for the stat of the entry being replaced.
        if self.max_bytes is not None:
            try:
                replaced = os.stat(path).st_size
            except OSError:
                replaced = 0
        try:
            _replace_atomically(path, payload)
        except FileNotFoundError:
            # The key's shard does not exist yet: the first write into
            # it creates it (one failed open instead of a mkdir per put).
            os.makedirs(os.path.dirname(path), exist_ok=True)
            _replace_atomically(path, payload)
        if self.max_bytes is not None:
            self._disk_bytes += len(payload) - replaced
        self.stats.puts += 1
        self.stats.bytes_written += len(payload)

    # ------------------------------------------------------------------
    # budget / compaction
    # ------------------------------------------------------------------
    def compact(self, max_bytes: int | None = None) -> dict:
        """Evict least-recently-used entries until under the budget.

        ``max_bytes`` overrides the instance budget for this call (so
        an unbounded cache can still be compacted explicitly).  Returns
        ``{"evicted", "bytes"}`` — entries removed and entry bytes
        remaining.  Eviction order is mtime (hits refresh it when a
        budget is set, so mtime *is* recency-of-use); each eviction
        also sweeps the entry's lock file.
        """
        budget = self.max_bytes if max_bytes is None else max_bytes
        entries = []
        total = 0
        for path in self._entry_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        self._disk_bytes = total
        evicted = 0
        if budget is not None:
            entries.sort()
            for _, size, path in entries:
                if self._disk_bytes <= budget:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                path.with_suffix(".lock").unlink(missing_ok=True)
                self._disk_bytes -= size
                evicted += 1
        self.stats.evictions += evicted
        return {"evicted": evicted, "bytes": self._disk_bytes}

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def verify(self, repair: bool = False) -> dict:
        """Sweep every entry; optionally quarantine the corrupt ones.

        Returns ``{"checked", "ok", "stale", "corrupt": [names],
        "quarantined"}``.  ``repair=True`` moves each corrupt entry to
        ``<dir>/quarantine/`` (what :meth:`get` would do lazily on its
        next lookup); ``stale`` counts well-formed entries from another
        schema, which are left in place.
        """
        report: dict = {
            "checked": 0,
            "ok": 0,
            "stale": 0,
            "corrupt": [],
            "quarantined": 0,
        }
        for path in self._entry_paths():
            report["checked"] += 1
            try:
                point = decode_entry(json.loads(path.read_text()))
            except (OSError, *_CORRUPT_ERRORS):
                report["corrupt"].append(path.name)
                if repair:
                    self._quarantine(path)
                    report["quarantined"] += 1
                continue
            if point is None:
                report["stale"] += 1
            else:
                report["ok"] += 1
        return report

    def shard_stats(self) -> dict[str, dict]:
        """Per-shard entry counts and bytes.

        Walks the directory; shards with no entries are omitted.
        """
        report: dict[str, dict] = {}
        for path in self._entry_paths():
            entry = report.setdefault(
                path.parent.name, {"entries": 0, "bytes": 0}
            )
            entry["entries"] += 1
            try:
                entry["bytes"] += path.stat().st_size
            except OSError:
                pass
        return report

    def quarantined_entries(self) -> int:
        """Entries currently sitting in ``<dir>/quarantine/``."""
        qdir = self.directory / "quarantine"
        if not qdir.is_dir():
            return 0
        return sum(1 for _ in qdir.glob("*.json"))

    def bytes_on_disk(self) -> int:
        """Total size of every entry file, in bytes (walks the dir)."""
        total = 0
        for path in self._entry_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return total

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    # ------------------------------------------------------------------
    # durable counters
    # ------------------------------------------------------------------
    def persist_stats(self) -> dict:
        """Fold this instance's counter deltas into ``<dir>/stats.json``.

        Accumulates across processes: the file's counters grow by the
        change since the last persist, under a ``flock`` so concurrent
        writers (several CLI runs, a service's periodic flush) merge
        instead of clobbering.  Returns the merged totals.  Idempotent
        — persisting twice with no new activity writes nothing.
        """
        delta = self.stats.delta(self._persisted)
        stats_path = self.directory / STATS_FILE
        if not any(delta.values()):
            return self.persisted_stats()
        lock_path = self.directory / "stats.lock"
        lock_file = open(lock_path, "w") if fcntl is not None else None
        try:
            if lock_file is not None:
                fcntl.flock(lock_file, fcntl.LOCK_EX)
            merged = self.persisted_stats()
            for key, value in delta.items():
                merged[key] = merged.get(key, 0) + value
            _replace_atomically(
                str(stats_path), json.dumps(merged, sort_keys=True)
            )
        finally:
            if lock_file is not None:
                fcntl.flock(lock_file, fcntl.LOCK_UN)
                lock_file.close()
        self._persisted = self.stats.as_dict()
        return merged

    def persisted_stats(self) -> dict:
        """The accumulated ``stats.json`` counters ({} when absent)."""
        try:
            data = json.loads((self.directory / STATS_FILE).read_text())
        except (OSError, ValueError):
            return {}
        return data if isinstance(data, dict) else {}

    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Lock files are swept too but not counted — they are plumbing,
        not entries.
        """
        removed = 0
        for path in list(self._entry_paths()):
            path.unlink()
            removed += 1
        for path in self.directory.glob("shards/*/*.lock"):
            path.unlink(missing_ok=True)
        self._disk_bytes = 0
        return removed
