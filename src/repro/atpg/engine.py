"""ATPG driver: random phase + PODEM + compaction, with a disk cache.

:func:`run_atpg` is the paper's "back-annotation with an ATPG tool": it
turns a gate-level netlist into a pattern count ``n_p`` and a fault
coverage figure.  Results are cached on disk keyed by a structural hash,
because the exploration flow queries the same component library over and
over (exactly why the paper pre-characterises its components).  The key
also carries a digest of the ATPG and netlist sources, so a change to the
algorithm never serves a pattern count the old code produced.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import threading
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path

from repro.atpg.faults import Fault, collapse_faults, fault_cone
from repro.atpg.faultsim import WORD, FaultSimulator
from repro.atpg.podem import Podem, PodemOutcome
from repro.netlist.netlist import Netlist


@dataclass
class ATPGResult:
    """Outcome of one ATPG run on one netlist."""

    netlist_name: str
    patterns: list[int]          # each packed by PI order
    num_faults: int              # collapsed fault classes
    detected: int
    redundant: int               # proven untestable
    aborted: int                 # backtrack limit hit
    undetected_faults: list[str] = field(default_factory=list)

    @property
    def num_patterns(self) -> int:
        """``n_p`` in the paper's cost formulas."""
        return len(self.patterns)

    @property
    def fault_coverage(self) -> float:
        """Detected / testable faults (redundant excluded), in percent."""
        testable = self.num_faults - self.redundant
        if testable <= 0:
            return 100.0
        return 100.0 * self.detected / testable

    @property
    def raw_coverage(self) -> float:
        """Detected / all collapsed faults, in percent."""
        if self.num_faults == 0:
            return 100.0
        return 100.0 * self.detected / self.num_faults

    def to_json(self) -> dict:
        return {
            "netlist_name": self.netlist_name,
            "patterns": self.patterns,
            "num_faults": self.num_faults,
            "detected": self.detected,
            "redundant": self.redundant,
            "aborted": self.aborted,
            "undetected_faults": self.undetected_faults,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ATPGResult":
        return cls(**data)


# ----------------------------------------------------------------------
# disk cache
# ----------------------------------------------------------------------
def _cache_dir() -> Path:
    env = os.environ.get("REPRO_ATPG_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-tta" / "atpg"


#: The sources (under ``repro/``) that decide a pattern list: PODEM,
#: fault collapsing, fault simulation, compaction and gate semantics.
_ALGORITHM_SOURCES = (
    "atpg/engine.py", "atpg/faults.py", "atpg/faultsim.py", "atpg/podem.py",
    "netlist/cells.py", "netlist/netlist.py",
)


@cache
def algorithm_digest() -> str:
    """Hash of :data:`_ALGORITHM_SOURCES`, part of every cache key."""
    package = Path(__file__).resolve().parent.parent
    h = hashlib.sha256()
    for name in _ALGORITHM_SOURCES:
        h.update(name.encode() + (package / name).read_bytes())
    return h.hexdigest()[:16]


def netlist_signature(netlist: Netlist) -> str:
    """Structural hash covering gates, connectivity and port order."""
    h = hashlib.sha256()
    h.update(netlist.name.encode())
    h.update(repr(netlist.inputs).encode())
    h.update(repr(netlist.outputs).encode())
    for gate in netlist.gates:
        h.update(f"{gate.gid}:{gate.cell_type.value}:{gate.inputs}:{gate.output};".encode())
    return h.hexdigest()


def clear_atpg_cache() -> int:
    """Delete all cached ATPG results; returns the number removed."""
    directory = _cache_dir()
    if not directory.exists():
        return 0
    count = 0
    for path in directory.glob("*.json"):
        path.unlink()
        count += 1
    return count


# ----------------------------------------------------------------------
# main driver
# ----------------------------------------------------------------------
def run_atpg(
    netlist: Netlist,
    seed: int = 0,
    random_words: int = 8,
    backtrack_limit: int = 64,
    compact: bool = True,
    use_cache: bool = True,
) -> ATPGResult:
    """Generate a compacted stuck-at test set for ``netlist``.

    ``random_words`` words of 64 random patterns are fault-simulated with
    dropping first; PODEM then targets the survivors.  With ``compact``
    the pattern list is reduced by reverse-order fault simulation.
    """
    cache_key = None
    if use_cache:
        params = f"{seed}:{random_words}:{backtrack_limit}:{compact}:{algorithm_digest()}"
        cache_key = f"{netlist_signature(netlist)}-{hashlib.sha256(params.encode()).hexdigest()[:12]}"
        cached = _cache_load(cache_key)
        if cached is not None:
            return cached

    faults, _class_map = collapse_faults(netlist)
    sim = FaultSimulator(netlist)
    rng = random.Random(seed)
    num_pis = len(netlist.inputs)

    active: list[Fault] = list(faults)
    kept_patterns: list[int] = []
    detected = 0

    # Phase 1: random patterns, keeping only first-detecting ones.
    # Every third/fourth word is weight-biased (25% / 75% ones): carry
    # chains, shifter fill paths and wide control gates are notoriously
    # resistant to uniform random patterns.
    for _w in range(random_words):
        if not active:
            break
        if _w % 4 == 2:
            word = [
                rng.getrandbits(num_pis) & rng.getrandbits(num_pis)
                for _ in range(WORD)
            ]
        elif _w % 4 == 3:
            word = [
                rng.getrandbits(num_pis) | rng.getrandbits(num_pis)
                for _ in range(WORD)
            ]
        else:
            word = [rng.getrandbits(num_pis) for _ in range(WORD)]
        results = sim.simulate_word(word, active)
        useful: set[int] = set()
        survivors: list[Fault] = []
        for fault in active:
            det_mask = results[fault]
            if det_mask:
                detected += 1
                useful.add((det_mask & -det_mask).bit_length() - 1)
            else:
                survivors.append(fault)
        kept_patterns.extend(word[k] for k in sorted(useful))
        active = survivors

    # Phase 2a: structural pruning — a fault with no path to any primary
    # output is untestable by construction (dead logic); proving this via
    # PODEM search would burn the whole backtrack budget instead.
    podem = Podem(netlist, backtrack_limit=backtrack_limit)
    redundant = 0
    aborted = 0
    undetected_names: list[str] = []
    po_set = set(netlist.outputs)
    reachable: list[Fault] = []
    for fault in active:
        sites = [netlist.gates[g].output for g in fault_cone(netlist, fault)]
        if not fault.is_branch:
            sites.append(fault.net)
        if po_set.isdisjoint(sites):
            redundant += 1
        else:
            reachable.append(fault)
    active = reachable

    # Phase 2b: PODEM on the random-resistant faults.
    remaining = list(active)
    while remaining:
        fault = remaining.pop(0)
        result = podem.generate(fault)
        if result.outcome is PodemOutcome.DETECTED:
            assert result.pattern is not None
            # Fill unassigned PIs randomly to catch collateral faults.
            pattern = result.pattern | (rng.getrandbits(num_pis) & ~result.pattern)
            verify = sim.simulate_word([pattern], [fault])[fault]
            if not verify:
                pattern = result.pattern   # random fill masked it; use pure
            kept_patterns.append(pattern)
            detected += 1
            if remaining:
                drop = sim.simulate_word([pattern], remaining)
                still = [f for f in remaining if not drop[f]]
                detected += len(remaining) - len(still)
                remaining = still
        elif result.outcome is PodemOutcome.UNTESTABLE:
            redundant += 1
        else:
            aborted += 1
            undetected_names.append(fault.describe(netlist))

    # Phase 3: reverse-order compaction.
    if compact and kept_patterns:
        kept_patterns = _compact(sim, faults, kept_patterns)

    result = ATPGResult(
        netlist_name=netlist.name,
        patterns=kept_patterns,
        num_faults=len(faults),
        detected=detected,
        redundant=redundant,
        aborted=aborted,
        undetected_faults=undetected_names,
    )
    if use_cache and cache_key is not None:
        _cache_store(cache_key, result)
    return result


def _compact(
    sim: FaultSimulator, faults: list[Fault], patterns: list[int]
) -> list[int]:
    """Reverse-order fault simulation: keep patterns that add coverage.

    Word-parallel: the reversed list is simulated :data:`WORD` patterns
    per call, and pattern *k* of a word is kept iff it is the lowest set
    bit of some still-undetected fault's mask, i.e. the first pattern in
    reverse order to detect that fault.  That is the same set, in the
    same order, as simulating one pattern at a time.
    """
    remaining = list(faults)
    kept: list[int] = []
    backwards = patterns[::-1]
    for start in range(0, len(backwards), WORD):
        if not remaining:
            break
        word = backwards[start : start + WORD]
        results = sim.simulate_word(word, remaining)
        first: set[int] = set()
        survivors: list[Fault] = []
        for fault in remaining:
            mask = results[fault]
            if mask:
                first.add((mask & -mask).bit_length() - 1)
            else:
                survivors.append(fault)
        kept.extend(word[k] for k in sorted(first))
        remaining = survivors
    kept.reverse()
    return kept


def _cache_load(key: str) -> ATPGResult | None:
    path = _cache_dir() / f"{key}.json"
    if not path.exists():
        return None
    try:
        with path.open() as fh:
            return ATPGResult.from_json(json.load(fh))
    except (ValueError, TypeError, KeyError):
        # ValueError covers JSONDecodeError and undecodable bytes alike.
        return None


def _cache_store(key: str, result: ATPGResult) -> None:
    """Write ``<key>.json`` atomically: temp file, then rename.

    Readers never see a torn entry.  The temp name is unique per writer
    (process and thread: studies run in threads of one service process)
    and does not match ``*.json``, so entry walks skip it.
    """
    directory = _cache_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{key}.json"
    tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
    try:
        with tmp.open("w") as fh:
            json.dump(result.to_json(), fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
