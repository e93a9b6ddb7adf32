"""Campaigns: studies sharing one on-disk result cache.

Registries, config serialization, the cache itself, and the campaign
behaviours built on it: resume (full, partial, after a crash), serial
== parallel, cached post-pass axes and selection.
"""

import json

import pytest

from repro.apps import build_workload, workload_entry, workload_names
from repro.campaign import ResultCache, cache_key
from repro.explore import ArchConfig, RFConfig, space_by_name, space_names
from repro.study import StudySpec, run_study


# ----------------------------------------------------------------------
# registries
# ----------------------------------------------------------------------
def test_workload_registry_builds_ir():
    assert {"crypt", "gcd", "fir", "dotprod", "checksum", "crc16"} <= set(
        workload_names()
    )
    ir = build_workload("gcd")
    assert ir.name == "gcd"
    with pytest.raises(KeyError, match="unknown workload"):
        build_workload("nope")


def test_space_registry():
    assert {"crypt", "small", "dsp"} <= set(space_names())
    assert len(space_by_name("small")) == 12
    assert all(c.num_muls == 1 for c in space_by_name("dsp"))
    with pytest.raises(KeyError, match="unknown space"):
        space_by_name("nope")


# ----------------------------------------------------------------------
# config serialization (satellite)
# ----------------------------------------------------------------------
def test_archconfig_dict_round_trip():
    config = ArchConfig(
        num_buses=3,
        num_alus=2,
        num_shifters=1,
        num_muls=1,
        rfs=(RFConfig(8), RFConfig(12, read_ports=2, write_ports=2)),
    )
    data = json.loads(json.dumps(config.to_dict()))
    assert ArchConfig.from_dict(data) == config


def test_archconfig_from_dict_defaults():
    assert ArchConfig.from_dict({"num_buses": 2}) == ArchConfig(num_buses=2)


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def test_cache_key_stable_and_distinct():
    a = ArchConfig(num_buses=2)
    assert cache_key("gcd", a, 16) == cache_key("gcd", ArchConfig(2), 16)
    assert cache_key("gcd", a, 16) != cache_key("gcd", a, 32)
    assert cache_key("gcd", a, 16) != cache_key("fir", a, 16)
    assert cache_key("gcd", a, 16) != cache_key(
        "gcd", ArchConfig(num_buses=2, rfs=(RFConfig(8, read_ports=2),)), 16
    )


def test_canonical_json_is_json_dumps():
    """``canonical_json`` writes what ``json.dumps`` with the canonical
    options writes, byte for byte, so cache file names and spec ids
    do not depend on how the text is produced."""
    import hashlib

    from repro.campaign.cache import _SCHEMA
    from repro.util.digest import canonical_json

    config = space_by_name("crypt")[5]
    key_payload = {
        "schema": _SCHEMA, "workload": "crypt", "width": 16,
        "config": config.to_dict(),
    }
    payloads = [
        key_payload,
        _spec(workloads=("crypt", "gcd"), space="crypt").to_dict(),
        {"b": [0.1, -0.0, 1e-300, 2.5e16, float("inf"), 3], "a": None},
        {"Zürich": "naïve ✓ 日本", "ascii": True, "empty": [{}, []]},
        "plain text", 7, None,
    ]
    for payload in payloads:
        assert canonical_json(payload) == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
    digest = hashlib.sha256(
        json.dumps(key_payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    assert cache_key("crypt", config, 16) == digest


def test_cache_miss_then_hit(tmp_path):
    from repro.explore import EvaluatedPoint

    cache = ResultCache(tmp_path)
    config = ArchConfig(num_buses=2)
    assert cache.get("gcd", config, 16) is None
    cache.put("gcd", EvaluatedPoint(config=config, area=10.5, cycles=42), 16)
    hit = cache.get("gcd", config, 16)
    assert hit is not None
    assert (hit.config, hit.area, hit.cycles) == (config, 10.5, 42)
    assert len(cache) == 1
    assert cache.clear() == 1
    assert cache.get("gcd", config, 16) is None


def test_cache_infeasible_and_corrupt(tmp_path):
    from repro.explore import EvaluatedPoint

    cache = ResultCache(tmp_path)
    config = ArchConfig(num_buses=1)
    cache.put("gcd", EvaluatedPoint(config=config, area=5.0, cycles=None), 16)
    hit = cache.get("gcd", config, 16)
    assert hit is not None and not hit.feasible
    # corrupt entry degrades to a miss
    for path in cache.directory.glob("shards/*/*.json"):
        path.write_text("{ not json")
    assert cache.get("gcd", config, 16) is None


def test_cache_test_cost_tied_to_march(tmp_path):
    from repro.explore import EvaluatedPoint

    cache = ResultCache(tmp_path)
    config = ArchConfig(num_buses=2)
    point = EvaluatedPoint(config=config, area=1.0, cycles=10, test_cost=99)
    cache.put("gcd", point, 16, march="March C-")
    same = cache.get("gcd", config, 16, march="March C-")
    other = cache.get("gcd", config, 16, march="MATS+")
    assert same.test_cost == 99
    assert other is not None and other.test_cost is None
    assert other.cycles == 10


# ----------------------------------------------------------------------
# campaigns: studies sharing one result cache
# ----------------------------------------------------------------------
def _spec(**kw):
    defaults = dict(name="t", workloads=("gcd",), space="small")
    defaults.update(kw)
    return StudySpec(**defaults)


def _rows(result):
    return [
        (p.label, p.area, p.cycles, p.test_cost)
        for run in result.runs
        for p in run.result.points
    ]


def test_campaign_matches_one_shot_study(tmp_path):
    """One study per (space, width) on a shared cache equals each
    cell's uncached one-shot study: the width keeps the cells apart."""
    cache = ResultCache(tmp_path)
    for width in (16, 8, 16):
        campaign = run_study(_spec(width=width), cache=cache)
        one_shot = run_study(_spec(width=width))
        assert _rows(campaign) == _rows(one_shot)
        assert [p.label for p in campaign.pareto] == [
            p.label for p in one_shot.pareto
        ]
    assert len(cache) == 24


def test_campaign_cache_resume(tmp_path):
    cells = [_spec(), _spec(workloads=("dotprod",), space="dsp")]
    cache = ResultCache(tmp_path)
    first = [run_study(spec, cache=cache) for spec in cells]
    assert [r.evaluated for r in first] == [12, 12]
    assert [r.cache_hits for r in first] == [0, 0]
    second = [run_study(spec, cache=ResultCache(tmp_path)) for spec in cells]
    assert [r.evaluated for r in second] == [0, 0]
    assert [r.cache_hits for r in second] == [12, 12]
    for a, b in zip(first, second):
        assert [p.label for p in a.pareto] == [p.label for p in b.pareto]


def test_campaign_partial_cache_resumes(tmp_path):
    cache = ResultCache(tmp_path)
    run_study(_spec(), cache=cache)
    # drop a third of the entries: an interrupted campaign
    for path in sorted(cache.directory.glob("shards/*/*.json"))[:4]:
        path.unlink()
    resumed = run_study(_spec(), cache=cache)
    assert resumed.cache_hits == 8 and resumed.evaluated == 4
    assert len(resumed.points) == 12


def test_campaign_persists_incrementally(tmp_path):
    """A campaign killed mid-sweep must keep every finished point."""

    class DyingCache(ResultCache):
        def __init__(self, directory, die_after):
            super().__init__(directory)
            self.die_after = die_after

        def put(self, workload, point, width, march=None,
                energy_model=None):
            if self.die_after == 0:
                raise RuntimeError("simulated crash")
            self.die_after -= 1
            super().put(workload, point, width, march,
                        energy_model=energy_model)

    dying = DyingCache(tmp_path, die_after=5)
    with pytest.raises(RuntimeError, match="simulated crash"):
        run_study(_spec(), cache=dying)
    assert len(dying) == 5                  # finished points survived
    resumed = run_study(_spec(), cache=ResultCache(tmp_path))
    assert resumed.cache_hits == 5 and resumed.evaluated == 7


def test_campaign_parallel_equals_serial():
    serial = run_study(_spec(), workers=1)
    parallel = run_study(_spec(), workers=2)
    assert _rows(serial) == _rows(parallel)
    assert [q.label for q in serial.pareto] == [
        q.label for q in parallel.pareto
    ]
    assert parallel.single.stats.workers == 2


def test_campaign_test_costs_and_selection(tmp_path):
    spec = _spec(objectives=("area", "cycles", "test_cost"), select=True)
    first = run_study(spec, cache=ResultCache(tmp_path))
    run = first.single
    assert run.pareto
    assert all(p.test_cost is not None for p in run.pareto)
    assert run.selection is not None
    assert run.selection.point in run.pareto
    # cached test costs survive the round trip
    again = run_study(spec, cache=ResultCache(tmp_path))
    assert again.evaluated == 0
    assert again.single.stats.post_pass_hits > 0
    assert again.selection.point.label == run.selection.point.label


def test_campaign_selection_without_test_costs():
    assert run_study(_spec(select=True)).selection is not None


def test_campaign_infeasible_workload_handled():
    # fir needs a MUL; the small space has none -> nothing feasible
    result = run_study(_spec(workloads=("fir",), select=True))
    run = result.single
    assert not run.result.feasible_points
    assert run.pareto == []
    assert run.selection is None
    assert "fir/small/w16" in result.summary()
    assert "(no candidate points)" in result.summary()


def test_campaign_dsp_space_carries_mul():
    result = run_study(_spec(workloads=("dotprod",), space="dsp"))
    assert result.single.result.feasible_points


def test_campaign_progress_and_lookup():
    lines = []
    result = run_study(
        _spec(workloads=("gcd", "checksum")), progress=lines.append
    )
    assert any("gcd/small/w16" in line for line in lines)
    assert any("checksum/small/w16" in line for line in lines)
    assert result.run("checksum/small/w16") is result.runs[1]
    with pytest.raises(KeyError):
        result.run("nope")
    with pytest.raises(ValueError, match="workers"):
        run_study(_spec(), workers=0)
