"""Telemetry: tracing, phase metrics, and their result-neutrality.

The contract under test is the tentpole's hard requirement: telemetry
is strictly opt-in and *result-equivalent* — a study run with a tracer
and metrics attached produces exactly the fronts and cache contents of
an untraced run — plus the bookkeeping invariants (phase seconds sum
to at most the elapsed wall clock, merged pool counters are
deterministic, ``proposed == cache_hits + evaluated``).
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.campaign import ResultCache
from repro.study import StudySpec, run_study
from repro.telemetry import (
    DEFAULT_BOUNDS,
    Histogram,
    LiveRegistry,
    MetricsCollector,
    MetricsExporter,
    Tracer,
    aggregate_series,
    load_trace,
    merge_snapshots,
    read_trace,
    render_prometheus,
    summarize_trace,
    validate_record,
)
from repro.telemetry.metrics import format_phases
from repro.telemetry.summarize import format_trace_summary


def _point_rows(result):
    return [
        (p.label, p.area, p.cycles, p.test_cost, p.energy, p.feasible)
        for run in result.runs
        for p in run.result.points
    ]


def _cache_bytes(directory: Path) -> dict[str, str]:
    return {
        path.name: path.read_text()
        for path in sorted(Path(directory).glob("shards/*/*.json"))
    }


# ----------------------------------------------------------------------
# schema + tracer round-trip
# ----------------------------------------------------------------------
class TestSchema:
    def test_tracer_output_round_trips_through_validation(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with Tracer(path, study="s") as tracer:
            tracer.event("wave", run="r", wave=0, requested=3)
            with tracer.span("study", strategy="exhaustive"):
                tracer.event(
                    "point", run="r", wave=0, config="b2", source="fresh",
                )
        records = read_trace(path.read_text().splitlines())
        assert [r["kind"] for r in records] == [
            "meta", "event", "event", "span",
        ]
        assert records[0]["name"] == "trace"
        assert records[0]["data"]["schema"] == 2
        # spans carry a duration, and ts are monotone non-negative
        span = records[-1]
        assert span["dur"] >= 0
        assert all(r["ts"] >= 0 for r in records)
        assert all(r["study"] == "s" for r in records[1:])

    def test_validate_record_rejects_malformed(self):
        good = {"v": 1, "kind": "event", "ts": 0.5, "name": "wave"}
        assert validate_record(dict(good)) == good
        bad = [
            {**good, "extra": 1},                      # unknown field
            {**good, "v": 3},                          # unknown version
            {**good, "kind": "other"},                 # unknown kind
            {**good, "ts": -1.0},                      # negative ts
            {**good, "ts": True},                      # bool-as-number
            {**good, "dur": 0.1},                      # dur on non-span
            {**good, "job": "j1"},                     # v2 field on v1
            {"v": 1, "kind": "metric_snapshot", "ts": 0.0,
             "name": "registry", "data": {}},          # v2 kind on v1
            {"v": 2, "kind": "metric_snapshot", "ts": 0.0,
             "name": "registry"},                      # snapshot sans data
            {"v": 1, "kind": "span", "ts": 0.0, "name": "s"},  # no dur
            {"v": 1, "kind": "meta", "ts": 0.0},       # missing name
            [good],                                    # not an object
        ]
        for record in bad:
            with pytest.raises(ValueError):
                validate_record(record)

    def test_read_trace_requires_meta_header(self):
        line = json.dumps({"v": 1, "kind": "event", "ts": 0.0, "name": "x"})
        with pytest.raises(ValueError, match="meta"):
            read_trace([line])
        with pytest.raises(ValueError, match="empty"):
            read_trace([])
        with pytest.raises(ValueError, match="line 2"):
            meta = json.dumps(
                {"v": 1, "kind": "meta", "ts": 0.0, "name": "trace"}
            )
            read_trace([meta, "{not json"])

    def test_tracer_accepts_file_like_sink(self):
        sink = io.StringIO()
        tracer = Tracer(sink)
        tracer.event("wave", run="r")
        tracer.close()
        records = read_trace(sink.getvalue().splitlines())
        assert len(records) == 2
        assert records[1]["run"] == "r"


# ----------------------------------------------------------------------
# metrics collector
# ----------------------------------------------------------------------
class TestMetrics:
    def test_phase_and_counter_accumulation(self):
        m = MetricsCollector()
        for _ in range(3):
            with m.phase("schedule"):
                pass
        m.count("proposed", 5)
        m.count("proposed")
        snap = m.snapshot()
        assert snap["phases"]["schedule"]["calls"] == 3
        assert snap["phases"]["schedule"]["seconds"] >= 0
        assert snap["counters"] == {"proposed": 6}

    def test_phase_records_time_on_exception(self):
        m = MetricsCollector()
        with pytest.raises(RuntimeError):
            with m.phase("build"):
                raise RuntimeError("boom")
        assert m.snapshot()["phases"]["build"]["calls"] == 1

    def test_merge_is_additive_and_order_independent(self):
        a = MetricsCollector()
        with a.phase("build"):
            pass
        a.count("evaluated", 2)
        b = MetricsCollector()
        with b.phase("build"):
            pass
        with b.phase("simulate"):
            pass
        b.count("evaluated", 3)
        ab = merge_snapshots([a.snapshot(), b.snapshot()])
        ba = merge_snapshots([b.snapshot(), a.snapshot()])
        assert ab["counters"] == ba["counters"] == {"evaluated": 5}
        assert ab["phases"]["build"]["calls"] == 2
        assert ab["phases"].keys() == ba["phases"].keys()

    def test_format_phases_lists_known_phases_first(self):
        m = MetricsCollector()
        with m.phase("zebra"):
            pass
        with m.phase("build"):
            pass
        text = format_phases(m.snapshot())
        assert text.index("build") < text.index("zebra")
        assert format_phases({"phases": {}}) == "(no phase timings)"


# ----------------------------------------------------------------------
# result equivalence: telemetry on == telemetry off
# ----------------------------------------------------------------------
SPACES = (
    ("gcd", "small"),
    ("fir", "dsp"),
)


class TestResultEquivalence:
    @pytest.mark.parametrize("workload,space", SPACES)
    def test_study_results_and_cache_identical(
        self, tmp_path, workload, space
    ):
        """Same fronts, same bytes in the result cache, on vs off."""
        def spec(name):
            return StudySpec(
                name=name, workloads=(workload,), space=space,
                objectives=("area", "cycles", "test_cost"), select=True,
            )

        plain = run_study(spec("off"), cache=ResultCache(tmp_path / "a"))
        traced = run_study(
            spec("on"),
            cache=ResultCache(tmp_path / "b"),
            tracer=Tracer(tmp_path / "t.jsonl"),
            collect_metrics=True,
        )
        assert _point_rows(plain) == _point_rows(traced)
        assert [p.label for p in plain.single.pareto] == [
            p.label for p in traced.single.pareto
        ]
        if plain.single.selection is not None:
            assert (
                plain.single.selection.point.label
                == traced.single.selection.point.label
            )
        assert _cache_bytes(tmp_path / "a") == _cache_bytes(tmp_path / "b")

    def test_annealing_rng_stream_unchanged_by_move_counters(self):
        """Move accounting must not perturb the annealing walk."""
        def spec(name):
            return StudySpec(
                name=name, workloads=("gcd",), space="small",
                strategy="simulated_annealing",
                strategy_params={"max_evaluations": 10, "seed": 3},
            )

        plain = run_study(spec("off"))
        metered = run_study(spec("on"), collect_metrics=True)
        assert _point_rows(plain) == _point_rows(metered)
        counters = metered.single.stats.counters
        assert counters["moves_proposed"] == (
            counters["moves_accepted"] + counters["moves_rejected"]
        )

    def test_stats_empty_without_telemetry(self):
        result = run_study(
            StudySpec(name="plain", workloads=("gcd",), space="small")
        )
        assert result.single.stats.phases == {}
        assert result.single.stats.counters == {}


# ----------------------------------------------------------------------
# phase timers and counter invariants
# ----------------------------------------------------------------------
class TestInvariants:
    def test_phase_seconds_bounded_by_elapsed_serial(self):
        result = run_study(
            StudySpec(
                name="timed", workloads=("gcd",), space="small",
                objectives=("area", "cycles", "test_cost", "energy"),
            ),
            collect_metrics=True,
        )
        stats = result.single.stats
        assert stats.phases, "metrics collection yielded no phases"
        total = sum(p["seconds"] for p in stats.phases.values())
        assert total <= stats.elapsed
        assert {"build", "schedule", "test_cost", "simulate"} <= set(
            stats.phases
        )

    def test_proposed_equals_hits_plus_evaluated(self, tmp_path):
        spec = StudySpec(name="inv", workloads=("gcd",), space="small")
        cache = ResultCache(tmp_path)
        for _ in range(2):  # second pass is all cache hits
            stats = run_study(
                spec, cache=cache, collect_metrics=True
            ).single.stats
            c = stats.counters
            assert c["proposed"] == c["cache_hits"] + c["evaluated"]
            assert c["cache_hits"] == stats.cache_hits
            assert c["evaluated"] == stats.evaluated

    def test_merged_pool_counters_deterministic(self, tmp_path):
        """workers=2 merges per-config snapshots in submission order:
        counters must match serial exactly, run after run."""
        def counters(cache_dir, workers):
            stats = run_study(
                StudySpec(
                    name="pool", workloads=("gcd",), space="small",
                ),
                cache=ResultCache(cache_dir),
                workers=workers,
                collect_metrics=True,
            ).single.stats
            return stats.counters

        serial = counters(tmp_path / "w1", 1)
        pooled_a = counters(tmp_path / "w2a", 2)
        pooled_b = counters(tmp_path / "w2b", 2)
        assert pooled_a == pooled_b == serial
        assert serial["proposed"] == 12


# ----------------------------------------------------------------------
# cache + post-pass instrumentation
# ----------------------------------------------------------------------
class TestCacheInstrumentation:
    def test_cache_stats_lifecycle(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = StudySpec(
            name="cs", workloads=("gcd",), space="small",
            objectives=("area", "cycles", "test_cost"),
        )
        run_study(spec, cache=cache)
        first = cache.stats.as_dict()
        assert first["misses"] == 12
        assert first["puts"] >= 12
        assert first["bytes_written"] > 0
        assert cache.bytes_on_disk() > 0
        run_study(spec, cache=cache)
        delta = cache.stats.delta(first)
        assert delta["hits"] == 12
        assert delta["misses"] == 0
        assert delta["puts"] == 0
        assert 0 < cache.stats.hit_rate < 1

    def test_post_pass_hits_reported_without_telemetry(self, tmp_path):
        """Satellite: the second run's summary must credit post-pass
        work served from the cache, with telemetry off."""
        cache = ResultCache(tmp_path)
        spec = StudySpec(
            name="pp", workloads=("gcd",), space="small",
            objectives=("area", "cycles", "test_cost"),
        )
        first = run_study(spec, cache=cache)
        assert first.single.stats.post_pass_hits == 0
        second = run_study(spec, cache=cache)
        front = len(second.single.pareto)
        assert second.single.stats.post_pass_hits == front > 0
        assert f"+{front}pp" in second.summary()


# ----------------------------------------------------------------------
# trace contents + offline summarize
# ----------------------------------------------------------------------
class TestTraceContents:
    def test_study_trace_structure(self, tmp_path):
        path = tmp_path / "study.jsonl"
        with Tracer(path) as tracer:
            run_study(
                StudySpec(
                    name="traced", workloads=("gcd",), space="small",
                    objectives=("area", "cycles", "test_cost"),
                ),
                cache=ResultCache(tmp_path / "cache"),
                tracer=tracer,
            )
        records = load_trace(path)
        by_name: dict[str, list] = {}
        for r in records:
            by_name.setdefault(r["name"], []).append(r)
        assert set(by_name) >= {
            "trace", "study", "run", "search", "wave", "point",
            "cache", "metrics",
        }
        points = by_name["point"]
        assert len(points) == 12
        assert {p["data"]["source"] for p in points} == {"fresh"}
        assert all(p["config"] for p in points)
        summary = summarize_trace(records)
        assert summary["study"] == "traced"
        run = summary["runs"][0]
        assert run["points"] == 12
        assert run["cached_points"] == 0
        assert run["seconds"] is not None
        text = format_trace_summary(summary)
        assert "gcd/small/w16" in text
        assert "result cache" in text

    def test_calibration_events_summarized(self, tmp_path):
        """A calibrated study writes one ``calibration`` event per
        front point, and summarize rolls them into an audited/drifted
        line."""
        path = tmp_path / "calibrated.jsonl"
        with Tracer(path) as tracer:
            run_study(
                StudySpec(
                    name="calibrated", workloads=("gcd",),
                    space="small", objectives=("area", "cycles"),
                ),
                cache=ResultCache(tmp_path / "cache"),
                tracer=tracer,
                calibrate_front=True,
            )
        records = load_trace(path)
        events = [r for r in records if r["name"] == "calibration"]
        assert events
        assert all(e["data"]["ok"] for e in events)
        assert all(e["data"]["cycles_delta"] == 0 for e in events)
        summary = summarize_trace(records)
        calibrations = summary["runs"][0]["calibrations"]
        assert len(calibrations) == len(events)
        # the tracer lifts ``config`` to the record's top level
        assert [c["config"] for c in calibrations] == [
            e["config"] for e in events
        ]
        for entry in calibrations:
            assert entry["ok"] and entry["cycles_delta"] == 0
        text = format_trace_summary(summary)
        assert f"calibration: {len(events)} front point" in text
        assert "0 drifted" in text

    def test_campaign_trace_spans_all_jobs(self, tmp_path):
        """One trace covers every run of a two-workload study."""
        path = tmp_path / "campaign.jsonl"
        with Tracer(path) as tracer:
            run_study(
                StudySpec(
                    name="camp", workloads=("gcd", "crc16"), space="small",
                ),
                cache=ResultCache(tmp_path / "cache"),
                tracer=tracer,
            )
        summary = summarize_trace(load_trace(path))
        assert summary["study"] == "camp"
        assert [r["label"] for r in summary["runs"]] == [
            "gcd/small/w16", "crc16/small/w16",
        ]
        assert all(r["points"] == 12 for r in summary["runs"])
        assert summary["metrics"]["phases"]

    def test_shared_tracer_stamps_each_study(self, tmp_path):
        """Two studies on one tracer each stamp their own name, and the
        caller's tracer is never written to."""
        path = tmp_path / "shared.jsonl"
        with Tracer(path) as tracer:
            for name in ("first", "second"):
                run_study(
                    StudySpec(name=name, workloads=("gcd",), space="small"),
                    tracer=tracer,
                )
        records = load_trace(path)
        studies = [r["study"] for r in records if r["name"] == "study"]
        assert studies == ["first", "second"]
        stamps = {r.get("study") for r in records if r["kind"] != "meta"}
        assert stamps == {"first", "second"}
        assert tracer.study is None


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------
class TestReporting:
    def test_study_to_json_carries_telemetry(self):
        from repro.reporting import study_to_dict

        result = run_study(
            StudySpec(
                name="ser", workloads=("gcd",), space="small",
                objectives=("area", "cycles", "test_cost"),
            ),
            collect_metrics=True,
        )
        data = study_to_dict(result)
        stats = data["runs"][0]["stats"]
        assert stats["post_pass_hits"] == 0
        assert "schedule" in stats["phases"]
        assert stats["counters"]["proposed"] == 12
        json.dumps(data)  # JSON-safe end to end


# ----------------------------------------------------------------------
# histograms
# ----------------------------------------------------------------------
class TestHistogram:
    def test_observe_count_sum_min_max(self):
        h = Histogram()
        for v in (0.001, 0.002, 0.5, 40.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(40.503)
        assert snap["min"] == 0.001
        assert snap["max"] == 40.0
        assert sum(snap["counts"]) == 4
        assert len(snap["counts"]) == len(DEFAULT_BOUNDS) + 1

    def test_quantiles_interpolate_and_bound(self):
        h = Histogram(bounds=(1.0, 2.0, 4.0))
        for _ in range(100):
            h.observe(1.5)
        # all mass in the (1, 2] bucket: every quantile lands inside it
        q = h.quantiles()
        assert 1.0 < q["p50"] <= 2.0
        assert 1.0 < q["p99"] <= 2.0
        assert Histogram().quantile(0.5) is None

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram(bounds=(1.0,))
        h.observe(7.5)
        assert h.quantile(0.99) == 7.5
        assert h.counts[-1] == 1

    def test_merge_is_additive_commutative_and_exact(self):
        import random

        rng = random.Random(7)
        values = [rng.uniform(0.0001, 20.0) for _ in range(500)]
        serial = Histogram()
        for v in values:
            serial.observe(v)
        shards = [Histogram() for _ in range(4)]
        for i, v in enumerate(values):
            shards[i % 4].observe(v)
        snaps = [s.snapshot() for s in shards]

        def merged(order):
            hist = Histogram()
            for snap in order:
                hist.merge(snap)
            return hist.snapshot()

        forward = merged(snaps)
        backward = merged(list(reversed(snaps)))
        # bucket-for-bucket identical regardless of merge order, and
        # identical to observing serially
        assert forward["counts"] == backward["counts"] == serial.counts
        assert forward["count"] == serial.count == 500
        assert forward["sum"] == pytest.approx(serial.sum)
        assert forward["min"] == pytest.approx(serial.min, abs=1e-6)
        assert forward["max"] == pytest.approx(serial.max, abs=1e-6)
        assert (
            Histogram.from_snapshot(forward).quantiles()
            == serial.quantiles()
        )

    def test_merge_rejects_mismatched_bounds(self):
        h = Histogram(bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="bounds"):
            h.merge(Histogram(bounds=(1.0, 3.0)).snapshot())

    def test_snapshot_round_trips(self):
        h = Histogram()
        h.observe(0.3)
        h.observe(3.0)
        clone = Histogram.from_snapshot(h.snapshot())
        assert clone.snapshot() == h.snapshot()

    def test_collector_histograms_ride_snapshots(self):
        a = MetricsCollector()
        a.observe("eval_seconds", 0.002)
        b = MetricsCollector()
        b.observe("eval_seconds", 0.004)
        b.observe("eval_seconds", 30.0)
        merged = MetricsCollector()
        merged.merge(a.snapshot())
        merged.merge(b.snapshot())
        snap = merged.snapshot()["histograms"]["eval_seconds"]
        assert snap["count"] == 3
        assert snap["max"] == 30.0


# ----------------------------------------------------------------------
# live registry + Prometheus exposition
# ----------------------------------------------------------------------
class TestLiveRegistry:
    def test_counters_accumulate_per_label_set(self):
        reg = LiveRegistry()
        reg.count("jobs", tenant="a")
        reg.count("jobs", 2, tenant="a")
        reg.count("jobs", tenant="b")
        snap = reg.snapshot()
        by_tenant = {
            e["labels"]["tenant"]: e["value"]
            for e in snap["counters"]["jobs"]
        }
        assert by_tenant == {"a": 3, "b": 1}

    def test_counters_reject_negative_and_type_conflicts(self):
        reg = LiveRegistry()
        reg.count("x")
        with pytest.raises(ValueError):
            reg.count("x", -1)
        with pytest.raises(ValueError):
            reg.gauge("x", 1.0)
        with pytest.raises(ValueError):
            reg.observe("x", 0.5)

    def test_gauges_overwrite(self):
        reg = LiveRegistry()
        reg.gauge("depth", 4)
        reg.gauge("depth", 2)
        assert reg.snapshot()["gauges"]["depth"][0]["value"] == 2

    def test_histograms_snapshot_with_quantiles(self):
        reg = LiveRegistry()
        for v in (0.001, 0.01, 0.1):
            reg.observe("lat", v, tenant="a")
        entry = reg.snapshot()["histograms"]["lat"][0]
        assert entry["count"] == 3
        assert set(entry["quantiles"]) == {"p50", "p90", "p99"}
        json.dumps(reg.snapshot())  # JSON-safe end to end

    def test_merge_histogram_folds_external_snapshot(self):
        h = Histogram()
        h.observe(0.02)
        h.observe(0.04)
        reg = LiveRegistry()
        reg.merge_histogram("eval", h.snapshot(), tenant="a", job="j1")
        reg.merge_histogram("eval", h.snapshot(), tenant="a", job="j2")
        entries = reg.snapshot()["histograms"]["eval"]
        assert [e["count"] for e in entries] == [2, 2]

    def test_aggregate_series_by_tenant_and_global(self):
        reg = LiveRegistry()
        reg.count("points", 5, tenant="a", job="j1")
        reg.count("points", 2, tenant="a", job="j2")
        reg.count("points", 3, tenant="b", job="j3")
        series = reg.snapshot()["counters"]["points"]
        by_tenant = aggregate_series(series, by="tenant")
        assert by_tenant["a"]["value"] == 7
        assert by_tenant["b"]["value"] == 3
        assert aggregate_series(series)[""]["value"] == 10

    def test_aggregate_series_merges_histograms(self):
        reg = LiveRegistry()
        reg.observe("lat", 0.001, tenant="a", job="j1")
        reg.observe("lat", 0.002, tenant="a", job="j2")
        series = reg.snapshot()["histograms"]["lat"]
        agg = aggregate_series(series, by="tenant")["a"]
        assert agg["count"] == 2
        assert agg["quantiles"]["p50"] is not None


class TestPrometheusRender:
    def _registry(self):
        reg = LiveRegistry()
        reg.count("jobs_submitted", 3, help="jobs accepted", tenant="a")
        reg.count("jobs_submitted", 1, tenant="b")
        reg.gauge("queue_depth", 2, help="queued jobs")
        reg.observe("eval_seconds", 0.002, bounds=(0.001, 0.01, 1.0),
                    help="per-point latency", tenant="a")
        reg.observe("eval_seconds", 0.5, bounds=(0.001, 0.01, 1.0),
                    tenant="a")
        return reg

    def test_help_and_type_emitted_once_per_name(self):
        text = self._registry().render_prometheus()
        helps = [l for l in text.splitlines() if l.startswith("# HELP")]
        types = [l for l in text.splitlines() if l.startswith("# TYPE")]
        names = [l.split()[2] for l in helps]
        assert len(names) == len(set(names))
        assert len(types) == len(set(t.split()[2] for t in types))
        assert "# TYPE repro_jobs_submitted_total counter" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_eval_seconds histogram" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = self._registry().render_prometheus()
        buckets = {}
        for line in text.splitlines():
            if line.startswith("repro_eval_seconds_bucket"):
                le = line.split('le="')[1].split('"')[0]
                buckets[le] = int(line.rsplit(" ", 1)[1])
        assert buckets["0.001"] <= buckets["0.01"] <= buckets["1"]
        assert buckets["+Inf"] == 2
        assert "repro_eval_seconds_count" in text
        assert "repro_eval_seconds_sum" in text

    def test_counter_values_and_label_escaping(self):
        reg = LiveRegistry()
        reg.count("odd", 1, path='a"b\\c\nd')
        text = reg.render_prometheus()
        assert 'path="a\\"b\\\\c\\nd"' in text
        assert 'repro_jobs_submitted_total{tenant="a"} 3' in (
            self._registry().render_prometheus()
        )

    def test_exporter_serves_metrics_over_http(self):
        import urllib.request

        reg = LiveRegistry()
        reg.count("hits", 4)
        exporter = MetricsExporter(reg).start()
        try:
            base = f"http://{exporter.address}"
            with urllib.request.urlopen(f"{base}/metrics") as resp:
                assert resp.status == 200
                assert "version=0.0.4" in resp.headers["Content-Type"]
                body = resp.read().decode()
            assert "repro_hits_total 4" in body
            with urllib.request.urlopen(f"{base}/healthz") as resp:
                assert resp.status == 200
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope")
        finally:
            exporter.stop()


# ----------------------------------------------------------------------
# buffered tracer + job/tenant binding
# ----------------------------------------------------------------------
class TestBufferedTracer:
    def test_writes_buffer_until_threshold(self, tmp_path):
        path = tmp_path / "b.jsonl"
        tracer = Tracer(path, flush_every=100, flush_seconds=3600.0)
        tracer.event("wave", run="r")
        # meta + event are buffered, nothing on disk yet
        assert path.read_text() == ""
        tracer.flush()
        assert len(path.read_text().splitlines()) == 2
        tracer.close()

    def test_close_flushes_remaining_records(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with Tracer(path, flush_every=100, flush_seconds=3600.0) as t:
            for i in range(5):
                t.event("wave", run="r", wave=i)
        assert len(read_trace(path.read_text().splitlines())) == 6

    def test_flush_every_one_writes_through(self, tmp_path):
        path = tmp_path / "w.jsonl"
        tracer = Tracer(path, flush_every=1)
        tracer.event("wave", run="r")
        assert len(path.read_text().splitlines()) == 2
        tracer.close()

    def test_bound_tracer_stamps_job_and_tenant(self, tmp_path):
        path = tmp_path / "bound.jsonl"
        with Tracer(path, study="svc") as base:
            bound = base.bind(job="j1", tenant="alice")
            bound.event("queue", run="j1", action="submit")
            with bound.span("run", run="gcd/small/w16"):
                pass
            bound.metric_snapshot("registry", {"counters": {}})
        records = read_trace(path.read_text().splitlines())
        stamped = [r for r in records if r["kind"] != "meta"]
        assert all(r["job"] == "j1" for r in stamped)
        assert all(r["tenant"] == "alice" for r in stamped)
        assert stamped[-1]["kind"] == "metric_snapshot"
        assert stamped[-1]["data"] == {"counters": {}}

    def test_bound_study_is_view_local(self, tmp_path):
        """Two bound views setting .study must not race through the
        shared base tracer (concurrent server jobs do exactly this)."""
        path = tmp_path / "views.jsonl"
        with Tracer(path) as base:
            a = base.bind(job="j1", tenant="a")
            b = base.bind(job="j2", tenant="b")
            a.study = "study-a"
            b.study = "study-b"
            a.event("wave", run="r1")
            b.event("wave", run="r2")
            assert base.study is None
        records = read_trace(path.read_text().splitlines())
        studies = {r["job"]: r["study"] for r in records if r["kind"] != "meta"}
        assert studies == {"j1": "study-a", "j2": "study-b"}


# ----------------------------------------------------------------------
# summarize: the service join
# ----------------------------------------------------------------------
class TestSummarizeJoin:
    def test_jobs_join_runs_and_snapshots(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        with Tracer(path) as base:
            bound = base.bind(job="j1", tenant="alice")
            bound.study = "s"
            bound.event("queue", run="j1", action="submit")
            bound.event("job_state", run="j1", state="running")
            bound.event("wave", run="gcd/small/w16", wave=0)
            bound.event(
                "point", run="gcd/small/w16", wave=0, config="b2",
                source="fresh",
            )
            bound.event("job_state", run="j1", state="done")
            bound.metric_snapshot("registry", {"counters": {}})
        summary = summarize_trace(load_trace(path))
        assert len(summary["jobs"]) == 1
        job = summary["jobs"][0]
        assert job["job"] == "j1"
        assert job["tenant"] == "alice"
        assert job["states"] == ["running", "done"]
        assert job["queue"] == {"submit": 1}
        assert job["runs"] == ["gcd/small/w16"]
        assert job["snapshots"] == 1
        # service lifecycle events stay out of the study-run table
        assert {r["label"] for r in summary["runs"]} == {"gcd/small/w16"}
        assert summary["runs"][0]["job"] == "j1"
        assert summary["metric_snapshots"]["count"] == 1
        text = format_trace_summary(summary)
        assert "job j1 (tenant alice): running -> done" in text
        assert "[job j1]" in text
        json.dumps(summary)

    def test_v1_service_traces_still_join(self):
        """PR 8 traces carried the job id in ``run`` and the tenant in
        ``data`` — the join must keep working on archived traces."""
        records = [
            {"v": 1, "kind": "meta", "ts": 0.0, "name": "trace",
             "data": {"schema": 1}},
            {"v": 1, "kind": "event", "ts": 0.1, "name": "queue",
             "run": "job-1", "data": {"action": "submit", "tenant": "t"}},
            {"v": 1, "kind": "event", "ts": 0.2, "name": "job_state",
             "run": "job-1", "data": {"state": "done", "tenant": "t"}},
        ]
        summary = summarize_trace(
            [validate_record(r) for r in records]
        )
        assert summary["jobs"] == [{
            "job": "job-1", "tenant": "t", "states": ["done"],
            "queue": {"submit": 1}, "runs": [], "snapshots": 0,
        }]
        assert summary["runs"] == []


# ----------------------------------------------------------------------
# live registry result-neutrality + pooled histogram determinism
# ----------------------------------------------------------------------
class TestLiveTelemetryEquivalence:
    def test_registry_fold_is_result_neutral(self, tmp_path):
        """The server-side fold (metered study -> LiveRegistry) must
        leave results and cache bytes byte-identical to a plain run."""
        def spec(name):
            return StudySpec(
                name=name, workloads=("gcd",), space="small",
                objectives=("area", "cycles", "test_cost"), select=True,
            )

        plain = run_study(spec("off"), cache=ResultCache(tmp_path / "a"))
        registry = LiveRegistry()
        metered = run_study(
            spec("on"), cache=ResultCache(tmp_path / "b"),
            collect_metrics=True,
        )
        for run in metered.runs:
            registry.count(
                "points_evaluated", run.stats.evaluated,
                tenant="t", job="j1",
            )
            hist = run.stats.histograms.get("eval_seconds")
            if hist:
                registry.merge_histogram(
                    "eval_seconds", hist, tenant="t", job="j1",
                )
        assert _point_rows(plain) == _point_rows(metered)
        assert _cache_bytes(tmp_path / "a") == _cache_bytes(tmp_path / "b")
        series = registry.snapshot()["counters"]["points_evaluated"]
        assert aggregate_series(series)[""]["value"] == 12
        hist = registry.snapshot()["histograms"]["eval_seconds"][0]
        assert hist["count"] == 12

    def test_pooled_eval_histogram_counts_deterministic(self, tmp_path):
        """workers=2 merges worker snapshots in submission order: the
        eval_seconds histogram must account for every evaluated point,
        run after run, exactly as the serial path does."""
        def stats(cache_dir, workers):
            return run_study(
                StudySpec(name="ph", workloads=("gcd",), space="small"),
                cache=ResultCache(cache_dir),
                workers=workers,
                collect_metrics=True,
            ).single.stats

        serial = stats(tmp_path / "w1", 1)
        pooled_a = stats(tmp_path / "w2a", 2)
        pooled_b = stats(tmp_path / "w2b", 2)
        for s in (serial, pooled_a, pooled_b):
            snap = s.histograms["eval_seconds"]
            assert snap["count"] == s.counters["evaluated"] == 12
            assert sum(snap["counts"]) == 12
            assert tuple(snap["bounds"]) == DEFAULT_BOUNDS
        assert pooled_a.counters == pooled_b.counters == serial.counters
