"""The ``python -m repro`` command line, driven through ``main()``."""

import csv
import io
import json

import pytest

from repro.__main__ import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _ = _run(capsys, "list")
    assert code == 0
    assert "crypt" in out and "spaces:" in out
    # the registries behind the study layer are listed too
    assert "objectives:" in out and "strategies:" in out


def test_list_objectives_flag(capsys):
    code, out, _ = _run(capsys, "list", "--objectives")
    assert code == 0
    assert "area" in out and "cycles" in out and "test_cost" in out
    assert "workloads:" not in out and "strategies:" not in out


def test_list_strategies_flag(capsys):
    code, out, _ = _run(capsys, "list", "--strategies")
    assert code == 0
    for name in ("exhaustive", "iterative", "random", "simulated_annealing"):
        assert name in out
    assert "params:" in out
    assert "workloads:" not in out and "objectives:" not in out


def test_list_shows_energy_objectives_and_technologies(capsys):
    code, out, _ = _run(capsys, "list", "--objectives")
    assert code == 0
    assert "energy" in out and "edp" in out
    assert "[needs energy pass]" in out

    code, out, _ = _run(capsys, "list", "--technologies")
    assert code == 0
    assert "default" in out and "low_power" in out
    assert "objectives:" not in out


def test_study_with_energy_objective(capsys):
    code, out, _ = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--objectives", "cycles,area,energy", "--select",
        "--no-cache", "-q",
    )
    assert code == 0
    assert "cycles+area+energy" in out
    assert "selected [gcd/small/w16]" in out


def test_study_summary(capsys):
    code, out, _ = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--no-cache", "-q",
    )
    assert code == 0
    assert "study 'study'" in out
    assert "gcd/small/w16" in out


def test_study_random_strategy_csv(capsys, tmp_path):
    out_file = tmp_path / "sample.csv"
    code, _, _ = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--strategy", "random", "--param", "budget=5", "--param", "seed=2",
        "--no-cache", "-q", "--format", "csv", "-o", str(out_file),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert len(rows) == 5


def test_study_spec_file_with_selection(capsys, tmp_path):
    from repro.study import StudySpec

    spec_file = tmp_path / "study.json"
    spec_file.write_text(
        StudySpec(
            name="from-file",
            workloads=("gcd",),
            space="small",
            objectives=("area", "cycles", "test_cost"),
            select=True,
        ).to_json()
    )
    code, out, _ = _run(
        capsys, "study", "--spec", str(spec_file), "--no-cache", "-q",
    )
    assert code == 0
    assert "study 'from-file'" in out
    assert "selected [gcd/small/w16]" in out


def test_study_unknown_objective_fails(capsys):
    code, _, err = _run(
        capsys, "study", "--workloads", "gcd", "--objectives", "area,nope",
        "--no-cache", "-q",
    )
    assert code == 1
    assert "unknown objective" in err


def test_study_needs_spec_or_workloads(capsys):
    with pytest.raises(SystemExit):
        main(["study", "-q"])


def test_explore_csv_pareto(capsys, tmp_path):
    """Exploring one workload exhaustively and exporting its front."""
    out_file = tmp_path / "points.csv"
    code, _, _ = _run(
        capsys, "study", "--workloads", "gcd", "--no-cache", "-q",
        "--format", "csv", "--pareto", "-o", str(out_file),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out_file.read_text())))
    assert rows and all(r["feasible"] == "True" for r in rows)
    assert "config" in rows[0]


def test_explore_unknown_workload_fails(capsys):
    code, _, err = _run(capsys, "study", "--workloads", "nope", "-q")
    assert code == 1
    assert "unknown workload" in err


def test_campaign_flags_and_resume(capsys, tmp_path):
    """A campaign is one study per (space, width) sharing --cache-dir;
    a second invocation is served entirely from the cache."""
    cache = tmp_path / "cache"
    cells = [("gcd,checksum", "small", "16"), ("gcd", "small", "8")]

    def sweep():
        outs = []
        for workloads, space, width in cells:
            code, out, _ = _run(
                capsys, "study", "--workloads", workloads, "--space", space,
                "--width", width, "--cache-dir", str(cache), "-q",
            )
            assert code == 0
            outs.append(out)
        return outs

    first = sweep()
    assert "24 evaluated, 0 cache hits" in first[0]
    assert "12 evaluated, 0 cache hits" in first[1]
    second = sweep()
    assert "0 evaluated, 24 cache hits" in second[0]
    assert "0 evaluated, 12 cache hits" in second[1]


def test_campaign_spec_file(capsys, tmp_path):
    from repro.study import StudySpec

    spec_file = tmp_path / "spec.json"
    spec_file.write_text(
        StudySpec(
            name="from-file", workloads=("gcd", "checksum"),
            space="small", select=True,
        ).to_json()
    )
    code, out, _ = _run(
        capsys, "study", "--spec", str(spec_file), "--no-cache", "-q",
    )
    assert code == 0
    assert "study 'from-file'" in out and "2 runs" in out
    assert "selected [gcd/small/w16]" in out
    assert "selected [checksum/small/w16]" in out


def test_report_round_trip(capsys, tmp_path):
    result = tmp_path / "points.json"
    code, _, _ = _run(
        capsys, "study", "--workloads", "gcd", "--no-cache", "-q",
        "--format", "json", "-o", str(result),
    )
    assert code == 0

    code, out, _ = _run(capsys, "report", str(result), "--format", "json")
    assert code == 0
    assert json.loads(out) == json.loads(result.read_text())

    code, out, _ = _run(
        capsys, "report", str(result), "--pareto", "--format", "summary",
    )
    assert code == 0
    assert "architecture" in out


def test_report_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, "report", str(tmp_path / "missing.json"))
    assert code == 1
    assert "error:" in err


def test_explore_profile_flag(capsys):
    code, out, err = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--no-cache", "-q", "--profile",
    )
    assert code == 0
    assert "gcd/small/w16" in out
    # cProfile top-25 cumulative goes to stderr
    assert "cumulative" in err and "ncalls" in err


def test_study_trace_and_metrics_out(capsys, tmp_path):
    """The trace is the one export of a study's numbers: ``trace
    summarize --format json`` gives each run's counters and phases and
    their merge across runs."""
    trace = tmp_path / "study.jsonl"
    code, out, err = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--no-cache", "-q", "--trace", str(trace),
    )
    assert code == 0
    assert "phase" in out and "schedule" in out  # summary prints the table
    # the trace validates and summarizes through the CLI
    code, out, _ = _run(capsys, "trace", "validate", str(trace))
    assert code == 0 and "schema OK" in out
    code, out, _ = _run(capsys, "trace", "summarize", str(trace))
    assert code == 0
    assert "gcd/small/w16" in out and "12 points" in out
    # --format json round-trips the whole summary dict
    code, out, _ = _run(
        capsys, "trace", "summarize", str(trace), "--format", "json",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["runs"][0]["label"] == "gcd/small/w16"
    assert summary["runs"][0]["points"] == 12
    counters = summary["runs"][0]["metrics"]["counters"]
    assert counters["proposed"] == counters["cache_hits"] + counters["evaluated"]
    assert summary["metrics"]["phases"]
    assert summary["jobs"] == []


def test_trace_rejects_corrupt_file(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"v": 1, "kind": "event", "ts": 0.0, "name": "x"}\n')
    code, _, err = _run(capsys, "trace", "validate", str(bad))
    assert code == 1
    assert "meta" in err


def test_study_calibrate_traces_its_simulations(capsys, tmp_path):
    """A calibrated study times every calibration's traced simulation
    in its run's ``metrics`` event: one ``simulate`` and one
    ``energy_model`` call per calibrated front point."""
    trace = tmp_path / "calibrated.jsonl"
    code, _, _ = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--calibrate", "--no-cache", "-q", "--trace", str(trace),
    )
    assert code == 0
    code, out, _ = _run(
        capsys, "trace", "summarize", str(trace), "--format", "json",
    )
    assert code == 0
    run = json.loads(out)["runs"][0]
    calibrated = len(run["calibrations"])
    assert calibrated > 0
    phases = run["metrics"]["phases"]
    assert phases["simulate"]["calls"] == calibrated
    assert phases["energy_model"]["calls"] == calibrated


def test_rtl_emit_json(capsys):
    code, out, _ = _run(
        capsys, "rtl", "emit", "gcd", "--space", "small", "--index", "5",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["lint_problems"] == []
    assert data["top"] == "tta_core"
    assert data["top"] in data["modules"]
    assert data["num_instructions"] > 0
    # each imem word carries the encoded instruction plus a halt bit
    assert data["imem_bits"] == (
        data["num_instructions"] * (data["instruction_bits"] + 1)
    )


def test_rtl_emit_verilog_to_file(capsys, tmp_path):
    core = tmp_path / "core.v"
    code, _, err = _run(
        capsys, "rtl", "emit", "--space", "small", "--index", "5",
        "--top", "my_core", "-o", str(core),
    )
    assert code == 0
    assert "lint" not in err
    text = core.read_text()
    assert "module my_core" in text
    assert text.rstrip().endswith("endmodule")


def test_rtl_emit_rejects_bad_index(capsys):
    code, _, err = _run(capsys, "rtl", "emit", "--space", "small",
                        "--index", "99")
    assert code == 1
    assert "outside space" in err


def test_rtl_calibrate_text_and_json(capsys):
    code, out, _ = _run(
        capsys, "rtl", "calibrate", "gcd", "--space", "small", "--index", "5",
    )
    assert code == 0
    assert "calibration gcd" in out and ": OK" in out
    assert "delta=+0" in out and "interconnect" in out
    assert "(unmodelled)" in out

    code, out, _ = _run(
        capsys, "rtl", "calibrate", "gcd", "--space", "small", "--index", "5",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    assert report["cycles_delta"] == 0


def test_energy_breakdown_command(capsys):
    # the calibration's traced simulation prints its energy breakdown
    code, out, _ = _run(capsys, "rtl", "calibrate", "gcd", "--space", "small",
                        "--index", "1")
    assert code == 0
    assert "energy report: gcd" in out
    assert "bus0" in out and "fetch" in out and "leakage" in out
    assert "total" in out and "share" in out


def test_rtl_calibrate_rejects_unmappable_workload(capsys):
    # fir needs a multiplier the small space's first point lacks
    code, _, err = _run(capsys, "rtl", "calibrate", "fir", "--space", "small",
                        "--index", "0")
    assert code == 1
    assert "does not map" in err


def test_rtl_calibrate_clean_error_on_cycle_budget(capsys):
    code, _, err = _run(capsys, "rtl", "calibrate", "gcd", "--space", "small",
                        "--index", "3", "--max-cycles", "10")
    assert code == 1
    assert "error:" in err and "no halt" in err
    assert "Traceback" not in err


def test_study_calibrate_flag(capsys):
    code, out, _ = _run(
        capsys, "study", "--workloads", "gcd", "--space", "small",
        "--objectives", "area,cycles,code_size", "--calibrate",
        "--no-cache", "-q",
    )
    assert code == 0
    assert "calibrated" in out and "0 drifted" in out


def test_list_objectives_shows_code_size(capsys):
    code, out, _ = _run(capsys, "list", "--objectives")
    assert code == 0
    assert "code_size" in out and "instruction-memory bits" in out
