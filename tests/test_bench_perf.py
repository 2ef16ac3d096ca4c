"""Tests for the perf self-benchmark module and the parallel runner."""

import json

import pytest

from repro.bench import perf, runner


def test_run_perf_quick_report_shape():
    report = perf.run_perf(quick=True)
    assert report["quick"] is True
    for section in ("heap", "immediate"):
        block = report["engine"][section]
        assert block["events"] > 0
        assert block["events_per_sec"] > 0
    for section in ("single_frame", "contiguous"):
        block = report["allocator"][section]
        assert block["ops"] > 0
        assert block["ops_per_sec"] > 0
    assert report["summary"]["engine_events_per_sec"] > 0
    assert report["summary"]["allocator_ops_per_sec"] > 0
    pt = report["packet_train"]
    for entry in pt["entries"]:
        assert entry["events"]["per_packet"] > entry["events"]["train"] > 0
        assert entry["sim_time_identical"] is True
    # The same numbers CI gates on, at their authoritative thresholds.
    assert pt["summary"]["event_reduction_min"] >= 3.0
    assert pt["summary"]["events_per_mb_train_max"] <= 150
    assert report["summary"]["packet_train_event_reduction"] >= 3.0
    # Fig 7(b) read path: engine events per 4 KiB page (deterministic).
    orfs = report["orfs_read"]
    assert orfs["pages"] == 256 and orfs["events"] > 0
    assert report["summary"]["orfs_read_events_per_page"] <= 47.5


def test_perf_main_writes_json(tmp_path):
    out = tmp_path / "BENCH_engine.json"
    assert perf.main(["--quick", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro-perf/1"
    assert report["summary"]["engine_events_per_sec"] > 0


def test_runner_parallel_output_identical_to_sequential(capsys):
    # fig1b is pure arithmetic (cheapest figure): a good smoke for the
    # process-pool path producing byte-identical output.
    assert runner.main(["fig1b", "fig4a", "--json"]) == 0
    sequential = capsys.readouterr().out
    assert runner.main(["fig1b", "fig4a", "--json", "--parallel", "2"]) == 0
    parallel = capsys.readouterr().out
    assert parallel == sequential
    assert json.loads(sequential)["fig1b"]["series"]


def test_runner_rejects_unknown_experiment(capsys):
    assert runner.main(["nope"]) == 2


def test_runner_timings_on_stderr(capsys):
    assert runner.main(["fig1b", "--timings"]) == 0
    captured = capsys.readouterr()
    assert "[timing] fig1b" in captured.err
    assert "[timing]" not in captured.out
