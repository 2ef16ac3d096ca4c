"""What the benchmark prints matches what BENCHMARK.json declares."""

import json
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import fabric, run
from perfbench.common import Stopwatch, envelope
from perfbench.tests.conftest import ROOT

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _declared(section):
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def test_declaration_follows_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m for m in DECLARED["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_metrics_match_declaration(workload, k4_reference):
    records = [run.pass_record(workload, 0, False) for _ in range(2)]
    assert records[0]["sim_sha256"] == records[1]["sim_sha256"]
    assert all(r["checked"] > 0 and r["bad"] == 0 for r in records)
    e2e = run.end_to_end(records, 1.0)
    assert {k: v["unit"] for k, v in e2e.items()} == _declared("end_to_end")

    traced = run.pass_record(workload, 0, True)
    assert traced["sim_sha256"] == records[0]["sim_sha256"]
    layers = run.per_layer_metrics(records, traced, run.REF_CALIBRATION_S)
    assert {k: v["unit"] for k, v in layers.items()} == _declared("per_layer")


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_command_prints_one_result_line():
    out = _cli(ROOT, "--workload", "orfs_read", "--seed", "1",
               "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(_declared("end_to_end"))


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _cli(tmp_path, "--workload", "orfs_read", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""


def test_every_stored_reference_matches_its_digest():
    for pods in fabric.SHIFT_PODS:
        ref = fabric.load_reference(fabric.shift_of(pods))
        assert len(ref["done_ns"]) == 1024


def test_an_altered_reference_is_refused(k4_reference):
    table = json.loads(k4_reference.read_text())
    table["done_ns"][0] += 1
    k4_reference.write_text(json.dumps(table))
    with pytest.raises(fabric.ReferenceError):
        fabric.load_reference(4)


def test_only_host_times_are_scaled():
    records = [{"setup_s": s, "laps": laps, "rss_mib": 10.0, "checked": 4,
                "bad": 0, "sim": dict.fromkeys(run.SIM_METRICS, 1.0)}
               for s, laps in ((0.2, [1.0, 2.0]), (0.1, [1.5, 1.0]),
                               (0.3, [2.0, 1.5]))]
    at_1 = run.end_to_end(records, 1.0)
    at_2 = run.end_to_end(records, 2.0)
    assert (at_1["setup_s"]["value"], at_1["host_wall_s"]["value"]) == (0.2, 2.0)
    assert (at_2["setup_s"]["value"], at_2["host_wall_s"]["value"]) == (0.4, 4.0)
    assert {k: v for k, v in at_1.items() if not k.startswith(("setup", "host"))} \
        == {k: v for k, v in at_2.items() if not k.startswith(("setup", "host"))}


def test_host_time_takes_each_lap_from_its_fastest_pass():
    assert envelope([[1.0, 2.0, 3.0], [2.0, 1.0, 4.0]]) == 5.0
    with pytest.raises(ValueError):
        envelope([[1.0, 2.0], [1.0]])


def test_laps_add_up_to_the_measured_phase_without_pauses():
    clock = Stopwatch()
    clock.lap()
    with clock.paused():
        time.sleep(0.05)
    clock.lap()
    clock.stop()
    assert len(clock.laps) == 3
    assert sum(clock.laps) == pytest.approx(clock.total)
    assert clock.total < 0.05
