"""The experiment fleet: spec expansion, isolation, byte-identity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro import obs
from repro.cluster.topo import (clear_route_cache, fat_tree,
                                route_cache_stats)
from repro.fleet import (FleetSpec, FleetSpecError, isolated_run,
                         render_csv, render_json, run_fleet, run_point)
from repro.hw import flow as flowmod
from repro.hw import train as trainmod
from repro.mem.sglist import HOST_COPIES
from repro.cluster.node import star
from repro.load import LoadGen, PoissonArrivals, make_mix, make_workload, run_load
from repro.sim import Environment

# -- spec validation and expansion ---------------------------------------------


def _spec(**overrides):
    data = {
        "name": "t", "seed": 1, "n_ops": 24, "n_clients": 2,
        "mix": "read4k",
        "grid": {
            "topology": [{"kind": "star", "n": 4}],
            "workload": [{"kind": "orfa", "api": "mx"}],
            "offered_load": [4000, 32000],
        },
    }
    data.update(overrides)
    return FleetSpec.from_dict(data)


def test_points_expand_in_declared_order():
    spec = _spec(grid={
        "topology": [{"kind": "star", "n": 4}, {"kind": "fat_tree", "k": 4}],
        "mode": ["packet", "train"],
        "workload": [{"kind": "orfa", "api": "mx"}],
        "offered_load": [1000, 2000, 3000],
    })
    points = spec.points()
    assert len(points) == 2 * 2 * 1 * 1 * 3
    assert [p.index for p in points] == list(range(12))
    # topology outermost, offered_load inner.
    assert points[0].config()["topology"] == "star4"
    assert points[6].config()["topology"] == "ft4"
    assert [p.offered_load for p in points[:3]] == [1000.0, 2000.0, 3000.0]
    assert points[0].mode == "packet" and points[3].mode == "train"


def test_spec_validation_rejects_bad_input():
    with pytest.raises(FleetSpecError):
        _spec(grid={"climate": ["warm"]})
    with pytest.raises(FleetSpecError):
        _spec(grid={"topology": [{"kind": "ring", "n": 4}]})
    with pytest.raises(FleetSpecError):
        _spec(grid={"mode": ["quantum"]})
    with pytest.raises(FleetSpecError):
        _spec(grid={"offered_load": [0]})
    with pytest.raises(FleetSpecError):
        _spec(mix="bogus")
    with pytest.raises(FleetSpecError):
        _spec(n_clients=9)  # star4 has only 3 client hosts
    with pytest.raises(FleetSpecError):
        _spec(grid={"faults": [{"kind": "gamma_ray"}]})
    with pytest.raises(FleetSpecError):
        _spec(loop="semi")
    with pytest.raises(FleetSpecError):
        FleetSpec.from_dict({"bogus_key": 1})


def test_spec_round_trips_through_files(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec().to_dict()))
    spec = FleetSpec.from_file(str(path))
    assert spec.to_dict() == _spec().to_dict()
    with pytest.raises(FleetSpecError):
        FleetSpec.from_file(str(tmp_path / "missing.json"))


def test_fault_axis_config_labels():
    spec = _spec(grid={
        "topology": [{"kind": "star", "n": 4}],
        "workload": [{"kind": "orfa", "api": "mx"}],
        "offered_load": [4000],
        "faults": [None, {"kind": "nic_reset", "node": 2, "at_us": 300}],
    })
    labels = [p.config()["fault"] for p in spec.points()]
    assert labels == ["none", "nic_reset@2"]


# -- isolation -----------------------------------------------------------------


def orfa_timeline() -> str:
    """A 2-client ORFA-over-GM load run, as timeline JSON.  Its spans
    carry request ids, so the bytes show how ids were numbered."""
    timeline = obs.install_timeline()
    try:
        env = Environment()
        nodes, _switch = star(env, 3)
        wl = make_workload({"kind": "orfa", "api": "gm"}, env,
                           nodes[0], nodes[1:])
        gen = LoadGen(PoissonArrivals(1, 16000.0), make_mix("read4k"),
                      1, 40, 2)
        run_load(env, wl, gen)
    finally:
        obs.uninstall_timeline()
    return timeline.to_json()


def test_second_simulation_in_a_process_matches_a_fresh_process():
    """Ids belong to the simulation: a run after another run in the same
    process, with no scrub in between, gives the bytes a fresh process
    gives."""
    orfa_timeline()
    second = orfa_timeline()
    src = Path(repro.__file__).resolve().parents[1]
    root = Path(__file__).resolve().parents[1]
    fresh = subprocess.run(
        [sys.executable, "-c",
         "import sys; from tests.test_fleet import orfa_timeline; "
         "sys.stdout.write(orfa_timeline())"],
        cwd=root, capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{root}"},
    ).stdout
    ids = [e["args"]["request_id"] for e in json.loads(fresh)["traceEvents"]
           if "request_id" in e.get("args", {})]
    assert min(ids) == 1
    assert second == fresh


def test_isolated_run_restores_ambient_state():
    saved_flow = flowmod.flow_mode_enabled()
    saved_coalescing = trainmod.coalescing_enabled()
    outer = obs.MetricsRegistry()
    obs.install_registry(outer)
    try:
        obs.counter("outer.marker").inc()
        flowmod.set_flow_mode(True)
        trainmod.set_coalescing(True)
        HOST_COPIES.reset()
        for _ in range(3):
            HOST_COPIES.count(333)
        with isolated_run(observe=True) as inner:
            assert obs.active_registry() is inner
            assert HOST_COPIES.copies == 0
            flowmod.set_flow_mode(False)
            trainmod.set_coalescing(False)
            HOST_COPIES.count(1)
        assert obs.active_registry() is outer
        assert flowmod.flow_mode_enabled()
        assert trainmod.coalescing_enabled()
        # Outer totals survive, inner-block work is added back.
        assert HOST_COPIES.copies == 4
        assert HOST_COPIES.nbytes == 1000
        assert outer.snapshot()["counters"]["outer.marker"] == 1
    finally:
        obs.uninstall_registry()
        flowmod.set_flow_mode(saved_flow)
        trainmod.set_coalescing(saved_coalescing)
        HOST_COPIES.reset()


# -- the runner ----------------------------------------------------------------


def test_rerun_and_parallel_runs_are_byte_identical():
    """The fleet contract, and the satellite regression for the shared
    scrub: back-to-back in-process sweeps must be byte-identical to
    each other AND to fresh-process (forked pool) sweeps — i.e. the
    isolation scrub leaves nothing behind that a fresh process wouldn't
    also see."""
    spec = _spec()
    # Dirty the process first, as a long-lived session would: an earlier
    # simulation must leave nothing behind.
    orfa_timeline()
    first = render_json(run_fleet(spec, parallel=1))
    second = render_json(run_fleet(spec, parallel=1))
    forked = render_json(run_fleet(spec, parallel=2))
    assert first == second
    assert first == forked


def test_run_point_rows_are_complete():
    spec = _spec()
    row = run_point(spec, spec.points()[0])
    assert row["config"]["topology"] == "star4"
    assert row["metrics"]["achieved_ops"] == 24
    assert row["metrics"]["failed_ops"] == 0
    assert row["sim_ns"] > 0 and row["events"] > 0
    assert len(row["metrics"]["per_client_ops"]) == 2


def test_render_csv_shape():
    spec = _spec()
    result = run_fleet(spec)
    csv = render_csv(result)
    lines = csv.strip().split("\n")
    assert len(lines) == 1 + len(result.rows)
    header = lines[0].split(",")
    assert header[0] == "index" and "p99_ns" in header
    for line in lines[1:]:
        assert len(line.split(",")) == len(header)


def test_route_cache_reuse_does_not_change_results():
    """Grid points sharing a topology reuse the memoized routing tables;
    a cold-cache run must produce the same bytes as a warm-cache run."""
    spec = _spec(grid={
        "topology": [{"kind": "fat_tree", "k": 4}],
        "workload": [{"kind": "orfa", "api": "mx"}],
        "offered_load": [4000, 32000],
    })
    clear_route_cache()
    cold = render_json(run_fleet(spec))
    stats = route_cache_stats()
    assert stats["misses"] == 1
    assert stats["hits"] >= 1  # second grid point reused the tables
    warm = render_json(run_fleet(spec))
    assert route_cache_stats()["misses"] == 1  # still only one BFS
    assert cold == warm


def test_route_cache_hit_hands_back_identical_tables():
    clear_route_cache()
    env1 = Environment()
    f1 = fat_tree(env1, 4)
    env2 = Environment()
    f2 = fat_tree(env2, 4)
    assert route_cache_stats() == {"hits": 1, "misses": 1}
    for src, dst in ((0, 15), (3, 8), (7, 12)):
        p1 = [(link.name, end) for link, end, _sw in f1.path(src, dst)]
        p2 = [(link.name, end) for link, end, _sw in f2.path(src, dst)]
        assert p1 == p2


def test_saturation_knee_over_the_load_axis():
    """The acceptance curve: p99 grows monotonically with offered load
    and the saturated point sits well above the light-load point."""
    spec = _spec(grid={
        "topology": [{"kind": "star", "n": 4}],
        "workload": [{"kind": "orfa", "api": "mx"}],
        "offered_load": [4000, 16000, 64000],
    }, n_ops=120)
    result = run_fleet(spec)
    p99s = [row["metrics"]["p99_ns"] for row in result.rows]
    assert p99s == sorted(p99s)
    assert p99s[-1] >= 2 * p99s[0]


# -- the CLI -------------------------------------------------------------------


def test_bench_fleet_cli(tmp_path, capsys):
    from repro.bench.fleet import main

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(_spec().to_dict()))
    out_prefix = str(tmp_path / "results")
    assert main(["--spec", str(spec_path), "--out", out_prefix]) == 0
    out = capsys.readouterr().out
    assert "fleet t: 2 points" in out
    data = json.loads((tmp_path / "results.json").read_text())
    assert len(data["points"]) == 2
    csv = (tmp_path / "results.csv").read_text()
    assert csv.startswith("index,")

    assert main(["--schema"]) == 0
    assert main([]) == 2
    assert main(["--spec", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"grid": {"topology": [{"kind": "moebius"}]}}')
    assert main(["--spec", str(bad)]) == 2
