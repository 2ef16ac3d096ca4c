"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload orfs_read --seed 1 --seconds 30 --trace 0

Run from the repository root.  A run makes a fixed number of complete
passes of the workload (set-up, measured phase, output checks) with
inputs drawn from ``--seed``: as many as fit in ``--seconds`` at the
workload's nominal pass time (:data:`PASS_S`), however fast the passes
actually run.  Each pass runs in a fresh child process, one at a time,
so that every pass pays the cold costs a user's run pays and none
inherits another's heap.  Every pass must reproduce the first pass's
simulated results exactly.

``--trace 0`` prints the end-to-end metrics: the median over passes of
host set-up time and the measured phase's host time taken lap by lap
from the fastest pass for each lap (both scaled to the reference
machine's speed, see :func:`run`), the
median over passes of peak memory, the share of verified operations,
and the simulated results.  ``--trace 1`` makes the same untraced passes
and then one more with every layer wrapped (see ``tracer.py``) and a
fresh metrics registry installed, and prints the per-layer metrics.  The
last line of standard output is one JSON object with keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _use_program() -> None:
    """Put the program's sources and this package on the path."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit("perfbench: src/repro not found; run from a "
                         "checkout of the repository")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


WORKLOADS = ("orfs_read", "orfa_openloop", "fabric_permutation")
#: Host seconds one pass of each workload takes, child process included,
#: on a 2-core x86-64 machine: fixes how many passes a run makes.
PASS_S = {"orfs_read": 1.5, "orfa_openloop": 3.75, "fabric_permutation": 4.25}
MIN_PASSES = 3
#: Host seconds :func:`perfbench.common.calibration_s` takes on that
#: machine when undisturbed.  Host times are reported at this speed.
REF_CALIBRATION_S = 0.045
#: Calibration loops timed just before and again just after each pass.
CALIBRATIONS = 3
#: A pass that takes longer than this is killed and the run fails.
PASS_TIMEOUT_S = 150
#: The simulated results each pass reports for the end-to-end metrics.
SIM_METRICS = {"sim_p50_us": "us", "sim_p99_us": "us",
               "sim_throughput_mb_s": "MB/s", "sim_capacity_ops_s": "1/s"}


def _module(workload: str):
    from perfbench import fabric, orfa_openloop, orfs_read

    return {"orfs_read": orfs_read, "orfa_openloop": orfa_openloop,
            "fabric_permutation": fabric}[workload]


def family(snapshot: dict, name: str, **labels) -> int:
    """Sum of the counters ``name{...}`` whose labels include ``labels``."""
    want = {f"{k}={v}" for k, v in labels.items()}
    total = 0
    for key, value in snapshot["counters"].items():
        base, _, rest = key.partition("{")
        if base == name and want <= set(rest.rstrip("}").split(",")):
            total += value
    return total


def passes(workload: str, seconds: float) -> int:
    """Passes per run: a function of the arguments only, so that each
    lap's fastest pass is always the fastest of the same number."""
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def end_to_end(records, scale: float) -> dict:
    """The end-to-end metrics from the untraced pass records; host times
    are multiplied by ``scale``, how much faster the reference machine is
    than this one was during the run (see :func:`run`)."""
    from perfbench.common import envelope, metric

    checked = sum(r["checked"] for r in records)
    bad = sum(r["bad"] for r in records)
    out = {
        "setup_s": metric(
            statistics.median(r["setup_s"] for r in records) * scale, "s"),
        "host_wall_s": metric(
            envelope([r["laps"] for r in records]) * scale, "s"),
        "peak_rss_mib": metric(
            statistics.median(r["rss_mib"] for r in records), "MiB"),
        "ok_ratio": metric((checked - bad) / checked if checked else 0.0,
                           "ratio"),
    }
    for name, unit in SIM_METRICS.items():
        out[name] = metric(records[0]["sim"][name], unit)
    return out


#: Functions whose inclusive host time the traced pass keeps.
TIMED = ("repro.hw.flow.FlowNetwork.carry",)


def per_layer(workload: str, traced, tracer, snapshot) -> dict:
    """Every per-layer metric the traced pass gives, zero where the
    workload skips the layer.  The two that compare with the untraced
    passes are added by :func:`per_layer_metrics`."""
    from perfbench import fabric
    from perfbench.common import metric, percentile

    ex = traced.extra

    def c(name, **labels):
        return family(snapshot, name, **labels)

    flow_err = [0.0]
    if workload == "fabric_permutation":
        ref = fabric.load_reference(ex["shift"])
        flow_err = fabric.flow_error_us(traced.sim["done_ns"], ref)
    queue = service = [0]
    lags = [0]
    if workload == "orfa_openloop":
        nominal = ex["nominal"]
        queue = [t.queue_ns for t in nominal.timed]
        service = [t.service_ns for t in nominal.timed]
        lags = nominal.lags
    hits, misses = c("gmkrc.hits"), c("gmkrc.misses")
    builders = sum(v for k, v in tracer.inclusive_ns.items()
                   if k.startswith("repro.cluster."))
    values = {
        "sim.events": (traced.events, "count"),
        "sim.resource_requests": (tracer.resource_grants(), "count"),
        "sim.resource_wait_us": (tracer.resource_wait_ns / 1e3, "us"),
        "hw.nic.tx_messages": (c("nic.tx.messages"), "count"),
        "hw.nic.tx_bytes": (c("nic.tx.bytes"), "bytes"),
        "hw.nic.retransmits": (c("nic.tx.retransmits"), "count"),
        "hw.wire.trains": (c("net.trains"), "count"),
        "hw.wire.switch_forwards": (c("switch.forwards"), "count"),
        "hw.wire.link_busy_us": (c("link.busy_ns") / 1e3, "us"),
        "hw.flow.flows": (c("net.flows"), "count"),
        "hw.flow.flushes": (c("net.flow_flush"), "count"),
        "hw.flow.recomputes": (c("net.flow_recompute"), "count"),
        "hw.flow.waterfill_flows_touched": (
            c("net.flow_waterfill_flows", scope="touched"), "count"),
        "hw.flow.decoalesces": (c("net.flow_decoalesce"), "count"),
        "hw.flow.carry_s": (
            tracer.inclusive_ns.get(TIMED[0], 0) / 1e9, "s"),
        "hw.flow.error_p50_us": (percentile(flow_err, 0.50), "us"),
        "hw.flow.error_p99_us": (percentile(flow_err, 0.99), "us"),
        "hw.cpu.client_busy_us": (ex["cpu_busy_ns"] / 1e3, "us"),
        "hw.cpu.server_busy_us": (ex["server_busy_ns"] / 1e3, "us"),
        "hw.cpu.client_us_per_op": (traced.sim["cpu_us_per_op"], "us"),
        "mem.host_copies": (ex["host_copies"], "count"),
        "mem.host_copy_bytes": (ex["host_copy_bytes"], "bytes"),
        "mem.frame_allocs": (tracer.frame_allocs, "count"),
        "nicfw.lookups": (ex["nicfw_lookups"], "count"),
        "nicfw.installs": (ex["nicfw_installs"], "count"),
        "gm.registrations": (c("gm.registrations"), "count"),
        "gm.deregistrations": (c("gm.deregistrations"), "count"),
        "gm.sends": (c("gm.sends"), "count"),
        "gmkrc.hits": (hits, "count"),
        "gmkrc.misses": (misses, "count"),
        "gmkrc.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                            "ratio"),
        "mx.sends": (c("mx.sends"), "count"),
        "core.calls": (sum(v for k, v in tracer.calls.items()
                           if k.startswith("repro.core.")), "count"),
        "kernel.vfs_reads": (tracer.count("repro.kernel.vfs.Vfs.read"),
                             "count"),
        "kernel.pagecache_misses": (c("pagecache.misses"), "count"),
        "kernel.pagecache_fills": (
            tracer.count("repro.kernel.pagecache.PageCache.add"), "count"),
        "orfs.wire_requests": (
            tracer.count("repro.orfs.client.OrfsClient._rpc"), "count"),
        "orfa.requests": (c("orfa.requests"), "count"),
        "orfa.server_ops": (c("orfa.server.ops"), "count"),
        "orfa.service_p99_us": (percentile(service, 0.99) / 1e3, "us"),
        "load.queue_wait_p99_us": (percentile(queue, 0.99) / 1e3, "us"),
        "load.late_releases": (sum(1 for lag in lags if lag > 0), "count"),
        "load.max_release_lag_us": (max(lags) / 1e3, "us"),
        "load.failures": (ex.get("failures", 0), "count"),
        "cluster.build_s": (builders / 1e9, "s"),
    }
    for layer in ("sim", "hw.nic", "hw.wire", "hw.flow", "mem", "gm",
                  "gmkrc", "mx", "core", "kernel", "orfs", "orfa", "load",
                  "cluster"):
        values[f"{layer}.self_s"] = (tracer.self_s(layer), "s")
    return {k: metric(v, unit) for k, (v, unit) in values.items()}


def per_layer_metrics(records, traced, calibration: float) -> dict:
    """The traced record's metrics plus those relative to the untraced
    passes: host time per event (``host_wall_s`` over ``sim.events``),
    the one traced pass over the median untraced one, and the run's
    fastest ``calibration`` loop."""
    from perfbench.common import envelope, metric

    walls = [r["wall_s"] for r in records]
    scale = REF_CALIBRATION_S / calibration
    out = dict(traced["layers"])
    out["sim.host_ns_per_event"] = metric(
        envelope([r["laps"] for r in records]) * scale * 1e9
        / traced["events"], "ns")
    out["host.calibration_s"] = metric(calibration, "s")
    out["obs.overhead_ratio"] = metric(
        traced["wall_s"] / statistics.median(walls), "ratio")
    return out


def pass_record(workload: str, seed: int, trace: bool) -> dict:
    """One pass in this process, as the JSON record a child prints."""
    from repro import obs

    from perfbench.common import calibration_s, peak_rss_mib
    from perfbench.tracer import Tracer

    mod = _module(workload)
    layers = cal = None
    if trace:
        tracer = Tracer()
        registry = obs.MetricsRegistry()
        with tracer.installed(timed=TIMED):
            res = mod.one_pass(seed, registry=registry, check=False)
        layers = per_layer(workload, res, tracer, registry.snapshot())
        for name, ns in sorted(tracer.self_ns.items(), key=lambda kv: -kv[1]):
            print(f"  self {name:10s} {ns / 1e9:8.3f} s", file=sys.stderr)
    else:
        before = min(calibration_s() for _ in range(CALIBRATIONS))
        res = mod.one_pass(seed)
        cal = min(before, *(calibration_s() for _ in range(CALIBRATIONS)))
    canonical = json.dumps(res.sim, sort_keys=True).encode()
    return {
        "setup_s": res.setup_s,
        "wall_s": res.wall_s,
        "laps": res.laps,
        "events": res.events,
        "checked": res.checked,
        "bad": res.bad,
        "rss_mib": peak_rss_mib(),
        "sim": {k: res.sim[k] for k in SIM_METRICS},
        "sim_sha256": hashlib.sha256(canonical).hexdigest(),
        "layers": layers,
        "calibration_s": cal,
    }


def _child(workload: str, seed: int, trace: bool) -> dict:
    """Run :func:`pass_record` in a fresh process and wait for it."""
    cmd = [sys.executable, __file__, "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(int(trace)),
           "--one-pass"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=PASS_TIMEOUT_S, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """The passes, then the metrics.

    A shared machine's speed swings by tens of percent within seconds
    and between minutes.  Each untraced pass times the calibration loop
    just before and after itself, in its own process, and the run is
    pinned to one CPU, because the CPUs of a shared virtual machine slow
    down independently of each other.  The fastest calibration of a run
    is the machine's undisturbed speed during it; host times are scaled
    by ``REF_CALIBRATION_S`` over it, to what they would be on the
    reference machine.  Within a run, the slow episodes are left out
    lap by lap: the measured phase's host time is the sum over its laps
    of the fastest pass's time for each (:func:`perfbench.common.envelope`).
    """
    from perfbench.common import envelope

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    records = [_child(workload, seed, False)
               for _ in range(passes(workload, seconds))]
    cal = min(r["calibration_s"] for r in records)
    digests = {r["sim_sha256"] for r in records}
    problems = ["passes disagree on simulated results"] if len(digests) > 1 else []
    if len({len(r["laps"]) for r in records}) > 1:
        raise SystemExit("perfbench: passes disagree on their laps")
    attempted = sum(r["checked"] for r in records)
    failed = sum(r["bad"] for r in records)
    if not trace:
        metrics = end_to_end(records, REF_CALIBRATION_S / cal)
    else:
        traced = _child(workload, seed, True)
        if traced["sim_sha256"] not in digests:
            problems.append("tracing changed the simulated results")
        metrics = per_layer_metrics(records, traced, cal)
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)
    print(f"{workload} seed={seed}: {len(records)} passes, "
          f"{attempted} ops checked, {failed} failed; fastest pass "
          f"{min(r['wall_s'] for r in records):.4f} s, fastest laps "
          f"{envelope([r['laps'] for r in records]):.4f} s, median set-up "
          f"{statistics.median(r['setup_s'] for r in records):.4f} s, "
          f"calibration {cal:.4f} s", file=sys.stderr)
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--one-pass", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _use_program()
    if args.one_pass:
        print(json.dumps(pass_record(args.workload, args.seed,
                                     bool(args.trace))))
        # Skip tearing down the simulated system's heap (a second or
        # more for the fabric): nothing is left to release but memory.
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(0)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
