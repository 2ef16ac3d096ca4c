"""Engine/allocator self-benchmarks: track the simulator's own speed.

The paper's argument is that per-operation bookkeeping must come off the
data path; for this reproduction the "data path" is the discrete-event
engine and the physical frame allocator that every figure driver and
test exercises.  This module measures both in isolation —

* **engine**: events processed per second, split into the heap path
  (delayed timeouts) and the immediate path (delay-0 resource grants /
  Store hand-offs), via a timeout-chain workload and a Store ping-pong
  workload;
* **allocator**: single-frame alloc/free cycles per second and
  contiguous (kmalloc-style) allocations per second over a fragmented
  pool,
* **orfs_read**: engine events per 4 KiB page of a cold buffered ORFS
  read over the MX kernel channel (the Fig 7(b) path) — a deterministic
  count CI gates on, with its wall time reported beside it,

and writes the numbers to ``BENCH_engine.json`` so the performance
trajectory is visible across PRs.

Usage::

    python -m repro.bench.perf                 # full run, writes BENCH_engine.json
    python -m repro.bench.perf --quick         # CI smoke (~1 s)
    python -m repro.bench.perf --out path.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from ..mem import sglist
from ..mem.phys import PhysicalMemory
from ..sim import Environment
from ..sim.resources import Store
from ..units import PAGE_SIZE, KiB, MiB


# ---------------------------------------------------------------------------
# engine benchmarks
# ---------------------------------------------------------------------------


def bench_engine_heap(procs: int = 10, timeouts: int = 20_000) -> dict:
    """Events/sec through the heap: ``procs`` chains of delayed timeouts."""
    env = Environment()

    def chain(env, delay):
        for _ in range(timeouts):
            yield env.timeout(delay)

    for i in range(procs):
        env.process(chain(env, i + 1))
    # per process: 1 start + `timeouts` timeout events + 1 completion
    events = procs * (timeouts + 2)
    t0 = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - t0
    return {"events": events, "elapsed_s": elapsed,
            "events_per_sec": events / elapsed}


def bench_engine_immediate(pairs: int = 10, rounds: int = 10_000) -> dict:
    """Events/sec through the immediate queue: Store ping-pong pairs."""
    env = Environment()

    def pinger(env, tx, rx):
        for _ in range(rounds):
            tx.put(1)
            yield rx.get()

    def ponger(env, tx, rx):
        for _ in range(rounds):
            yield rx.get()
            tx.put(1)

    for _ in range(pairs):
        a2b = Store(env, "a2b")
        b2a = Store(env, "b2a")
        env.process(pinger(env, a2b, b2a))
        env.process(ponger(env, b2a, a2b))
    # per pair per round: 2 get events (puts complete them inline);
    # plus 2 starts and 2 completions per pair
    events = pairs * (2 * rounds + 4)
    t0 = time.perf_counter()
    env.run()
    elapsed = time.perf_counter() - t0
    return {"events": events, "elapsed_s": elapsed,
            "events_per_sec": events / elapsed}


# ---------------------------------------------------------------------------
# allocator benchmarks
# ---------------------------------------------------------------------------


def bench_alloc_single(frames: int = 4096, cycles: int = 20) -> dict:
    """Single-frame ops/sec: fill the pool, drain it, repeat."""
    phys = PhysicalMemory(frames)
    ops = 0
    t0 = time.perf_counter()
    for _ in range(cycles):
        allocated = [phys.alloc() for _ in range(frames)]
        for frame in allocated:
            phys.free(frame)
        ops += 2 * frames
    elapsed = time.perf_counter() - t0
    return {"ops": ops, "elapsed_s": elapsed, "ops_per_sec": ops / elapsed}


def bench_alloc_contiguous(frames: int = 4096, run_len: int = 8,
                           cycles: int = 200) -> dict:
    """Contiguous ops/sec over a fragmented pool (worst case for kmalloc).

    Fragments the pool by pinning every 16th frame, then repeatedly
    allocates and frees ``run_len``-frame runs from the holes between.
    """
    phys = PhysicalMemory(frames)
    step = 16
    holders = [phys.alloc() for _ in range(frames)]
    kept_pfns = {frame.pfn for frame in holders[::step]}
    for frame in holders:
        if frame.pfn not in kept_pfns:
            phys.free(frame)
    # free pool is now many short runs of (step-1) frames between pins
    ops = 0
    t0 = time.perf_counter()
    for _ in range(cycles):
        taken = [phys.alloc_contiguous(run_len)
                 for _ in range(frames // step // 2)]
        for run in taken:
            for frame in run:
                phys.free(frame)
        ops += 2 * len(taken)
    elapsed = time.perf_counter() - t0
    return {"ops": ops, "elapsed_s": elapsed, "ops_per_sec": ops / elapsed,
            "run_len": run_len, "free_runs": len(phys.free_runs())}


# ---------------------------------------------------------------------------
# data-path throughput / host-copy accounting
# ---------------------------------------------------------------------------

def bench_data_path(quick: bool = False) -> dict:
    """Host-copy counts and simulator MB/s through the real data paths.

    Runs a NetPIPE-style ping-pong over the GM-kernel-physical, MX-kernel
    and MX-kernel-with-copy-removal paths.  Payloads flow as
    :class:`repro.mem.PayloadRef` chunk views end-to-end, so the only
    real host copy is the final deposit into the receiver's pages.
    ``HOST_COPIES`` counting is deterministic, so CI pins a per-byte
    budget on it; MB/s is reported for the trajectory.
    """
    from ..cluster.node import node_pair
    from .netpipe import ping_pong, prepare_pair
    from .transports import GmKernelTransport, MxTransport

    sizes = [4 * KiB, 64 * KiB] if quick else [4 * KiB, 32 * KiB, 256 * KiB, MiB]
    rounds = 3 if quick else 10
    # Timing is noisy on shared machines; take the min over the
    # repetitions (the timeit estimator).  CPU time is the stable
    # measure for a pure-compute simulator; wall time is reported too.
    # Copy counts are deterministic and identical across reps.
    reps = 1 if quick else 5

    def gm_kernel_physical(env):
        a, b = node_pair(env)
        return (GmKernelTransport(a, 2, 1, 2, addressing="physical"),
                GmKernelTransport(b, 2, 0, 2, addressing="physical"))

    def mx_kernel(env):
        a, b = node_pair(env)
        return (MxTransport(a, 2, 1, 2, context="kernel"),
                MxTransport(b, 2, 0, 2, context="kernel"))

    def mx_kernel_zero_copy(env):
        a, b = node_pair(env)
        kw = dict(context="kernel", physical=True,
                  no_send_copy=True, no_recv_copy=True)
        return (MxTransport(a, 2, 1, 2, **kw),
                MxTransport(b, 2, 0, 2, **kw))

    paths = {
        "gm_kernel_physical": gm_kernel_physical,
        "mx_kernel": mx_kernel,
        "mx_kernel_zero_copy": mx_kernel_zero_copy,
    }
    report: dict = {"sizes": sizes, "rounds": rounds, "paths": {}}
    try:
        for name, build in paths.items():
            entries = []
            for size in sizes:
                payload_bytes = 2 * size * rounds  # both directions
                walls, cpus = [], []
                for _ in range(reps):
                    env = Environment()
                    a, b = build(env)
                    prepare_pair(env, a, b, size)
                    sglist.HOST_COPIES.reset()
                    w0 = time.perf_counter()
                    c0 = time.process_time()
                    result = ping_pong(env, a, b, size,
                                       rounds=rounds, warmup=0)
                    cpus.append(time.process_time() - c0)
                    walls.append(time.perf_counter() - w0)
                    snap = sglist.HOST_COPIES.snapshot()
                entries.append({
                    "size": size,
                    "host_copies": snap["copies"],
                    "host_copy_bytes": snap["nbytes"],
                    "copy_per_byte": snap["nbytes"] / payload_bytes,
                    "wall_s": min(walls),
                    "cpu_s": min(cpus),
                    "mb_per_s": payload_bytes / min(walls) / 1e6,
                    "one_way_us": result.one_way_us,
                })
            report["paths"][name] = {
                "entries": entries,
                "summary": {
                    "zero_copy_bytes": sum(e["host_copy_bytes"]
                                           for e in entries),
                    "max_copy_per_byte": max(e["copy_per_byte"]
                                             for e in entries),
                },
            }
    finally:
        sglist.HOST_COPIES.reset()
    return report


def bench_packet_train(quick: bool = False) -> dict:
    """Event-count A/B of the packet-train analytic wire fast path.

    Runs the same large-transfer ping-pong with coalescing forced off
    (``per_packet``) and on (``train``).  The event counts come from
    ``Environment.events_processed`` and are fully deterministic, so CI
    gates on them directly: the reduction factor proves the fast path
    engages, the events-per-MB budget catches per-packet work creeping
    back into the data path.  Simulated time must be identical in both
    modes — the trains are an optimization, not a model change.
    """
    from ..cluster.node import node_pair
    from ..hw import train
    from .netpipe import ping_pong, prepare_pair
    from .transports import GmKernelTransport

    sizes = [256 * KiB] if quick else [256 * KiB, MiB]
    rounds = 2 if quick else 5
    reps = 1 if quick else 3
    modes = ("per_packet", "train")
    entries: list[dict] = []
    try:
        for size in sizes:
            payload_mb = 2 * size * rounds / MiB  # both directions
            events = {}
            wall = {m: None for m in modes}
            cpu_s = {m: None for m in modes}
            result = {}
            for _ in range(reps):
                for mode in modes:
                    train.set_coalescing(mode == "train")
                    env = Environment()
                    a, b = node_pair(env)
                    ta = GmKernelTransport(a, 2, 1, 2, addressing="physical")
                    tb = GmKernelTransport(b, 2, 0, 2, addressing="physical")
                    prepare_pair(env, ta, tb, size)
                    base = env.events_processed
                    w0 = time.perf_counter()
                    c0 = time.process_time()
                    result[mode] = ping_pong(env, ta, tb, size,
                                             rounds=rounds, warmup=0)
                    rep_cpu = time.process_time() - c0
                    rep_wall = time.perf_counter() - w0
                    # Deterministic: identical on every repetition.
                    events[mode] = env.events_processed - base
                    if wall[mode] is None or rep_wall < wall[mode]:
                        wall[mode] = rep_wall
                    if cpu_s[mode] is None or rep_cpu < cpu_s[mode]:
                        cpu_s[mode] = rep_cpu
            entries.append({
                "size": size,
                "rounds": rounds,
                "events": dict(events),
                "event_reduction": events["per_packet"] / events["train"],
                "events_per_mb": {m: events[m] / payload_mb for m in modes},
                "wall_s": dict(wall),
                "cpu_s": dict(cpu_s),
                "one_way_us": result["train"].one_way_us,
                "sim_time_identical": (result["per_packet"].one_way_us
                                       == result["train"].one_way_us),
            })
    finally:
        train.set_coalescing(True)
    return {
        "sizes": sizes,
        "rounds": rounds,
        "entries": entries,
        "summary": {
            "event_reduction_min": min(e["event_reduction"] for e in entries),
            "events_per_mb_train_max": max(e["events_per_mb"]["train"]
                                           for e in entries),
            "sim_time_identical": all(e["sim_time_identical"]
                                      for e in entries),
        },
    }


# ---------------------------------------------------------------------------
# the Fig 7(b) read path
# ---------------------------------------------------------------------------


def bench_orfs_read(quick: bool = False) -> dict:
    """Engine events per page of a cold buffered ORFS-over-MX read.

    One 1 MiB file read sequentially in 64 KiB requests through the
    in-kernel ORFS client, the MX kernel channel and the ORFA server
    (the page cache starts cold, so every page crosses the wire).  The
    event count is deterministic: CI gates ``events_per_page`` so that
    per-page bookkeeping cannot creep back onto the path.  Wall and CPU
    time (min over repetitions) are reported, never gated.
    """
    from .fileio import build_orfs, orfs_sequential_read

    file_bytes = MiB
    request = 64 * KiB
    reps = 1 if quick else 5
    walls, cpus = [], []
    for _ in range(reps):
        rig = build_orfs("mx", file_size=file_bytes)
        base = rig.env.events_processed
        w0 = time.perf_counter()
        c0 = time.process_time()
        result = orfs_sequential_read(rig, request, total_bytes=file_bytes)
        cpus.append(time.process_time() - c0)
        walls.append(time.perf_counter() - w0)
        events = rig.env.events_processed - base  # same on every rep
    pages = file_bytes // PAGE_SIZE
    return {
        "file_bytes": file_bytes,
        "request_size": request,
        "pages": pages,
        "events": events,
        "events_per_page": events / pages,
        "sim_elapsed_ns": result.elapsed_ns,
        "wall_s": min(walls),
        "cpu_s": min(cpus),
    }


# ---------------------------------------------------------------------------
# fabric / hybrid fidelity
# ---------------------------------------------------------------------------


def _bench_topo(quick: bool = False) -> dict:
    """``topo`` section: fat-tree flow-fidelity A/B (repro.bench.topo).

    Deterministic event counts again, so CI gates directly: >= 10x
    fewer engine events on the congested cross-pod permutation, and
    byte-identical completion tables plus metric snapshots on the
    uncontended same-edge exchange (the regime where the analytic flow
    model is exact).
    """
    from .topo import bench_topo

    return bench_topo(quick=quick)


def _bench_topo_full(quick: bool = False) -> dict:
    """``topo_full`` section: the 1024-host interactive-scale run.

    k=16 (1024 hosts, 1280 switches) congested cross-pod permutation in
    flow mode — the workload the incremental component-local water-fill
    exists for.  Skipped in ``--quick`` (schema stays stable; the
    section records ``skipped: true``) because even at ~6 s it dwarfs
    the CI smoke budget.
    """
    if quick:
        return {"skipped": True}
    from .topo import run_topo

    res = run_topo(16, "congested", "flow")
    return {
        "skipped": False,
        "k": res["k"],
        "hosts": res["hosts"],
        "size": res["size"],
        "now_ns": res["now"],
        "events": res["events"],
        "events_per_mib": round(res["events_per_mib"], 1),
        "wall_s": res["wall_s"],
        "flow_stats": res["flow_stats"],
    }


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def run_perf(quick: bool = False) -> dict:
    """Run all self-benchmarks; returns the report dict."""
    scale = 10 if quick else 1
    report = {
        "schema": "repro-perf/1",
        "quick": quick,
        "engine": {
            "heap": bench_engine_heap(timeouts=20_000 // scale),
            "immediate": bench_engine_immediate(rounds=10_000 // scale),
        },
        "allocator": {
            "single_frame": bench_alloc_single(cycles=20 // scale or 1),
            "contiguous": bench_alloc_contiguous(cycles=200 // scale),
        },
        "data_path": bench_data_path(quick=quick),
        "packet_train": bench_packet_train(quick=quick),
        "orfs_read": bench_orfs_read(quick=quick),
        "topo": _bench_topo(quick=quick),
        "topo_full": _bench_topo_full(quick=quick),
    }
    eng = report["engine"]
    alloc = report["allocator"]
    dp = report["data_path"]["paths"]
    pt = report["packet_train"]["summary"]
    tp = report["topo"]["summary"]
    report["summary"] = {
        "engine_events_per_sec": round(
            (eng["heap"]["events"] + eng["immediate"]["events"])
            / (eng["heap"]["elapsed_s"] + eng["immediate"]["elapsed_s"])),
        "allocator_ops_per_sec": round(
            (alloc["single_frame"]["ops"] + alloc["contiguous"]["ops"])
            / (alloc["single_frame"]["elapsed_s"]
               + alloc["contiguous"]["elapsed_s"])),
        "data_path_copy_per_byte_max": max(
            p["summary"]["max_copy_per_byte"] for p in dp.values()),
        "packet_train_event_reduction": pt["event_reduction_min"],
        "packet_train_events_per_mb": pt["events_per_mb_train_max"],
        "packet_train_sim_identical": pt["sim_time_identical"],
        "orfs_read_events_per_page": report["orfs_read"]["events_per_page"],
        "orfs_read_wall_s": report["orfs_read"]["wall_s"],
        "topo_event_reduction": tp["event_reduction"],
        "topo_events_per_mib_flow": tp["events_per_mib_flow"],
        "topo_identity_identical": (tp["identity_completions_identical"]
                                    and tp["identity_obs_identical"]),
        "topo_waterfill_reduction": tp["waterfill_reduction"],
        "topo_full_wall_s": (None if report["topo_full"]["skipped"]
                             else report["topo_full"]["wall_s"]),
    }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench-perf",
        description="Self-benchmark the event engine and frame allocator",
    )
    parser.add_argument("--quick", action="store_true",
                        help="reduced iteration counts (CI smoke, ~1 s)")
    parser.add_argument("--out", default="BENCH_engine.json", metavar="PATH",
                        help="where to write the JSON report "
                             "(default: BENCH_engine.json; '-' for stdout only)")
    args = parser.parse_args(argv)
    report = run_perf(quick=args.quick)
    text = json.dumps(report, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    summary = report["summary"]
    for line in (
        f"engine heap      : {report['engine']['heap']['events_per_sec']:>12,.0f} events/s",
        f"engine immediate : {report['engine']['immediate']['events_per_sec']:>12,.0f} events/s",
        f"alloc single     : {report['allocator']['single_frame']['ops_per_sec']:>12,.0f} ops/s",
        f"alloc contiguous : {report['allocator']['contiguous']['ops_per_sec']:>12,.0f} ops/s",
        f"data-path copies : {summary['data_path_copy_per_byte_max']:>12.2f} host bytes copied per payload byte (max)",
        f"packet trains    : {summary['packet_train_event_reduction']:>12.2f} x fewer engine events "
        f"({summary['packet_train_events_per_mb']:,.0f} events/MB)",
        f"orfs read        : {summary['orfs_read_events_per_page']:>12.2f} engine events per 4 KiB page "
        f"({summary['orfs_read_wall_s']:.3f} s wall per MiB)",
        f"fabric flows     : {summary['topo_event_reduction']:>12.2f} x fewer engine events "
        f"({summary['topo_events_per_mib_flow']:,.0f} events/MiB), "
        f"identity={summary['topo_identity_identical']}",
        f"fabric waterfill : {summary['topo_waterfill_reduction']:>12.2f} x fewer flows re-divided "
        f"(component-local vs global)"
        + (f"; 1024-host full run {summary['topo_full_wall_s']:.1f} s"
           if summary['topo_full_wall_s'] is not None else ""),
    ):
        print(line, file=sys.stderr if args.out == "-" else sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
