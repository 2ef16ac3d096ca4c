"""Fabric benchmark: hybrid flow fidelity on fat-tree topologies.

``python -m repro.bench topo`` runs all-hosts transfer patterns over a
k-ary fat-tree (:func:`repro.cluster.topo.fat_tree`) in each of the
engine's three fidelity modes — ``packet`` (coalescing off), ``train``
(packet-train wire fast path) and ``flow`` (analytic steady-state flow
reservations, :mod:`repro.hw.flow`) — and compares engine event counts
and completion times.

Two scenarios:

* ``identity`` — same-edge pairwise exchange: host ``i`` swaps
  ``size`` bytes with host ``i ^ 1`` under the same edge switch.  Every
  link direction carries exactly one transfer, so flows stay pristine
  and the analytic model is *exactly* equivalent: completion tables and
  the (train/flow-filtered) metrics snapshot must be byte-identical
  across all three modes.  ``--verify`` enforces that; the CI
  ``topo-smoke`` job runs it on every push.

* ``congested`` — cross-pod shift permutation: host ``i`` sends to
  ``(i + hosts_per_pod) mod n``, pushing every transfer through the
  core over ECMP-shared trunks.  Here max-min fair sharing approximates
  FIFO packet interleaving, so completion times may deviate slightly
  (documented in DESIGN.md §6); the gate is the *event* count — the
  flow path must process at least ``--gate``× fewer engine events than
  packet fidelity (CI requires 10×).

``--full`` switches from the default k=8 (128 hosts) to k=16
(1024 hosts) — interactive (~6 s in flow mode) since the incremental
component-local water-fill; BENCH_engine.json's ``topo_full`` section
records it.  ``--waterfill-gate FACTOR`` holds the component-local
allocator to FACTOR× fewer flows re-divided than the from-scratch
global algorithm (``net.flow_waterfill_flows{scope=touched vs
global}``) on the congested permutation.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional

from .. import obs
from ..cluster.topo import fat_tree
from ..mem import sglist
from ..hw import flow as flowmod
from ..hw import train
from ..hw.params import host_params
from ..sim import Environment
from ..units import KiB, MiB
from .netpipe import prepare_pair
from .transports import MxTransport

MODES = ("packet", "train", "flow")

#: Metric families describing an *optimization* rather than the model;
#: the only ones allowed to differ between fidelity modes.
_MODE_PRIVATE = ("net.train", "net.flow")


def pairs_for(scenario: str, k: int, n: int) -> list:
    """(src, dst) transfer list for a scenario on an n-host k-ary tree."""
    if scenario == "identity":
        # Same-edge exchange needs an even host count per edge switch.
        if (k // 2) % 2:
            raise ValueError(
                f"identity scenario needs k/2 even (k/2 hosts per edge "
                f"switch, paired two by two), got k={k}")
        return [(i, i ^ 1) for i in range(n)]
    if scenario == "congested":
        per_pod = (k // 2) * (k // 2)
        return [(i, (i + per_pod) % n) for i in range(n)]
    raise ValueError(f"unknown scenario {scenario!r}")


def filtered_obs(snapshot: dict) -> dict:
    """Snapshot minus the train/flow-only families (mode-private)."""
    out = {}
    for section in ("counters", "gauges", "histograms"):
        out[section] = {
            k: v for k, v in snapshot[section].items()
            if not k.startswith(_MODE_PRIVATE)
        }
    return out


def flow_work_stats(snapshot: dict) -> dict:
    """Water-fill work accounting from a raw metrics snapshot.

    ``touched`` sums flows actually re-divided by the component-local
    engine; ``global_equiv`` is what the from-scratch global algorithm
    would have re-divided (all live flows, every flush).  Their ratio
    is the work reduction the ``--waterfill-gate`` CI floor holds.
    """

    def family(name: str, **labels) -> int:
        want = set(labels.items())
        total = 0
        for key, value in snapshot["counters"].items():
            base, _, rest = key.partition("{")
            if base != name:
                continue
            got = set()
            for part in rest.rstrip("}").split(","):
                if "=" in part:
                    lk, _, lv = part.partition("=")
                    got.add((lk.strip(), lv.strip()))
            if want <= got:
                total += value
        return total

    touched = family("net.flow_waterfill_flows", scope="touched")
    global_equiv = family("net.flow_waterfill_flows", scope="global")
    return {
        "flushes": family("net.flow_flush"),
        "recomputes": family("net.flow_recompute"),
        "touched": touched,
        "global_equiv": global_equiv,
        "work_reduction": (global_equiv / touched) if touched else None,
    }


def run_topo(k: int, scenario: str, mode: str, size: int = 256 * KiB) -> dict:
    """One fat-tree scenario in one fidelity mode.

    Returns the final clock, engine event count, a deterministic
    per-transfer completion table (list of ``(src, dst, done_ns)``) and
    the mode-filtered metrics snapshot.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    flowmod.set_flow_mode(mode == "flow")
    train.set_coalescing(mode != "packet")
    # The host-copy accumulator is process-global; reset it so the
    # mem.host_copies collector reports this run, not the session.
    sglist.HOST_COPIES.reset()
    registry = obs.MetricsRegistry()
    try:
        with obs.installed_registry(registry):
            env = Environment()
            # Transfers never touch more than a few MiB of frames; a
            # small pool keeps the 1024-host build cheap.
            fabric = fat_tree(env, k, host=host_params(memory_frames=2048))
            n = len(fabric.nodes)
            pairs = pairs_for(scenario, k, n)
            senders = {}
            receivers = {}
            for src, dst in pairs:
                senders[(src, dst)] = MxTransport(
                    fabric.nodes[src], 1, peer_node=dst, peer_ep=2,
                    context="kernel")
                receivers[(src, dst)] = MxTransport(
                    fabric.nodes[dst], 2, peer_node=src, peer_ep=1,
                    context="kernel")
            for p in pairs:
                prepare_pair(env, senders[p], receivers[p], size)
            done = {}

            def tx(t):
                yield from t.send(size)

            def rx(p, t):
                yield from t.recv(size)
                done[p] = env.now

            t0 = time.perf_counter()
            ev0 = env.events_processed
            for p in pairs:
                env.process(tx(senders[p]))
                env.process(rx(p, receivers[p]))
            env.run()
            wall = time.perf_counter() - t0
            table = [(src, dst, done[(src, dst)]) for src, dst in pairs]
            payload_mib = len(pairs) * size / MiB
            raw = registry.snapshot()
            return {
                "mode": mode,
                "k": k,
                "hosts": n,
                "scenario": scenario,
                "size": size,
                "now": env.now,
                "events": env.events_processed - ev0,
                "events_per_mib": (env.events_processed - ev0) / payload_mib,
                "wall_s": wall,
                "completions": table,
                "flow_stats": flow_work_stats(raw),
                "obs": filtered_obs(raw),
            }
    finally:
        flowmod.set_flow_mode(True)
        train.set_coalescing(True)


def completion_table(result: dict) -> str:
    """Render the per-transfer completion times (diffable across modes)."""
    lines = [f"{src:>5d} -> {dst:>5d}  {t:>14d} ns"
             for src, dst, t in result["completions"]]
    return "\n".join(lines)


def run_scenario(k: int, scenario: str, size: int,
                 modes=MODES) -> dict:
    """All requested modes on one scenario, plus cross-mode digests."""
    results = {mode: run_topo(k, scenario, mode, size) for mode in modes}
    out: dict = {"scenario": scenario, "results": results}
    if "packet" in results and "flow" in results:
        out["event_reduction"] = (results["packet"]["events"]
                                  / results["flow"]["events"])
    ref = results[modes[0]]
    out["completions_identical"] = all(
        r["completions"] == ref["completions"] for r in results.values())
    out["obs_identical"] = all(
        r["obs"] == ref["obs"] for r in results.values())
    return out


# ---------------------------------------------------------------------------
# perf-harness section (BENCH_engine.json)
# ---------------------------------------------------------------------------


def bench_topo(quick: bool = False) -> dict:
    """``topo`` section of the perf report.

    Event counts are deterministic, so CI gates directly on
    ``event_reduction`` (>= 10x on the congested permutation) and on the
    identity scenario's byte-identical completion tables and metric
    snapshots.  ``quick`` drops to k=4 (16 hosts) for the smoke run.
    """
    k = 4 if quick else 8
    size = 64 * KiB if quick else 256 * KiB
    congested = run_scenario(k, "congested", size)
    identity = run_scenario(k, "identity", size)

    def digest(sc: dict) -> dict:
        return {
            "events": {m: r["events"] for m, r in sc["results"].items()},
            "events_per_mib": {m: round(r["events_per_mib"], 1)
                               for m, r in sc["results"].items()},
            "now_ns": {m: r["now"] for m, r in sc["results"].items()},
            "wall_s": {m: r["wall_s"] for m, r in sc["results"].items()},
            "event_reduction": sc["event_reduction"],
            "completions_identical": sc["completions_identical"],
            "obs_identical": sc["obs_identical"],
            "flow_stats": sc["results"]["flow"]["flow_stats"],
        }

    return {
        "k": k,
        "hosts": k ** 3 // 4,
        "size": size,
        "congested": digest(congested),
        "identity": digest(identity),
        "summary": {
            "event_reduction": congested["event_reduction"],
            "events_per_mib_flow":
                congested["results"]["flow"]["events_per_mib"],
            "identity_completions_identical":
                identity["completions_identical"],
            "identity_obs_identical": identity["obs_identical"],
            "waterfill_reduction":
                congested["results"]["flow"]["flow_stats"]["work_reduction"],
        },
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench topo",
        description="Fat-tree fabric: packet vs train vs flow fidelity",
    )
    parser.add_argument("-k", type=int, default=8,
                        help="fat-tree arity (k^3/4 hosts; default 8)")
    parser.add_argument("--full", action="store_true",
                        help="k=16: the 1024-host configuration (slow; "
                             "several minutes)")
    parser.add_argument("--size", type=int, default=256 * KiB,
                        help="bytes per transfer (default 256 KiB)")
    parser.add_argument("--scenario", choices=("identity", "congested",
                                               "both"),
                        default="both")
    parser.add_argument("--modes", default="packet,train,flow",
                        help="comma-separated subset of packet,train,flow")
    parser.add_argument("--verify", action="store_true",
                        help="fail unless the identity scenario's "
                             "completion tables and filtered metric "
                             "snapshots are byte-identical across modes")
    parser.add_argument("--gate", type=float, default=0.0, metavar="FACTOR",
                        help="fail unless flow processes FACTOR x fewer "
                             "events than packet on the congested scenario")
    parser.add_argument("--waterfill-gate", type=float, default=0.0,
                        metavar="FACTOR",
                        help="fail unless the component-local water-fill "
                             "re-divides FACTOR x fewer flows than the "
                             "global algorithm would (congested scenario, "
                             "flow mode)")
    parser.add_argument("--table", action="store_true",
                        help="print the per-transfer completion table for "
                             "each mode (diffable)")
    args = parser.parse_args(argv)
    if args.full:
        args.k = 16
    modes = tuple(m.strip() for m in args.modes.split(",") if m.strip())
    for m in modes:
        if m not in MODES:
            print(f"unknown mode {m!r}", file=sys.stderr)
            return 2
    if args.gate and not {"packet", "flow"} <= set(modes):
        print("--gate needs both packet and flow modes", file=sys.stderr)
        return 2
    if args.waterfill_gate and "flow" not in modes:
        print("--waterfill-gate needs flow mode", file=sys.stderr)
        return 2
    scenarios = (("identity", "congested") if args.scenario == "both"
                 else (args.scenario,))
    status = 0
    for scenario in scenarios:
        sc = run_scenario(args.k, scenario, args.size, modes)
        hosts = args.k ** 3 // 4
        print(f"[topo] fat-tree k={args.k} ({hosts} hosts) "
              f"scenario={scenario} size={args.size}")
        print(f"  {'mode':8s} {'final_ns':>14s} {'events':>12s} "
              f"{'ev/MiB':>10s} {'wall_s':>8s}")
        for mode in modes:
            r = sc["results"][mode]
            print(f"  {mode:8s} {r['now']:>14d} {r['events']:>12d} "
                  f"{r['events_per_mib']:>10.0f} {r['wall_s']:>8.2f}")
        if "event_reduction" in sc:
            print(f"  flow vs packet: {sc['event_reduction']:.1f}x fewer "
                  "engine events")
        if args.table:
            for mode in modes:
                print(f"  --- completions [{mode}] ---")
                print(completion_table(sc["results"][mode]))
        if scenario == "identity" and args.verify:
            ok = sc["completions_identical"] and sc["obs_identical"]
            print(f"  [verify] completions identical: "
                  f"{sc['completions_identical']}, metrics identical: "
                  f"{sc['obs_identical']}")
            if not ok:
                status = 1
        if scenario == "congested" and args.gate:
            ok = sc["event_reduction"] >= args.gate
            print(f"  [gate] event reduction {sc['event_reduction']:.1f}x "
                  f">= {args.gate:g}x: {'PASS' if ok else 'FAIL'}")
            if not ok:
                status = 1
        if scenario == "congested" and args.waterfill_gate:
            stats = sc["results"]["flow"]["flow_stats"]
            red = stats["work_reduction"] or 0.0
            ok = red >= args.waterfill_gate
            print(f"  [waterfill] {stats['recomputes']} component "
                  f"recomputes over {stats['flushes']} flushes; "
                  f"{stats['touched']} flows re-divided vs "
                  f"{stats['global_equiv']} global — {red:.1f}x >= "
                  f"{args.waterfill_gate:g}x: {'PASS' if ok else 'FAIL'}")
            if not ok:
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
