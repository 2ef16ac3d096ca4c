"""Workload ``fabric_permutation``: a k=16 fat tree under a shift permutation.

Every one of the 1024 hosts sends one 256 KiB message over an MX kernel
transport to the host ``shift`` places further on, all at once, at flow
fidelity, in one process.  The shift is a whole number of pods, so every
transfer crosses the core.  The seed picks one of :data:`SHIFT_PODS`;
those shifts give the same congestion (flow-mode makespans within
0.02 % of each other) with different hosts colliding.

Per-transfer completion times are compared with a stored packet-fidelity
table for the same shift (``reference/``, made by ``make_reference.py``),
whose digest is checked first.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.bench.netpipe import prepare_pair
from repro.bench.transports import MxTransport
from repro.cluster import topo
from repro.fleet.isolate import isolated_run
from repro.hw import flow as flowmod
from repro.hw import train as trainmod
from repro.hw.params import host_params
from repro.mem import sglist
from repro.sim import Environment
from repro.sim.engine import Process
from repro.units import KiB, bandwidth_mb_s

from .common import PassResult, Stopwatch, percentile

K = 16
SIZE = 256 * KiB
#: Cross-pod shifts, in pods of k*k/4 hosts, that the seed chooses from.
SHIFT_PODS = (1, 4, 5, 8, 10)
#: Bytes stamped at each end of every message to prove delivery.
STAMP = 32
#: Process resumes per lap of the measured phase (about 100k resumes,
#: 2 s of host time).
LAP_RESUMES = 16

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
MANIFEST = REFERENCE_DIR / "MANIFEST.json"


class ReferenceError(Exception):
    """The stored packet reference is missing, altered or mismatched."""


def shift_of(pods: int) -> int:
    """A shift of ``pods`` whole pods, in hosts."""
    return pods * (K // 2) ** 2


def shift_for(seed: int) -> int:
    return shift_of(SHIFT_PODS[seed % len(SHIFT_PODS)])


def reference_name(shift: int) -> str:
    return f"fabric_k{K}_shift{shift}.json"


def load_reference(shift: int) -> dict:
    """The packet-fidelity table for ``shift``, digest-checked."""
    name = reference_name(shift)
    path = REFERENCE_DIR / name
    try:
        digests = json.loads(MANIFEST.read_text())["sha256"]
        raw = path.read_bytes()
    except OSError as exc:
        raise ReferenceError(f"missing packet reference: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    if digests.get(name) != digest:
        raise ReferenceError(f"{name}: sha256 {digest} does not match "
                             f"MANIFEST.json ({digests.get(name)})")
    ref = json.loads(raw)
    scenario = (ref["k"], ref["shift"], ref["size"], ref["mode"])
    if scenario != (K, shift, SIZE, "packet"):
        raise ReferenceError(f"{name} describes another scenario")
    return ref


@dataclass
class Rig:
    """A built fabric with one prepared transport pair per transfer."""

    env: Environment
    fabric: topo.Fabric
    pairs: list
    senders: list
    receivers: list


def build(shift: int) -> Rig:
    """Set-up: fabric, transports and their buffers (the fidelity mode
    is whatever the caller has switched on)."""
    env = Environment()
    # Transfers touch a few MiB of frames at most; a small pool keeps
    # the 1024-host build cheap.
    fabric = topo.fat_tree(env, K, host=host_params(memory_frames=2048))
    n = len(fabric.nodes)
    pairs = [(i, (i + shift) % n) for i in range(n)]
    senders, receivers = [], []
    for src, dst in pairs:
        senders.append(MxTransport(fabric.nodes[src], 1, peer_node=dst,
                                   peer_ep=2, context="kernel"))
        receivers.append(MxTransport(fabric.nodes[dst], 2, peer_node=src,
                                     peer_ep=1, context="kernel"))
    for s, r in zip(senders, receivers):
        prepare_pair(env, s, r, SIZE)
    return Rig(env, fabric, pairs, senders, receivers)


def stamps(seed: int, n: int) -> list[tuple[bytes, bytes]]:
    """Seeded head and tail bytes for each of ``n`` messages."""
    rng = random.Random(f"perfbench.fabric.{seed}")
    return [(rng.randbytes(STAMP), rng.randbytes(STAMP)) for _ in range(n)]


def write_stamps(rig: Rig, marks) -> None:
    for t, (head, tail) in zip(rig.senders, marks):
        frames = t.send_ref.frames
        frames[0].write(0, head)
        frames[(SIZE - 1) // 4096].write((SIZE - STAMP) % 4096, tail)


def delivered(rig: Rig, marks, done: list) -> list[bool]:
    """Per transfer: completed, and both stamps arrived intact."""
    ok = []
    for t, (head, tail), d in zip(rig.receivers, marks, done):
        frames = t.recv_ref.frames
        ok.append(d is not None
                  and frames[0].read(0, STAMP) == head
                  and frames[(SIZE - 1) // 4096].read(
                      (SIZE - STAMP) % 4096, STAMP) == tail)
    return ok


class ResumeLaps:
    """Laps inside simulated instants.  All 1024 transfers start at one
    instant and their flows arrive at another, so single instants hold
    up to half a second of host time; while installed, every
    :data:`LAP_RESUMES`-th resume of a simulated process ends a lap of
    :attr:`clock`.  Install it before the build, because each process
    keeps the resume method it was created with."""

    def __init__(self):
        self.clock: Stopwatch | None = None
        self._left = LAP_RESUMES

    @contextmanager
    def installed(self):
        inner = getattr(Process, "_resume", None)
        if inner is None:  # another engine: laps end where instants do
            yield self
            return

        def _resume(proc, event):
            if self.clock is not None:
                self._left -= 1
                if not self._left:
                    self._left = LAP_RESUMES
                    self.clock.lap()
            inner(proc, event)

        Process._resume = _resume
        try:
            yield self
        finally:
            Process._resume = inner


def transfer(rig: Rig, clock: Stopwatch) -> tuple[int, list]:
    """The measured phase: all transfers at once.  Returns the start
    time and each transfer's completion time relative to it (``None``
    if it never completed)."""
    env = rig.env
    n = len(rig.pairs)
    done = [None] * n

    def tx(t):
        yield from t.send(SIZE)

    def rx(i, t):
        yield from t.recv(SIZE)
        done[i] = env.now - t0

    t0 = env.now
    for i in range(n):
        env.process(tx(rig.senders[i]))
        env.process(rx(i, rig.receivers[i]))
    env.run()
    clock.stop()
    return t0, done


def flow_error_us(done: list, ref: dict) -> list[float]:
    """Per-transfer |flow - packet| completion error, in microseconds."""
    return [abs(d - r) / 1e3 for d, r in zip(done, ref["done_ns"])]


def one_pass(seed: int, shift: int | None = None, registry=None,
             check: bool = True, mode: str = "flow") -> PassResult:
    """One fresh-process-equivalent run: cold route cache, isolated ids.
    ``shift`` defaults to the seed's choice."""
    if shift is None:
        shift = shift_for(seed)
    marks = stamps(seed, K ** 3 // 4)
    with isolated_run(observe=registry is not None, registry=registry), \
            ResumeLaps().installed() as laps:
        flowmod.set_flow_mode(mode == "flow")
        trainmod.set_coalescing(mode != "packet")
        topo.clear_route_cache()
        t0 = time.perf_counter()
        rig = build(shift)
        setup_s = time.perf_counter() - t0
        if check:
            write_stamps(rig, marks)
        cpu0 = sum(nd.cpu.resource.busy_time for nd in rig.fabric.nodes)
        ev0 = rig.env.events_processed
        clock = laps.clock = Stopwatch()
        start_ns, done = transfer(rig, clock)
        laps.clock = None
        events = rig.env.events_processed - ev0
        cpu_ns = sum(nd.cpu.resource.busy_time for nd in rig.fabric.nodes) - cpu0
        ok = delivered(rig, marks, done) if check else []
        tables = [nd.nic.transtable for nd in rig.fabric.nodes]
        extra = {"shift": shift, "cpu_busy_ns": cpu_ns, "server_busy_ns": 0,
                 "host_copies": sglist.HOST_COPIES.copies,
                 "host_copy_bytes": sglist.HOST_COPIES.nbytes,
                 "nicfw_lookups": sum(t.lookup_count for t in tables),
                 "nicfw_installs": sum(t.install_count for t in tables)}
        del rig, tables
    n = len(done)
    lat = [d for d in done if d is not None]
    makespan = max(lat) if lat else 1
    sim = {
        "start_ns": start_ns,
        "done_ns": tuple(done),
        "sim_p50_us": percentile(lat, 0.50) / 1e3 if lat else 0.0,
        "sim_p99_us": percentile(lat, 0.99) / 1e3 if lat else 0.0,
        "sim_throughput_mb_s": bandwidth_mb_s(len(lat) * SIZE, makespan),
        "sim_capacity_ops_s": len(lat) * 1e9 / makespan,
        "cpu_us_per_op": cpu_ns / 1e3 / n,
        "events": events,
    }
    return PassResult(setup_s=setup_s, wall_s=clock.total, events=events,
                      sim=sim, checked=len(ok), bad=ok.count(False),
                      laps=clock.laps, extra=extra)
