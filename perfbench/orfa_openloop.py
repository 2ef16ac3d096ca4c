"""Workload ``orfa_openloop``: user-space ORFA over GM under open-loop load.

One ORFA server and 4 user-space ORFA clients on a 5-node star, driven
through the public :mod:`repro.load` path that
:func:`repro.fleet.runner.run_point` uses: seeded Poisson arrivals, a
70 % 4 KiB read / 20 % 4 KiB write / 10 % stat mix, one op in flight per
client, each point under a fresh :class:`repro.obs.MetricsRegistry`
(``run_load`` needs one installed).  Two points: the nominal rate for
latency and an overload rate for capacity.

Latency is measured exactly, outside the driver: the adapter's ``op`` is
wrapped to time each op, the driver's queues are wrapped to log each
request it releases and when, and each client's k-th op is matched to
the k-th request released to that client, so queue wait (scheduled
arrival to start) and service (start to end) separate.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

from repro.cluster import node as cluster_node
from repro.fleet.isolate import isolated_run
from repro.kernel.memfs import MemFs
from repro.load import LoadGen, OpChoice, OpMix, PoissonArrivals, run_load
from repro.load import driver as load_driver
from repro.load import workloads as load_workloads
from repro.mem import sglist
from repro.orfa.client import OrfaClient
from repro.sim import Environment, Store
from repro.units import KiB, MiB, bandwidth_mb_s

from .common import PassResult, Stopwatch, percentile

N_CLIENTS = 4
FILE_BYTES = MiB
NOMINAL_OPS_S = 30_000
OVERLOAD_OPS_S = 120_000
NOMINAL_OPS = 3000
OVERLOAD_OPS = 2000
#: Completed ops per lap of the measured phase.
LAP_OPS = 10
MIX = OpMix("perfbench", [OpChoice("read", 4 * KiB, 0.7),
                          OpChoice("write", 4 * KiB, 0.2),
                          OpChoice("stat", 0, 0.1)])


# -- exact open-loop latency -------------------------------------------------


@dataclass(frozen=True)
class Timed:
    """One op as matched to its schedule item (all times simulated ns)."""

    index: int
    client: int
    op: str
    size: int
    at_ns: int
    start_ns: int
    end_ns: int

    @property
    def latency_ns(self) -> int:
        return self.end_ns - self.at_ns

    @property
    def queue_ns(self) -> int:
        return self.start_ns - self.at_ns

    @property
    def service_ns(self) -> int:
        return self.end_ns - self.start_ns


class MatchError(Exception):
    """Executed ops do not line up with the schedule."""


def schedule_base(log) -> int:
    """The instant the driver's schedule counts from.

    ``log`` holds ``(item, release_ns)`` for every released request.  A
    driver releases a request at ``base + item.at_ns`` or, while it is
    behind, later, never earlier; once it has caught up it is on time,
    so the smallest release lag is ``base``: 0 for a schedule counted
    from t=0, the end of set-up for one counted from there.
    """
    return min(now - item.at_ns for item, now in log)


def match(released, records, base_ns: int) -> list[Timed]:
    """Pair each client's k-th executed op with its k-th released item.

    ``released`` lists the items the driver put in the client queues, in
    release order, each arriving at ``base_ns + item.at_ns``.
    ``records[c]`` lists client ``c``'s ops in execution order as
    ``(op, start_ns, end_ns)``; a client runs its queue in FIFO order,
    one op at a time, so the k-th op it ran is the k-th item released
    to it.
    """
    per_client: dict[int, list] = {}
    for item in released:
        per_client.setdefault(item.client, []).append(item)
    out = []
    for client, recs in records.items():
        items = per_client.get(client, [])
        if len(recs) > len(items):
            raise MatchError(f"client {client} ran {len(recs)} ops, "
                             f"{len(items)} scheduled")
        for item, (op, start, end) in zip(items, recs):
            if item.op != op:
                raise MatchError(f"client {client} op {item.index}: "
                                 f"scheduled {item.op}, ran {op}")
            out.append(Timed(item.index, client, op, item.size,
                             base_ns + item.at_ns, start, end))
    out.sort(key=lambda t: t.index)
    return out


def time_ops(workload, env, clock: Stopwatch):
    """Wrap ``workload.op``; returns the per-client record lists.  Every
    :data:`LAP_OPS` completed ops make one lap of ``clock``."""
    records: dict[int, list] = {}
    inner = workload.op
    completed = 0

    def op(client, name, size):
        nonlocal completed
        start = env.now
        yield from inner(client, name, size)
        records.setdefault(client, []).append((name, start, env.now))
        completed += 1
        if completed % LAP_OPS == 0:
            clock.lap()

    workload.op = op
    return records


class ReleaseLog(Store):
    """The driver's per-client queue, logging each request it releases
    as ``(item, release_ns)``."""

    log: list = []

    def put(self, item):
        ReleaseLog.log.append((item, self.env.now))
        return super().put(item)


@contextmanager
def logged_releases():
    ReleaseLog.log = []
    saved = load_driver.Store
    load_driver.Store = ReleaseLog
    try:
        yield ReleaseLog.log
    finally:
        load_driver.Store = saved


# -- output checks -------------------------------------------------------------


class Checks:
    """Shadow copies of every client's file.  Reads must return the
    shadow bytes, writes must be visible on the server, stat must give
    the file size.  Its host time is kept out of the measured phase's
    ``clock``."""

    def __init__(self, seed: int):
        self.rng = random.Random(f"perfbench.orfa.{seed}")
        self.server = None
        self.inodes: dict[str, int] = {}
        self.shadow: dict[str, bytearray] = {}
        self.checked = 0
        self.bad = 0
        self.clock = Stopwatch()

    def seed_files(self, server) -> None:
        """Give each client file seeded contents (host-side, no sim time)."""
        self.server = server
        for path, inode in self.inodes.items():
            data = self.rng.randbytes(FILE_BYTES)
            server.fs.write_raw(inode, 0, data)
            self.shadow["/" + path] = bytearray(data)

    def verdict(self, ok: bool) -> None:
        self.checked += 1
        self.bad += not ok


@contextmanager
def checked_construction(checks: Checks):
    """While the adapter is built, record file inodes and make its
    clients :class:`CheckedClient` instances."""
    create = MemFs.create

    def recording_create(fs, parent_id, name):
        attrs = yield from create(fs, parent_id, name)
        checks.inodes[name] = attrs.inode_id
        return attrs

    class Client(CheckedClient):
        pass

    Client.checks = checks
    MemFs.create = recording_create
    saved = load_workloads.OrfaClient
    load_workloads.OrfaClient = Client
    try:
        yield
    finally:
        MemFs.create = create
        load_workloads.OrfaClient = saved


class CheckedClient(OrfaClient):
    """An ORFA client that verifies what each call returns."""

    checks: Checks = None

    def open(self, path, create=False):
        fd = yield from super().open(path, create)
        self._bench_path = path
        self._bench_pos = 0
        return fd

    def seek(self, fd, offset):
        super().seek(fd, offset)
        self._bench_pos = offset

    def read(self, fd, vaddr, length):
        n = yield from super().read(fd, vaddr, length)
        c = self.checks
        with c.clock.paused():
            pos = self._bench_pos
            c.verdict(n == length and self.space.read_bytes(vaddr, n)
                      == c.shadow[self._bench_path][pos:pos + n])
            self._bench_pos = pos + n
        return n

    def write(self, fd, vaddr, length):
        c = self.checks
        with c.clock.paused():
            data = c.rng.randbytes(length)
            self.space.write_bytes(vaddr, data)
        n = yield from super().write(fd, vaddr, length)
        with c.clock.paused():
            pos = self._bench_pos
            inode = c.inodes[self._bench_path.lstrip("/")]
            c.verdict(n == length
                      and c.server.fs.read_raw(inode, pos, n) == data[:n])
            c.shadow[self._bench_path][pos:pos + n] = data[:n]
            self._bench_pos = pos + n
        return n

    def stat(self, path):
        attrs = yield from super().stat(path)
        c = self.checks
        with c.clock.paused():
            c.verdict(attrs.size == len(c.shadow[path]))
        return attrs


# -- one point, one pass -----------------------------------------------------------


@dataclass
class PointResult:
    setup_s: float
    wall_s: float
    laps: list
    events: int
    timed: list
    result: object
    lags: list
    client_busy_ns: int
    server_busy_ns: int
    nicfw: tuple
    copies: tuple
    checked: int
    bad: int


def run_point(seed: int, rate: float, n_ops: int, registry=None,
              check: bool = True) -> PointResult:
    """Build the star and the adapter, then replay the schedule."""
    checks = Checks(seed)
    with isolated_run(observe=True, registry=registry):
        t0 = time.perf_counter()
        env = Environment()
        nodes, _switch = cluster_node.star(env, N_CLIENTS + 1)
        with checked_construction(checks) if check else nullcontext():
            workload = load_workloads.OrfaWorkload(
                env, nodes[0], nodes[1:], api="gm", file_bytes=FILE_BYTES)
        setup_s = time.perf_counter() - t0
        checks.seed_files(workload.server)
        gen = LoadGen(PoissonArrivals(seed, rate), MIX, seed, n_ops, N_CLIENTS)
        busy0 = [nd.cpu.resource.busy_time for nd in nodes]
        ev0 = env.events_processed
        with logged_releases() as log:
            clock = checks.clock = Stopwatch()
            records = time_ops(workload, env, clock)
            res = run_load(env, workload, gen, mode="open")
            clock.stop()
        events = env.events_processed - ev0
        busy = [nd.cpu.resource.busy_time - b for nd, b in zip(nodes, busy0)]
        tables = [nd.nic.transtable for nd in nodes]
        nicfw = (sum(t.lookup_count for t in tables),
                 sum(t.install_count for t in tables))
        copies = (sglist.HOST_COPIES.copies, sglist.HOST_COPIES.nbytes)
    base = schedule_base(log)
    timed = match([item for item, _ in log], records, base)
    lags = [now - base - item.at_ns for item, now in log]
    bad = checks.bad + res.failed_ops + (len(timed) != n_ops)
    return PointResult(setup_s, clock.total, clock.laps, events, timed, res,
                       lags, sum(busy[1:]), busy[0], nicfw, copies,
                       checks.checked, bad)


def one_pass(seed: int, registry=None, check: bool = True) -> PassResult:
    nominal = run_point(seed, NOMINAL_OPS_S, NOMINAL_OPS, registry, check)
    overload = run_point(seed, OVERLOAD_OPS_S, OVERLOAD_OPS, registry, check)
    lat = [t.latency_ns for t in nominal.timed]
    data_bytes = sum(t.size for t in overload.timed if t.op != "stat")
    res = overload.result
    sim = {
        "latency_ns": tuple((t.at_ns, t.start_ns, t.end_ns)
                            for p in (nominal, overload) for t in p.timed),
        "sim_p50_us": percentile(lat, 0.50) / 1e3,
        "sim_p99_us": percentile(lat, 0.99) / 1e3,
        "sim_throughput_mb_s": bandwidth_mb_s(data_bytes, res.elapsed_ns),
        "sim_capacity_ops_s": res.achieved_rate_ops_s,
        "cpu_us_per_op": nominal.client_busy_ns / 1e3 / len(nominal.timed),
        "events": nominal.events + overload.events,
    }
    points = (nominal, overload)
    extra = {
        "nominal": nominal,
        "cpu_busy_ns": sum(p.client_busy_ns for p in points),
        "server_busy_ns": sum(p.server_busy_ns for p in points),
        "nicfw_lookups": sum(p.nicfw[0] for p in points),
        "nicfw_installs": sum(p.nicfw[1] for p in points),
        "failures": sum(p.result.failed_ops for p in points),
        "host_copies": sum(p.copies[0] for p in points),
        "host_copy_bytes": sum(p.copies[1] for p in points),
    }
    return PassResult(setup_s=sum(p.setup_s for p in points),
                      wall_s=sum(p.wall_s for p in points),
                      events=sim["events"], sim=sim,
                      checked=sum(p.checked for p in points),
                      bad=sum(p.bad for p in points),
                      laps=nominal.laps + overload.laps, extra=extra)
