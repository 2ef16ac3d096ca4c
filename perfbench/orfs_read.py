"""Workload ``orfs_read``: the paper's Fig 7(b) path, one cold sequential read.

An in-kernel ORFS client on node A, over the MX kernel channel and a
PCI-XD link, mounts the ORFA server on node B.  One application opens a
file of seeded bytes and reads it once from start to end with buffered
``read()`` calls into one reused user buffer (closed loop, cold page
cache).  Request sizes are seeded, byte-granular and uniform in
[60 KiB, 68 KiB], so simulated per-read latency varies with the seed
while the data path stays Fig 7(b)'s.  The range is centred on 16 pages:
a read's latency steps with the number of pages it fetches, and a median
read well inside one step keeps ``sim_p50_us`` from jumping a step from
one seed to the next.
"""

from __future__ import annotations

import random
import time

from repro.cluster import node as cluster_node
from repro.core import MxKernelChannel
from repro.fleet.isolate import isolated_run
from repro.hw.params import PCI_XD
from repro.kernel import OpenFlags
from repro.kernel.vfs import UserBuffer
from repro.mem import sglist
from repro.orfa.server import OrfaServer
from repro.orfs import mount_orfs
from repro.sim import Environment
from repro.units import KiB, MiB, bandwidth_mb_s, page_align_up

from .common import PassResult, Stopwatch, percentile

SERVER_PORT = 3
CLIENT_PORT = 4
FILE_BYTES = 8 * MiB
MIN_READ = 60 * KiB
MAX_READ = 68 * KiB
PATH = "/orfs/data"


def inputs(seed: int, file_bytes: int | None = None):
    """(file contents, read sizes) drawn from ``seed``."""
    file_bytes = file_bytes or FILE_BYTES
    rng = random.Random(f"perfbench.orfs_read.{seed}")
    data = rng.randbytes(file_bytes)
    sizes, total = [], 0
    while total < file_bytes:
        n = rng.randint(MIN_READ, MAX_READ)
        sizes.append(n)
        total += n
    return data, sizes


def build(data: bytes):
    """Set-up: node pair, ORFA server holding the file, ORFS mounted."""
    env = Environment()
    client_node, server_node = cluster_node.node_pair(env, link=PCI_XD)
    server = OrfaServer(server_node, SERVER_PORT, api="mx")
    env.run(until=server.start())
    channel = MxKernelChannel(client_node, CLIENT_PORT)
    mount_orfs(client_node, channel, (server_node.node_id, SERVER_PORT))
    attrs = env.run(until=env.process(server.fs.create(1, PATH.rsplit("/", 1)[1])))
    server.fs.write_raw(attrs.inode_id, 0, data)
    return env, client_node, server_node


def read_file(env, node, sizes, clock: Stopwatch, check=None):
    """The measured phase: open, read to EOF with the given request
    sizes, close.  Returns (start, end, per-read latencies, bytes).
    Each read is one lap of ``clock``.  ``check(offset, space, vaddr,
    n)`` runs after each read, outside the host time ``clock`` keeps."""
    space = node.new_process_space()
    vaddr = space.mmap(page_align_up(MAX_READ), populate=True)
    out = {}

    def app(env):
        fd = yield from node.vfs.open(PATH, OpenFlags.RDONLY)
        lat = []
        offset = 0
        t0 = env.now
        for size in sizes:
            t = env.now
            n = yield from node.vfs.read(fd, UserBuffer(space, vaddr, size))
            lat.append(env.now - t)
            clock.lap()
            if check is not None:
                with clock.paused():
                    check(offset, space, vaddr, n)
            offset += n
            if n == 0:
                break
        out.update(start=t0, end=env.now, lat=lat, nbytes=offset)
        yield from node.vfs.close(fd)

    env.run(until=env.process(app(env)))
    clock.stop()
    return out["start"], out["end"], out["lat"], out["nbytes"]


class Checker:
    """Compares every read with the file."""

    def __init__(self, data: bytes):
        self.data = data
        self.checked = 0
        self.bad = 0

    def __call__(self, offset, space, vaddr, n):
        self.checked += 1
        if space.read_bytes(vaddr, n) != self.data[offset:offset + n] \
                or (n == 0 and offset != len(self.data)):
            self.bad += 1


def one_pass(seed: int, registry=None, check: bool = True) -> PassResult:
    data, sizes = inputs(seed)
    checker = Checker(data) if check else None
    with isolated_run(observe=registry is not None, registry=registry):
        t0 = time.perf_counter()
        env, client, server = build(data)
        setup_s = time.perf_counter() - t0
        cpu0 = client.cpu.resource.busy_time
        srv0 = server.cpu.resource.busy_time
        ev0 = env.events_processed
        clock = Stopwatch()
        start, end, lat, nbytes = read_file(env, client, sizes, clock, checker)
        events = env.events_processed - ev0
        extra = {
            "host_copies": sglist.HOST_COPIES.copies,
            "host_copy_bytes": sglist.HOST_COPIES.nbytes,
            "cpu_busy_ns": client.cpu.resource.busy_time - cpu0,
            "server_busy_ns": server.cpu.resource.busy_time - srv0,
            "nicfw_lookups": sum(nd.nic.transtable.lookup_count
                                 for nd in (client, server)),
            "nicfw_installs": sum(nd.nic.transtable.install_count
                                  for nd in (client, server)),
        }
    ops = len(lat)
    sim = {
        "lat_ns": tuple(lat),
        "sim_p50_us": percentile(lat, 0.50) / 1e3,
        "sim_p99_us": percentile(lat, 0.99) / 1e3,
        "sim_throughput_mb_s": bandwidth_mb_s(nbytes, end - start),
        "sim_capacity_ops_s": ops * 1e9 / (end - start),
        "cpu_us_per_op": extra["cpu_busy_ns"] / 1e3 / ops,
        "events": events,
    }
    if checker is None:
        checked, bad = 0, 0
    else:
        checked = checker.checked
        bad = checker.bad + (nbytes != len(data))
    return PassResult(setup_s=setup_s, wall_s=clock.total, events=events,
                      sim=sim, checked=checked, bad=bad, laps=clock.laps,
                      extra=extra)
