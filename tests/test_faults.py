"""The fault-injection suite: deterministic chaos for the fabric.

Covers the tentpole guarantees: seeded fault plans reproduce byte-
identical traces; the NIC reliable-delivery sublayer recovers ORFA and
NBD workloads from message loss with correct data; link-down windows,
corruption, NIC resets and node crashes degrade into *errors* (Eio,
LinkDown, MessageDropped, NodeCrashed), never hangs or silent
corruption.
"""

import os

import pytest

from repro.bench.transports import GmUserTransport
from repro.cluster import node_pair, star
from repro.core import MxKernelChannel
from repro.errors import Eio, LinkDown, MessageDropped, NodeCrashed
from repro.faults import FaultPlan, LinkFaultSpec
from repro.hw.link import Link
from repro.hw.nic import Message, MsgKind, PostedReceive, SendDescriptor
from repro.hw.params import MX_KERNEL_COSTS, PCI_XD, ReliabilityParams
from repro.nbd import NbdDevice, NbdServer
from repro.nbd.device import BLOCK_SIZE
from repro.orfa.client import OrfaClient
from repro.orfa.server import OrfaServer
from repro.sim import Environment
from repro.sim.trace import render_trace
from repro.units import ms, us

# Default chosen so a 5% plan actually fires within the workloads; CI's
# chaos-smoke job sweeps this over several seeds.
SEED = int(os.environ.get("REPRO_FAULT_SEED", "1"))


# -- harness ------------------------------------------------------------------


def _orfa_cluster(plan_cfg, api="mx", timeout_ns=ms(2), max_retries=6):
    """Two nodes, a tolerant ORFA server, a budgeted client, and an
    armed fault plan.  ``plan_cfg(plan)`` declares the faults."""
    env = Environment()
    client_node, server_node = node_pair(env)
    plan = FaultPlan(seed=SEED)
    records = plan.tracer.record_everything()
    plan_cfg(plan)
    plan.install(env, nodes=[client_node, server_node])
    server = OrfaServer(server_node, 3, api=api, tolerant=True)
    env.run(until=server.start())
    space = client_node.new_process_space()
    client = OrfaClient(client_node, 4, space, (server_node.node_id, 3),
                        api=api, timeout_ns=timeout_ns,
                        max_retries=max_retries, tracer=plan.tracer)
    env.run(until=env.process(client.setup()))
    return env, client_node, server_node, client, space, plan, records


def _orfa_write_read(env, client, space, nbytes=64 * 1024, chunk=4096):
    """Chunked write + full read-back; returns (payload, data read)."""
    payload = bytes((i * 37 + 11) & 0xFF for i in range(nbytes))
    buf = space.mmap(nbytes, populate=True)
    space.write_bytes(buf, payload)
    out = space.mmap(nbytes, populate=True)
    result = {}

    def script(env):
        fd = yield from client.open("/data", create=True)
        for off in range(0, nbytes, chunk):
            client.seek(fd, off)
            yield from client.write(fd, buf + off, chunk)
        client.seek(fd, 0)
        n = yield from client.read(fd, out, nbytes)
        result["n"] = n
        yield from client.close(fd)

    env.run(until=env.process(script(env)))
    return payload, space.read_bytes(out, result["n"])


# -- determinism --------------------------------------------------------------


def test_same_seed_reproduces_byte_identical_traces():
    """Two complete runs of the same seeded plan render the exact same
    trace text — the determinism contract of repro.faults."""
    outputs = []
    for _ in range(2):
        env, cn, sn, client, space, plan, records = _orfa_cluster(
            lambda p: p.drop("wire", 0.05)
        )
        payload, data = _orfa_write_read(env, client, space)
        assert data == payload
        outputs.append((render_trace(records), plan.stats(),
                        cn.nic.retransmissions + sn.nic.retransmissions,
                        env.now))
    assert outputs[0] == outputs[1]
    trace, stats, retrans, _ = outputs[0]
    assert stats["dropped"] > 0  # the plan actually fired
    assert "fault.drop" in trace


def _star_ping_pong_trace(seed, rounds=6, size=8 * 1024):
    """Three nodes round a switch, a seeded drop stream on one spoke,
    GM ping-pong on that spoke and across the other two; returns the
    rendered trace and the final clock."""
    env = Environment()
    nodes, switch = star(env, 3, switch_name="star")
    plan = FaultPlan(seed=seed)
    records = plan.tracer.record_everything()
    plan.drop("star.l0", 0.25)
    plan.install(env, nodes=nodes, switches=[switch])
    pairs = [
        (GmUserTransport(nodes[0], 1, peer_node=1, peer_port=1),
         GmUserTransport(nodes[1], 1, peer_node=0, peer_port=1)),
        (GmUserTransport(nodes[1], 2, peer_node=2, peer_port=2),
         GmUserTransport(nodes[2], 2, peer_node=1, peer_port=2)),
    ]
    env.run(until=env.all_of([env.process(t.prepare(size))
                              for pair in pairs for t in pair]))

    def client(t):
        for i in range(rounds):
            yield from t.send(size, match=i)
            yield from t.recv(size)

    def responder(t):
        for i in range(rounds):
            yield from t.recv(size)
            yield from t.send(size, match=i)

    env.run(until=env.all_of([env.process(g) for c, r in pairs
                              for g in (client(c), responder(r))]))
    return render_trace(records), env.now


def test_same_seed_reproduces_star_trace_through_switch_ports():
    """Injectors armed via ``switches=`` on a star spoke: the same seed
    renders the same trace, and the stream actually fires."""
    first = _star_ping_pong_trace(3)
    assert first == _star_ping_pong_trace(3)
    assert "fault.drop" in first[0]


def test_different_seeds_change_the_fault_pattern():
    from repro.faults.plan import _FaultRng
    a = _FaultRng(1, "wire")
    b = _FaultRng(2, "wire")
    assert [a.chance(0.5) for _ in range(64)] != [b.chance(0.5) for _ in range(64)]
    # ... and two links never share a stream under the same seed.
    c = _FaultRng(1, "wire")
    d = _FaultRng(1, "l0")
    assert [c.chance(0.5) for _ in range(64)] != [d.chance(0.5) for _ in range(64)]


# -- loss recovery: ORFA ------------------------------------------------------


@pytest.mark.parametrize("api", ["mx", "gm"])
def test_orfa_completes_correctly_under_5pct_drop(api):
    """Acceptance: with a FaultPlan dropping 5% of wire messages, an
    ORFA read/write workload completes with correct data."""
    env, cn, sn, client, space, plan, _ = _orfa_cluster(
        lambda p: p.drop("wire", 0.05), api=api
    )
    payload, data = _orfa_write_read(env, client, space)
    assert data == payload
    assert plan.stats()["dropped"] > 0
    # NIC-level recovery did real work (retransmission or dup suppression).
    assert (cn.nic.retransmissions + sn.nic.retransmissions
            + cn.nic.duplicates_dropped + sn.nic.duplicates_dropped) > 0


def test_orfa_survives_heavy_loss():
    env, cn, sn, client, space, plan, _ = _orfa_cluster(
        lambda p: p.drop("wire", 0.20)
    )
    payload, data = _orfa_write_read(env, client, space, nbytes=32 * 1024)
    assert data == payload
    assert plan.stats()["dropped"] > 0


# -- loss recovery: NBD -------------------------------------------------------


def test_nbd_block_workload_completes_under_drop():
    """Acceptance: an NBD block workload completes with correct data
    under a 5% drop plan."""
    env = Environment()
    client_node, server_node = node_pair(env)
    plan = FaultPlan(seed=SEED).drop("wire", 0.05)
    plan.install(env, nodes=[client_node, server_node])
    blocks = 16
    server = NbdServer(server_node, 3, api="mx", device_blocks=blocks)
    env.run(until=server.start())
    channel = MxKernelChannel(client_node, 4)
    dev = NbdDevice(client_node, channel, (server_node.node_id, 3),
                    server.device_inode, blocks,
                    timeout_ns=ms(2), max_retries=6, tracer=plan.tracer)
    space = client_node.new_process_space()
    payload = bytes((i * 13 + 5) & 0xFF for i in range(blocks * BLOCK_SIZE))
    va = space.mmap(len(payload))
    space.write_bytes(va, payload)
    out = space.mmap(len(payload))
    result = {}

    def script(env):
        yield from dev.write(space, va, 0, len(payload))
        yield from dev.flush()
        client_node.pagecache.invalidate_inode(dev._cache_key)
        result["n"] = yield from dev.read(space, out, 0, len(payload))

    env.run(until=env.process(script(env)))
    assert result["n"] == len(payload)
    assert space.read_bytes(out, len(payload)) == payload
    assert server.fs.read_raw(server.device_inode, 0, len(payload)) == payload
    assert plan.stats()["dropped"] > 0


# -- link down windows --------------------------------------------------------


def test_link_down_window_recovers_after_carrier_returns():
    """Traffic inside the outage is lost on the wire; retransmission
    carries the workload across it."""
    env, cn, sn, client, space, plan, records = _orfa_cluster(
        lambda p: p.link_down("wire", us(50), us(400)),
        timeout_ns=ms(4),
    )
    payload, data = _orfa_write_read(env, client, space, nbytes=16 * 1024)
    assert data == payload
    assert plan.stats()["down_drops"] > 0
    trace = render_trace(records)
    assert "fault.link_down" in trace
    assert "fault.link_up" in trace


def test_submit_on_down_link_without_reliability_raises_linkdown():
    env = Environment()
    a, b = node_pair(env)
    plan = FaultPlan(seed=SEED).link_down("wire", 0, us(100))
    plan.install(env, nodes=[a, b], reliability=False)
    with pytest.raises(LinkDown):
        a.nic.submit(SendDescriptor(dst_nic=1, dst_port=5, match=0,
                                    size=64, data=bytes(64), fw_send_ns=500))


# -- corruption ---------------------------------------------------------------


def test_corruption_is_caught_by_crc_and_recovered():
    env, cn, sn, client, space, plan, _ = _orfa_cluster(
        lambda p: p.corrupt("wire", 0.10)
    )
    payload, data = _orfa_write_read(env, client, space, nbytes=32 * 1024)
    assert data == payload  # every corrupted copy was dropped and resent
    assert plan.stats()["corrupted"] > 0
    assert cn.nic.crc_drops + sn.nic.crc_drops == plan.stats()["corrupted"]


def test_corruption_without_reliability_reaches_the_receiver():
    """The injector delivers a poisoned *copy*; the original stays
    clean (that is what a retransmission would resend)."""
    env = Environment()
    link = Link(env, PCI_XD, name="wire")
    delivered = []
    link.attach("a", delivered.append)
    link.attach("b", delivered.append)
    FaultPlan(seed=SEED).corrupt("wire", 1.0).install(
        env, links=[link], reliability=False
    )
    original = Message(kind=MsgKind.EAGER, src_nic=0, src_port=1, dst_nic=1,
                       dst_port=1, match=0, size=64, data=bytes(64),
                       wire_size=64)

    def tx(env):
        yield from link.transmit("a", original, 64)

    env.process(tx(env))
    env.run()
    assert len(delivered) == 1
    assert delivered[0].corrupted
    assert not original.corrupted


# -- duplicate suppression ----------------------------------------------------


def test_spurious_retransmissions_are_deduplicated():
    """An aggressive RTO against a lazy ack: the sender retransmits a
    message the receiver already has; it is delivered exactly once."""
    env = Environment()
    a, b = node_pair(env)
    eager_params = ReliabilityParams(rto_ns=2_000, rto_max_ns=4_000,
                                     ack_delay_ns=200_000)
    for nic in (a.nic, b.nic):
        nic.enable_reliability(eager_params)
    port = b.nic.open_port(5, MX_KERNEL_COSTS)
    port.post_receive(PostedReceive(match=None, capacity=4096,
                                    keep_data=True))
    a.nic.submit(SendDescriptor(dst_nic=1, dst_port=5, match=0, size=256,
                                data=bytes(range(256)), fw_send_ns=500))
    env.run()
    assert a.nic.retransmissions >= 1
    assert b.nic.duplicates_dropped >= 1
    assert b.nic.messages_received == 1


# -- NIC reset ----------------------------------------------------------------


def test_nic_reset_resyncs_fresh_outgoing_traffic():
    """After a firmware reset the NIC restarts its sequence space at 1;
    peers accept the restart instead of treating it as a duplicate."""
    env = Environment()
    a, b = node_pair(env)
    plan = FaultPlan(seed=SEED)
    records = plan.tracer.record_everything()
    plan.nic_reset(1, us(500))
    plan.install(env, nodes=[a, b])
    port = a.nic.open_port(5, MX_KERNEL_COSTS)
    port.post_receive(PostedReceive(match=None, capacity=4096, keep_data=True))
    port.post_receive(PostedReceive(match=None, capacity=4096, keep_data=True))

    def traffic(env):
        # One message before the reset, one after: the second restarts
        # b's tx sequence at 1, which a must accept as a resync.
        b.nic.submit(SendDescriptor(dst_nic=0, dst_port=5, match=0, size=64,
                                    data=bytes(64), fw_send_ns=500))
        yield env.timeout(us(1000))
        b.nic.submit(SendDescriptor(dst_nic=0, dst_port=5, match=1, size=64,
                                    data=bytes(64), fw_send_ns=500))

    env.process(traffic(env))
    env.run()
    assert a.nic.messages_received == 2
    assert "nic.resync" in render_trace(records)


# -- crashes ------------------------------------------------------------------


def test_node_crash_surfaces_eio_and_rpc_timeout_trace():
    """Acceptance for graceful degradation: a crashed server turns into
    Eio at the client after the retry budget, with rpc.timeout traces —
    never a hang."""
    env, cn, sn, client, space, plan, records = _orfa_cluster(
        lambda p: p.node_crash(1, us(300)),
        timeout_ns=ms(1), max_retries=2,
    )
    with pytest.raises(Eio):
        # The fault-free run spans ~900 us, so a crash at 300 us always
        # lands mid-workload.
        _orfa_write_read(env, client, space)
    trace = render_trace(records)
    assert "fault.node_crash" in trace
    assert "rpc.timeout" in trace


def test_submit_on_crashed_local_nic_raises():
    env = Environment()
    a, b = node_pair(env)
    FaultPlan(seed=SEED).install(env, nodes=[a, b])
    a.nic.crash()
    with pytest.raises(NodeCrashed):
        a.nic.submit(SendDescriptor(dst_nic=1, dst_port=5, match=0, size=64,
                                    data=bytes(64), fw_send_ns=500))


def test_reliability_gives_up_on_dead_peer():
    """Retransmission toward a crashed peer is bounded: after
    max_retries rounds the peer is declared dead and further submits
    fail fast with MessageDropped."""
    env = Environment()
    a, b = node_pair(env)
    plan = FaultPlan(seed=SEED)
    plan.install(env, nodes=[a, b],
                 reliability_params=ReliabilityParams(max_retries=2))
    b.nic.crash()
    a.nic.submit(SendDescriptor(dst_nic=1, dst_port=5, match=0, size=64,
                                data=bytes(64), fw_send_ns=500))
    env.run()
    assert 1 in a.nic._rel.dead_peers
    with pytest.raises(MessageDropped):
        a.nic.submit(SendDescriptor(dst_nic=1, dst_port=5, match=0, size=64,
                                    data=bytes(64), fw_send_ns=500))


# -- zero-fault transparency --------------------------------------------------


def test_unconfigured_links_get_no_injector():
    env = Environment()
    a, b = node_pair(env)
    plan = FaultPlan(seed=SEED).drop("some-other-link", 0.5)
    plan.install(env, nodes=[a, b])
    assert a.nic._link.faults is None
    assert plan.injectors == {}


def test_wildcard_spec_covers_every_link():
    env = Environment()
    a, b = node_pair(env)
    FaultPlan(seed=SEED).drop("*", 0.5).install(env, nodes=[a, b])
    assert a.nic._link.faults is not None


def test_plan_validates_inputs():
    with pytest.raises(ValueError):
        FaultPlan().drop("wire", 1.5)
    with pytest.raises(ValueError):
        FaultPlan().corrupt("wire", -0.1)
    with pytest.raises(ValueError):
        FaultPlan().link_down("wire", 100, 100)
    env = Environment()
    plan = FaultPlan(seed=SEED)
    plan.install(env)
    with pytest.raises(ValueError):
        plan.install(env)


# -- the bench driver ---------------------------------------------------------


def test_bench_faults_driver_runs(capsys):
    from repro.bench.runner import main
    assert main(["faults", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "Fault injection" in out
    assert "10.0%" in out

# -- link flap trains ---------------------------------------------------------


def test_link_flap_train_recovers_and_renders():
    """A scheduled down/up train is an exact partition timeline: the
    workload rides across every outage, and the trace announces the
    train once plus one down/up pair per outage."""
    env, cn, sn, client, space, plan, records = _orfa_cluster(
        lambda p: p.link_flap("wire", us(50), down_ns=us(80), up_ns=us(60),
                              count=3),
        timeout_ns=ms(4),
    )
    payload, data = _orfa_write_read(env, client, space, nbytes=16 * 1024)
    assert data == payload
    trace = render_trace(records)
    assert trace.count("fault.link_flap") == 1
    assert trace.count("fault.link_down {") == 3
    assert trace.count("fault.link_up {") == 3
    assert plan.stats()["down_drops"] > 0


def test_link_flap_validates_inputs():
    with pytest.raises(ValueError):
        FaultPlan().link_flap("wire", 0, down_ns=0, up_ns=10, count=1)
    with pytest.raises(ValueError):
        FaultPlan().link_flap("wire", 0, down_ns=10, up_ns=0, count=1)
    with pytest.raises(ValueError):
        FaultPlan().link_flap("wire", 0, down_ns=10, up_ns=10, count=0)
    with pytest.raises(ValueError):
        FaultPlan().link_flap("wire", -1, down_ns=10, up_ns=10, count=1)


# -- reliability sessions and incarnations ------------------------------------


def _seq_msg(src, dst, seq, *, epoch, inc, dst_epoch=0, ack=0, ack_epoch=0,
             kind=MsgKind.EAGER):
    return Message(kind=kind, src_nic=src, src_port=5, dst_nic=dst,
                   dst_port=5, match=0, size=64, data=bytes(64), wire_size=64,
                   seq=seq, epoch=epoch, inc=inc, dst_epoch=dst_epoch,
                   ack=ack, ack_epoch=ack_epoch)


def _rel_pair():
    env = Environment()
    a, b = node_pair(env)
    FaultPlan(seed=SEED).install(env, nodes=[a, b])
    return env, a, b


def test_stale_retransmit_after_reset_is_not_acked_as_current():
    """Regression: a retransmit that predates the receiver's reset
    echoes the previous incarnation; it must be dropped, not delivered
    or acked as part of the post-reset conversation."""
    env, a, b = _rel_pair()
    rel = b.nic._rel
    first = _seq_msg(0, 1, 1, epoch=7, inc=3)
    assert rel.on_arrival(first) is first
    assert rel._rx_last[0] == 1
    old_inc = rel.incarnation
    b.nic.reset()
    assert rel.incarnation == old_inc + 1
    stale = _seq_msg(0, 1, 2, epoch=7, inc=3, dst_epoch=old_inc)
    assert rel.on_arrival(stale) is None  # dropped whole
    assert rel._rx_last.get(0, 0) == 0  # and not acked as current
    assert 0 in rel._rst_pending  # the sender will be told to re-establish


def test_session_restart_is_adopted_not_deduplicated():
    """Regression: after the peer retires a session (give-up) and later
    probes with a fresh one, seq 1 of the new epoch is a restart, not a
    duplicate — treating it as one falsely acked it and wedged the
    probe forever."""
    env, a, b = _rel_pair()
    rel = b.nic._rel
    assert rel.on_arrival(_seq_msg(0, 1, 1, epoch=7, inc=3)) is not None
    assert rel.on_arrival(_seq_msg(0, 1, 2, epoch=7, inc=3)) is not None
    assert rel._rx_last[0] == 2
    fresh = _seq_msg(0, 1, 1, epoch=8, inc=3)
    assert rel.on_arrival(fresh) is fresh  # new session adopted
    assert rel._rx_last[0] == 1
    # a leftover of the dead session is a duplicate, and must not
    # regress the adopted window
    assert rel.on_arrival(_seq_msg(0, 1, 2, epoch=7, inc=3)) is None
    assert rel._rx_last[0] == 1


def test_peer_session_restart_leaves_local_tx_alone():
    """A benign session restart (no reboot) resets only the receive
    window for that peer; our own transmit session must survive —
    aborting it is what made restarts ping-pong between live peers."""
    env, a, b = _rel_pair()
    rel = b.nic._rel
    out = _seq_msg(1, 0, 0, epoch=0, inc=0)
    rel.stamp(out, 64)  # b establishes tx state toward peer 0
    assert rel._tx[0].unacked
    session = rel._session[0]
    rel.on_arrival(_seq_msg(0, 1, 1, epoch=5, inc=1))
    rel.on_arrival(_seq_msg(0, 1, 1, epoch=6, inc=1))  # peer restarted
    assert rel._session.get(0) == session  # tx session untouched
    assert rel._tx[0].unacked  # nothing aborted


def test_stale_incarnation_ack_does_not_retire_fresh_messages():
    """An ack left over from the peer's previous life must not retire
    messages of the re-established conversation."""
    env, a, b = _rel_pair()
    rel = a.nic._rel
    rel._rx_inc[1] = 5  # we have heard from the peer's 5th incarnation
    out = _seq_msg(0, 1, 0, epoch=0, inc=0)
    rel.stamp(out, 64)
    assert rel._tx[1].unacked
    stale = _seq_msg(1, 0, 0, epoch=0, inc=4, ack=1,
                     ack_epoch=rel._session[1], kind=MsgKind.ACK)
    assert rel.on_arrival(stale) is None
    assert rel._tx[1].unacked  # stale incarnation: ignored
    good = _seq_msg(1, 0, 0, epoch=0, inc=5, ack=1,
                    ack_epoch=rel._session[1], kind=MsgKind.ACK)
    assert rel.on_arrival(good) is None
    assert not rel._tx[1].unacked  # current incarnation: retired


def test_dead_peer_verdict_expires_and_probe_reconnects():
    """With a TTL configured, a dead-peer verdict ages out: the next
    submit probes the peer over a fresh session and delivery resumes —
    no reset on the *surviving* side required."""
    env = Environment()
    a, b = node_pair(env)
    plan = FaultPlan(seed=SEED)
    plan.node_crash(1, us(10))
    plan.nic_reset(1, us(300))  # the reboot
    plan.install(env, nodes=[a, b], reliability_params=ReliabilityParams(
        rto_ns=us(20), rto_max_ns=us(40), max_retries=2,
        dead_peer_ttl_ns=us(200)))
    port = b.nic.open_port(5, MX_KERNEL_COSTS)
    port.post_receive(PostedReceive(match=None, capacity=4096, keep_data=True))
    port.post_receive(PostedReceive(match=None, capacity=4096, keep_data=True))
    seen = {}

    def script(env):
        yield env.timeout(us(50))  # b is down
        a.nic.submit(SendDescriptor(dst_nic=1, dst_port=5, match=0, size=64,
                                    data=bytes(64), fw_send_ns=500))
        yield env.timeout(us(250))
        seen["dead"] = 1 in a.nic._rel.dead_peers
        yield env.timeout(us(300))  # past reboot and TTL
        a.nic.submit(SendDescriptor(dst_nic=1, dst_port=5, match=1, size=64,
                                    data=bytes(64), fw_send_ns=500))

    env.run(until=env.process(script(env)))
    env.run()
    assert seen["dead"]  # the give-up verdict stood while b was down
    assert 1 not in a.nic._rel.dead_peers  # probe lifted it
    assert b.nic.messages_received >= 1  # and got through


# -- NBD fail-fast reasons ----------------------------------------------------


def _nbd_against_crashed_server(reliability_params, timeout_ns, max_retries):
    env = Environment()
    client_node, server_node = node_pair(env)
    plan = FaultPlan(seed=SEED).node_crash(1, us(10))
    plan.install(env, nodes=[client_node, server_node],
                 reliability_params=reliability_params)
    server = NbdServer(server_node, 3, api="mx", device_blocks=4)
    env.run(until=server.start())
    channel = MxKernelChannel(client_node, 4)
    dev = NbdDevice(client_node, channel, (server_node.node_id, 3),
                    server.device_inode, 4,
                    timeout_ns=timeout_ns, max_retries=max_retries)
    space = client_node.new_process_space()
    out = space.mmap(BLOCK_SIZE)
    caught = {}

    def script(env):
        yield env.timeout(us(50))  # server is down by now
        try:
            yield from dev.read(space, out, 0, BLOCK_SIZE)
        except Eio as exc:
            caught["reason"] = exc.reason

    env.run(until=env.process(script(env)))
    return caught


def test_nbd_dead_peer_verdict_fails_fast_with_reason():
    """When the fabric declares the server dead, the device gives up
    immediately with Eio(reason="dead_peer") — callers should fail
    over, not retry the same server."""
    caught = _nbd_against_crashed_server(
        ReliabilityParams(rto_ns=us(20), rto_max_ns=us(40), max_retries=2),
        timeout_ns=ms(2), max_retries=6)
    assert caught["reason"] == "dead_peer"


def test_nbd_timeout_exhaustion_reports_timeout_reason():
    """With the fabric still retrying (no dead verdict yet), budget
    exhaustion surfaces as Eio(reason="timeout") — the same server may
    answer a later retry."""
    caught = _nbd_against_crashed_server(
        ReliabilityParams(rto_ns=ms(10), rto_max_ns=ms(10), max_retries=1000),
        timeout_ns=us(200), max_retries=1)
    assert caught["reason"] == "timeout"
