"""The Myrinet NIC: firmware pipeline, DMA, ports, matching, rendezvous.

One :class:`Nic` model serves both GM and MX — as on real hardware,
where the same LANai chip ran either MCP.  The API layers
(:mod:`repro.gm`, :mod:`repro.mx`) differ in the *costs* they attach to
descriptors and ports (:class:`repro.hw.params.ApiCosts`), in addressing
(GM translates registered virtual addresses in the NIC, MX hands the
NIC physical addresses), and in message-class strategy (MX's
PIO/copy/rendezvous split).

Pipeline of an eager message (times from :mod:`repro.hw.params`)::

    host: host_send (CPU)                 | charged by the API layer
    host->NIC doorbell                    | doorbell_ns
    firmware send processing              | fw_send_ns (+ translation)
    DMA setup + gather from host memory   | dma_setup_ns, PCI held
    cut-through onto the wire             | lag + size/link_bw
    propagation                           | propagation_ns
    firmware receive processing           | fw_recv_ns (+ translation)
    DMA setup + scatter to host memory    | dma_setup_ns
    completion event                      | host_event (API layer)

Large rendezvous messages exchange real RTS/CTS control messages on the
simulated wire before the data moves, so the receiver's buffer is known
and the handshake latency emerges from the same pipeline.

Data is real: if a descriptor carries ``data`` bytes or source segments,
the bytes are gathered at DMA time and scattered into the receiver's
segments, so end-to-end tests observe genuine data movement.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Optional

from .. import obs
from ..errors import LinkDown, MessageDropped, NicError, NodeCrashed, PortError
from ..mem.layout import PhysSegment
from ..mem.phys import PhysicalMemory
from ..mem.sglist import PayloadRef
from ..sim import Environment, Event, Resource
from ..units import transfer_time_ns
from .link import Link
from .params import DEFAULT_RELIABILITY, ApiCosts, NicParams, ReliabilityParams
from .train import (MIN_TRAIN_FRAGS, PacketTrain, TrainRun,
                    coalescing_enabled)
from .wire import MsgKind  # re-export: historic public home of the enum

#: Train-length histogram buckets (packets per train; 1 MiB at the
#: default 4 KiB MTU is a 255-packet train).
TRAIN_LEN_BUCKETS = (4, 16, 64, 256, 1024)
from ..nicfw.transtable import TranslationTable


@dataclass(slots=True)
class SendCompletion:
    """Posted to the sender when its message has left the host."""

    tag: Any
    size: int
    finished_at: int


@dataclass(slots=True)
class ReceiveCompletion:
    """Posted to the receiver when a message landed in its buffer."""

    tag: Any
    size: int
    match: int
    src_nic: int
    src_port: int
    data: Optional[PayloadRef]  # zero-copy chunk views of the payload
    finished_at: int
    truncated: bool = False
    meta: Any = None  # sender's out-of-band protocol header


@dataclass(slots=True)
class Message:
    """What travels on the wire."""

    kind: MsgKind
    src_nic: int
    src_port: int
    dst_nic: int
    dst_port: int
    match: int
    size: int
    data: Optional[PayloadRef] = None  # scatter/gather chunk views
    rndv_id: int = 0  # correlates RTS/CTS/RDATA
    meta: Any = None  # out-of-band protocol header (size included in ``size``)
    rma_offset: int = 0  # directed sends: byte offset into the target window
    wire_size: int = 0  # bytes this packet occupies on each wire hop
    # Reliable-delivery fields (all inert unless a fault plan enabled
    # the reliability sublayer; see _ReliableDelivery).
    seq: int = 0  # per-(src,dst)-peer sequence number; 0 = unsequenced
    epoch: int = 0  # sender's tx *session* toward this peer (monotonic)
    inc: int = 0  # sender's node incarnation; bumped by NIC reset/crash
    ack: int = 0  # piggybacked cumulative ack for the reverse direction
    ack_epoch: int = 0  # session the ack refers to (stale acks are ignored)
    dst_epoch: int = 0  # receiver incarnation the sender believes it talks to
    corrupted: bool = False  # injected bit error; receiver CRC drops it


@dataclass(slots=True)
class SendDescriptor:
    """Host -> NIC send request (built by the API layers)."""

    dst_nic: int
    dst_port: int
    match: int
    size: int
    src_port: int = 0
    sg: Optional[list[PhysSegment]] = None  # gather source (host memory)
    # Pre-gathered payload (PIO/copy paths); bytes-likes are normalized
    # to PayloadRef by Nic.submit.
    data: "Optional[PayloadRef | bytes]" = None
    translate_tx: bool = False  # NIC translates source address
    rendezvous: bool = False
    large_setup_ns: int = 0  # one-time DMA programming for rendezvous data
    fw_send_ns: int = 0
    completion: Optional[Event] = None
    tag: Any = None
    meta: Any = None  # out-of-band protocol header carried with the message
    rma_offset: int = 0  # directed sends: deposit offset in the target window


@dataclass(slots=True)
class PostedReceive:
    """A receive buffer posted on a port."""

    match: Optional[int]  # None matches anything
    capacity: int
    dest_sg: Optional[list[PhysSegment]] = None  # scatter target
    translate_rx: bool = False  # buffer is registered-virtual: NIC translates
    keep_data: bool = False  # deliver payload bytes in the completion
    persistent: bool = False  # RMA window: stays posted across matches
    completion: Optional[Event] = None
    tag: Any = None

    def accepts(self, msg_match: int) -> bool:
        return self.match is None or self.match == msg_match


@dataclass
class _PendingRendezvous:
    """Receiver-side state between CTS emission and data arrival."""

    recv: PostedReceive
    size: int
    match: int
    src_nic: int
    src_port: int


class NicPort:
    """One communication endpoint on a NIC (a GM port / MX endpoint)."""

    def __init__(self, nic: "Nic", port_id: int, costs: ApiCosts):
        self.nic = nic
        self.port_id = port_id
        self.costs = costs
        self.posted: deque[PostedReceive] = deque()
        self.unexpected: deque[Message] = deque()  # eager msgs w/o a recv
        self.unexpected_rts: deque[Message] = deque()
        self.open = True
        # API layers may subscribe to every completion on this port
        # (e.g. GM's unified event queue).
        self.completion_sink: Optional[Callable[[Any], None]] = None

    def post_receive(self, recv: PostedReceive) -> None:
        """Make a receive buffer available for matching."""
        if not self.open:
            raise PortError(f"post_receive on closed port {self.port_id}")
        # Unexpected traffic is matched in arrival order: RTS entries and
        # eager messages each keep FIFO order; RTS is served first since
        # rendezvous senders are stalled waiting for the CTS.
        for i, rts in enumerate(self.unexpected_rts):
            if recv.accepts(rts.match):
                del self.unexpected_rts[i]
                self.nic._accept_rts(self, rts, recv)
                return
        for i, msg in enumerate(self.unexpected):
            if recv.accepts(msg.match):
                del self.unexpected[i]
                self.nic._deliver_to_recv(self, msg, recv, late_match=True)
                return
        self.posted.append(recv)

    def _match(self, msg_match: int) -> Optional[PostedReceive]:
        for i, recv in enumerate(self.posted):
            if recv.accepts(msg_match):
                if not recv.persistent:
                    del self.posted[i]
                return recv
        return None

    def close(self) -> None:
        self.open = False
        self.posted.clear()
        self.unexpected.clear()
        self.unexpected_rts.clear()


@dataclass
class _PeerTx:
    """Sender-side reliable-delivery state toward one peer NIC."""

    next_seq: int = 1
    unacked: dict = None  # seq -> (Message, wire_bytes), ascending order
    retries: int = 0
    rto_cur: int = 0
    progress: int = 0  # bumped whenever a cumulative ack retires something
    timer_alive: bool = False

    def __post_init__(self):
        if self.unacked is None:
            self.unacked = {}


class _ReliableDelivery:
    """GM-firmware-style reliable delivery for one NIC.

    Mirrors what Myrinet's MCP does below the API layers: every semantic
    wire message (EAGER/RTS/CTS/RDATA) gets a per-peer sequence number, a
    cumulative ack rides piggybacked on all reverse traffic (with a
    delayed standalone ACK as fallback), lost messages are recovered by
    timeout-driven go-back-N retransmission with exponential backoff, and
    duplicates created by retransmission are suppressed at the receiver
    before they can reach port matching.  FRAG packets carry no payload
    semantics (the data rides the final packet) and are left unsequenced;
    a retransmission therefore resends only the semantic packet.

    The sublayer is created by :meth:`Nic.enable_reliability` — fault
    plans do this; the default simulation never pays for it.  After
    ``max_retries`` consecutive timeouts a peer is declared dead
    (:class:`MessageDropped` on subsequent submits); upper layers surface
    the failure through their own timeout budgets.

    Incarnations and sessions
    -------------------------

    Two levels of identity keep restarted conversations sound:

    * The node **incarnation** (``msg.inc``) changes only when the NIC
      actually loses state — a reset, or a crash followed by reboot.
      Sequenced traffic echoes ``dst_epoch``, the *receiver* incarnation
      the sender last heard from, so a restarted receiver can tell a
      stale retransmit (echoing its previous incarnation) from fresh
      traffic and drop it unacked; it answers with an RST-style pure ACK
      carrying its current incarnation.  A sender seeing a newer
      incarnation from a peer knows the peer's receive window for it is
      gone: it abandons the old tx session (unacked messages are
      dropped; upper-layer timeouts recover them), lifts any dead-peer
      verdict, and starts a fresh session — which is what lets a
      rebooted node rejoin a cluster without every peer resetting too.

    * The per-peer tx **session** (``msg.epoch``, from one monotonic
      NIC-wide counter) names one run of the sequence space toward one
      peer.  Restarting a session — after a reboot, or after a give-up
      retired the old one — starts a new epoch at seq 1; the receiver
      adopts any *newer* session by resetting its receive window, and
      drops leftovers of older sessions as duplicates.  Session
      restarts are deliberately *local*: adopting a peer's new session
      touches only the receive window for that peer, never our own
      transmit state, so a benign restart cannot cascade.
    """

    def __init__(self, nic: "Nic", params: ReliabilityParams, tracer=None):
        self.nic = nic
        self.env = nic.env
        self.params = params
        self.tracer = tracer
        #: Our node incarnation: bumped only by reset()/crash recovery,
        #: i.e. whenever receive state was genuinely lost.
        self.incarnation = 1
        #: Monotonic source of tx session epochs (never rewinds, so a
        #: restarted session is always *newer* on the wire).
        self._session_gen = 0
        self._session: dict[int, int] = {}  # peer -> our tx session epoch
        self._tx: dict[int, _PeerTx] = {}  # peer -> sender state
        self._rx_last: dict[int, int] = {}  # peer -> last in-order seq seen
        self._rx_session: dict[int, int] = {}  # peer -> its tx session epoch
        self._rx_inc: dict[int, int] = {}  # peer -> its incarnation
        self._last_acked_sent: dict[int, int] = {}  # peer -> last ack emitted
        self._ack_pending: set[int] = set()
        self._rst_pending: set[int] = set()
        self.dead_peers: dict[int, MessageDropped] = {}
        self._dead_since: dict[int, int] = {}  # peer -> verdict time

    def _emit(self, category: str, label: str, payload=None) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.env.now, category, label, payload)

    def _wants(self, category: str) -> bool:
        """Cheap pre-check so hot paths skip building payload dicts."""
        return self.tracer is not None and self.tracer.wants(category)

    def reset(self) -> None:
        """Forget all sequencing state (NIC reset / crash).

        The incarnation advances; the session-epoch counter does not
        rewind, so post-reset sessions still read as newer to peers.
        """
        self.incarnation += 1
        self._tx.clear()
        self._session.clear()
        self._rx_last.clear()
        self._rx_session.clear()
        self._rx_inc.clear()
        self._last_acked_sent.clear()
        self.dead_peers.clear()
        self._dead_since.clear()

    # -- transmit side ------------------------------------------------------

    def stamp(self, msg: Message, nbytes: int) -> None:
        """Sequence an outgoing message and arm retransmission.

        Called immediately before the wire transmit, with no intervening
        yields, so sequence order equals wire FIFO order.
        """
        peer = msg.dst_nic
        msg.ack = self._rx_last.get(peer, 0)
        msg.ack_epoch = self._rx_session.get(peer, 0)
        self._last_acked_sent[peer] = msg.ack
        # Every reliability-stamped message — pure ACKs included —
        # carries the sender's incarnation and an echo of the receiver
        # incarnation it believes it is talking to (0 = never heard).
        msg.inc = self.incarnation
        msg.dst_epoch = self._rx_inc.get(peer, 0)
        if msg.kind is MsgKind.ACK:
            msg.epoch = self._session.get(peer, 0)
            return  # pure acks are not themselves sequenced or acked
        st = self._tx.get(peer)
        if st is None:
            st = self._tx[peer] = _PeerTx(rto_cur=self.params.rto_ns)
            self._session_gen += 1
            self._session[peer] = self._session_gen
        msg.epoch = self._session[peer]
        msg.seq = st.next_seq
        st.next_seq += 1
        st.unacked[msg.seq] = (msg, nbytes)
        if not st.timer_alive:
            st.timer_alive = True
            self.env.process(
                self._retrans_timer(peer), name=f"{self.nic.name}.rto"
            )

    def _process_ack(self, peer: int, ack: int, ack_epoch: int) -> None:
        if ack_epoch != self._session.get(peer, 0):
            return  # ack for a previous session toward this peer
        st = self._tx.get(peer)
        if st is None:
            return
        progressed = False
        for seq in list(st.unacked):
            if seq > ack:
                break
            del st.unacked[seq]
            progressed = True
        if progressed:
            st.progress += 1
            st.retries = 0
            st.rto_cur = self.params.rto_ns

    def _retrans_timer(self, peer: int):
        st = self._tx[peer]
        try:
            while True:
                progress_at_sleep = st.progress
                yield self.env.timeout(st.rto_cur)
                if self.nic.crashed or not st.unacked:
                    return
                if self._tx.get(peer) is not st:
                    return  # session restarted under us; a new timer owns it
                if st.progress != progress_at_sleep:
                    continue  # acks flowed meanwhile; rto was reset
                st.retries += 1
                if st.retries > self.params.max_retries:
                    exc = MessageDropped(
                        f"{self.nic.name}: peer {peer} unreachable after "
                        f"{self.params.max_retries} retransmission rounds "
                        f"({len(st.unacked)} messages abandoned)"
                    )
                    self.dead_peers[peer] = exc
                    obs.counter("nic.tx.giveups",
                                node=self.nic.node_id, peer=peer).inc()
                    self._emit("nic", "giveup", {
                        "peer": peer, "abandoned": len(st.unacked),
                    })
                    st.unacked.clear()
                    # Retire the session toward this peer: a later probe
                    # (after a TTL expiry or an incarnation change) then
                    # starts a fresh session epoch at seq 1, which the
                    # peer adopts instead of swallowing as duplicates of
                    # the dead conversation.  Other peers are untouched.
                    self._dead_since[peer] = self.env.now
                    self._tx.pop(peer, None)
                    self._session.pop(peer, None)
                    return
                if self._wants("nic"):
                    self._emit("nic", "retransmit", {
                        "peer": peer,
                        "count": len(st.unacked),
                        "round": st.retries,
                        "rto_ns": st.rto_cur,
                    })
                st.rto_cur = min(st.rto_cur * 2, self.params.rto_max_ns)
                # Go-back-N: resend everything still unacked, in order.
                for seq in list(st.unacked):
                    entry = st.unacked.get(seq)
                    if entry is None:
                        continue  # acked while we were retransmitting
                    msg, nbytes = entry
                    self.nic.retransmissions += 1
                    obs.counter("nic.tx.retransmits",
                                node=self.nic.node_id, peer=peer).inc()
                    yield from self.nic.fw.acquire(self.params.retransmit_fw_ns)
                    msg.ack = self._rx_last.get(msg.dst_nic, 0)
                    msg.ack_epoch = self._rx_session.get(msg.dst_nic, 0)
                    yield from self.nic._link.transmit(
                        self.nic._link_end, msg, nbytes
                    )
        finally:
            st.timer_alive = False

    # -- receive side -------------------------------------------------------

    def on_arrival(self, msg: Message) -> Optional[Message]:
        """Filter an arriving wire message; returns the message if it
        should proceed to port matching, or None if consumed."""
        if msg.corrupted:
            # Firmware CRC check fails; drop without acking so the
            # sender's retransmission recovers the payload.
            self.nic._m_crc.inc()
            if self._wants("fault"):
                self._emit("fault", "corrupt_drop", {
                    "src": msg.src_nic, "seq": msg.seq, "kind": msg.kind.value,
                })
            return None
        peer = msg.src_nic
        if msg.kind is MsgKind.ACK:
            if msg.inc and msg.inc < self._rx_inc.get(peer, 0):
                # A leftover ack from the peer's previous incarnation
                # must not retire messages of the re-established session.
                self.nic._m_dup.inc()
                if self._wants("nic"):
                    self._emit("nic", "stale_ack", {"peer": peer})
                return None
            if msg.inc and msg.inc > self._rx_inc.get(peer, 0):
                # RST-style news: the peer runs a newer incarnation than
                # the one our session targeted.  Re-establish.
                self._peer_rebooted(peer, msg.inc)
            if msg.epoch > self._rx_session.get(peer, 0):
                self._adopt_session(peer, msg.epoch)
            if msg.ack:
                self._process_ack(peer, msg.ack, msg.ack_epoch)
            return None
        if msg.seq == 0:
            if msg.ack:
                self._process_ack(peer, msg.ack, msg.ack_epoch)
            return msg  # unsequenced traffic (reliability raced enabling)
        if msg.dst_epoch and msg.dst_epoch != self.incarnation:
            # The sender is talking to a previous incarnation of *us*:
            # a stale retransmit that predates our reset.  It must not
            # be delivered or acked as current — its payload was part of
            # a conversation our reboot lost.  Answer with an RST-style
            # pure ACK so the sender abandons that session and
            # re-establishes.
            self.nic._m_dup.inc()
            if self._wants("nic"):
                self._emit("nic", "stale_incarnation", {
                    "peer": peer, "seq": msg.seq, "for_epoch": msg.dst_epoch,
                })
            self._schedule_rst(peer)
            return None
        if msg.inc < self._rx_inc.get(peer, 0):
            # In-flight leftover from before the peer's reset: drop it
            # whole — its piggybacked ack belongs to a dead conversation.
            self.nic._m_dup.inc()
            if self._wants("nic"):
                self._emit("nic", "stale_epoch", {"peer": peer, "seq": msg.seq})
            return None
        if msg.inc > self._rx_inc.get(peer, 0):
            self._peer_rebooted(peer, msg.inc)
        if msg.epoch < self._rx_session.get(peer, 0):
            # Leftover of an older, retired session.  Its piggybacked
            # ack is still sound (retransmits re-stamp acks, and the
            # ack_epoch guard rejects anything for a dead tx session),
            # but the payload is a duplicate of a conversation already
            # torn down — drop it without acking.
            if msg.ack:
                self._process_ack(peer, msg.ack, msg.ack_epoch)
            self.nic._m_dup.inc()
            if self._wants("nic"):
                self._emit("nic", "stale_epoch", {"peer": peer, "seq": msg.seq})
            return None
        if msg.epoch > self._rx_session.get(peer, 0):
            # The peer restarted its sequence space in a new session;
            # accept the restart instead of treating seq 1 as a duplicate.
            self._adopt_session(peer, msg.epoch)
        if msg.ack:
            self._process_ack(peer, msg.ack, msg.ack_epoch)
        last = self._rx_last.get(peer, 0)
        if msg.seq == last + 1:
            self._rx_last[peer] = msg.seq
            self._schedule_ack(peer)
            return msg
        if msg.seq <= last:
            self.nic._m_dup.inc()
            if self._wants("nic"):
                self._emit("nic", "duplicate", {"peer": peer, "seq": msg.seq})
            self._schedule_ack(peer)  # re-ack so the sender stops resending
            return None
        # A gap: something before this message was lost.  Go-back-N:
        # drop it and let the sender's timeout resend the whole window.
        if self._wants("nic"):
            self._emit("nic", "gap", {
                "peer": peer, "seq": msg.seq, "expected": last + 1,
            })
        self._schedule_ack(peer)
        return None

    def _peer_rebooted(self, peer: int, inc: int) -> None:
        """Adopt a peer's new incarnation.  Its receive window for us is
        gone, so our transmit session toward it is dead: abandon it
        (upper-layer timeouts re-issue over a fresh session).  Our own
        receive state for the peer is likewise stale — clear it so the
        peer's post-reboot sessions are adopted cleanly."""
        known = self._rx_inc.get(peer, 0)
        self._rx_inc[peer] = inc
        if known:
            self._emit("nic", "resync", {"peer": peer, "epoch": inc})
            st = self._tx.pop(peer, None)
            self._session.pop(peer, None)
            if st is not None and st.unacked:
                obs.counter("nic.tx.session_aborts",
                            node=self.nic.node_id, peer=peer).inc()
                st.unacked.clear()  # the live retrans timer exits on this
        if self.dead_peers.pop(peer, None) is not None:
            self._dead_since.pop(peer, None)
            self._emit("nic", "peer_alive", {"peer": peer})
        self._rx_session.pop(peer, None)
        self._rx_last.pop(peer, None)
        self._last_acked_sent.pop(peer, None)

    def _adopt_session(self, peer: int, epoch: int) -> None:
        """The peer started a new tx session toward us: restart the
        receive window.  Strictly local — our own tx state is untouched,
        so a benign session restart cannot cascade."""
        self._rx_session[peer] = epoch
        self._rx_last[peer] = 0
        self._last_acked_sent.pop(peer, None)

    def dead_verdict(self, peer: int) -> Optional[MessageDropped]:
        """The standing dead-peer verdict for ``peer``, if any.

        With ``dead_peer_ttl_ns`` set, a verdict older than the TTL is
        lifted on the next submit — the sender probes the peer again
        over the session space it restarted at give-up time.  The
        default TTL of 0 keeps verdicts permanent (the historical
        behavior): only an incarnation change lifts them.
        """
        exc = self.dead_peers.get(peer)
        if exc is None:
            return None
        ttl = self.params.dead_peer_ttl_ns
        if ttl and self.env.now - self._dead_since.get(peer, 0) >= ttl:
            del self.dead_peers[peer]
            self._dead_since.pop(peer, None)
            self._emit("nic", "peer_probe", {"peer": peer})
            return None
        return exc

    def _schedule_rst(self, peer: int) -> None:
        """Queue an RST-style pure ACK telling ``peer`` our current
        incarnation (throttled to one in flight per peer)."""
        if peer in self._rst_pending:
            return
        self._rst_pending.add(peer)
        self.env.process(self._rst_proc(peer), name=f"{self.nic.name}.rst")

    def _rst_proc(self, peer: int):
        yield self.env.timeout(self.params.ack_delay_ns)
        self._rst_pending.discard(peer)
        if self.nic.crashed:
            return
        rst = Message(
            kind=MsgKind.ACK,
            src_nic=self.nic.node_id,
            src_port=0,
            dst_nic=peer,
            dst_port=0,
            match=0,
            size=0,
        )
        obs.counter("nic.tx.rsts", node=self.nic.node_id).inc()
        self.nic._m_acks.inc()
        yield from self.nic.fw.acquire(self.params.ack_fw_ns)
        yield from self.nic._wire_out(rst, self.nic.params.ctrl_message_bytes)

    def _schedule_ack(self, peer: int) -> None:
        if peer in self._ack_pending:
            return  # an ack is already queued; it will carry the latest seq
        self._ack_pending.add(peer)
        self.env.process(self._ack_proc(peer), name=f"{self.nic.name}.ack")

    def _ack_proc(self, peer: int):
        yield self.env.timeout(self.params.ack_delay_ns)
        self._ack_pending.discard(peer)
        if self.nic.crashed:
            return
        last = self._rx_last.get(peer, 0)
        if self._last_acked_sent.get(peer, 0) >= last:
            return  # a piggybacked ack already covered everything
        ack = Message(
            kind=MsgKind.ACK,
            src_nic=self.nic.node_id,
            src_port=0,
            dst_nic=peer,
            dst_port=0,
            match=0,
            size=0,
        )
        self.nic._m_acks.inc()
        yield from self.nic.fw.acquire(self.params.ack_fw_ns)
        yield from self.nic._wire_out(ack, self.nic.params.ctrl_message_bytes)


class Nic:
    """A Myrinet network interface card attached to one host."""

    def __init__(
        self,
        env: Environment,
        params: NicParams,
        phys: PhysicalMemory,
        node_id: int,
        name: str = "nic",
    ):
        self.env = env
        self.params = params
        self.phys = phys
        self.node_id = node_id
        self.name = name
        self.fw = Resource(env, 1, f"{name}.fw")  # the LANai processor
        self.pci = Resource(env, 1, f"{name}.pci")
        self.transtable = TranslationTable(params.translation_table_entries)
        self.ports: dict[int, NicPort] = {}
        # Arrivals waiting for the firmware receive path (see
        # _on_wire_arrival); _rx_busy while one message is in it.
        self._rx_backlog: deque[Message] = deque()
        self._rx_busy = False
        self._link: Optional[Link] = None
        self._link_end: str = "a"
        self._pending_rndv: dict[int, _PendingRendezvous] = {}
        self._stalled_rndv: dict[int, SendDescriptor] = {}
        # Per-NIC accounting on the metrics registry (unregistered
        # per-instance counters while no registry is installed); the
        # classic attribute names below read through to them.
        self._m_tx = obs.counter("nic.tx.messages", node=node_id)
        self._m_tx_bytes = obs.counter("nic.tx.bytes", node=node_id)
        self._m_rx = obs.counter("nic.rx.messages", node=node_id)
        self._m_rx_bytes = obs.counter("nic.rx.bytes", node=node_id)
        self._m_dup = obs.counter("nic.rx.duplicates", node=node_id)
        self._m_crc = obs.counter("nic.rx.crc_drops", node=node_id)
        self._m_acks = obs.counter("nic.tx.acks", node=node_id)
        # Reliable-delivery sublayer: None until a fault plan (or a test)
        # calls enable_reliability(); every hot-path hook is an `is None`
        # check so the perfect-fabric simulation is unchanged.
        self._rel: Optional[_ReliableDelivery] = None
        #: Analytic flow engine (repro.hw.flow.FlowNetwork), installed by
        #: fabric topology builders; None on direct links and classic
        #: stars, so their packet paths are untouched.
        self.flownet = None
        self.crashed = False
        #: Total retransmitted messages; per-peer detail lives on the
        #: registry as ``nic.tx.retransmits{node=...,peer=...}``.
        self.retransmissions = 0

    @property
    def messages_sent(self) -> int:
        return self._m_tx.value

    @property
    def messages_received(self) -> int:
        return self._m_rx.value

    @property
    def duplicates_dropped(self) -> int:
        return self._m_dup.value

    @property
    def crc_drops(self) -> int:
        return self._m_crc.value

    @property
    def acks_sent(self) -> int:
        return self._m_acks.value

    # -- wiring ------------------------------------------------------------

    def attach_link(self, link: Link, end: str) -> None:
        """Plug this NIC into one end of a link."""
        if self._link is not None:
            raise NicError(f"{self.name} already attached to a link")
        self._link = link
        self._link_end = end
        link.attach(end, self._on_wire_arrival)

    def open_port(self, port_id: int, costs: ApiCosts) -> NicPort:
        """Open a communication port with the given API cost profile."""
        if port_id in self.ports and self.ports[port_id].open:
            raise PortError(f"port {port_id} already open on {self.name}")
        port = NicPort(self, port_id, costs)
        self.ports[port_id] = port
        return port

    def port(self, port_id: int) -> NicPort:
        try:
            port = self.ports[port_id]
        except KeyError:
            raise PortError(f"no port {port_id} on {self.name}") from None
        if not port.open:
            raise PortError(f"port {port_id} on {self.name} is closed")
        return port

    # -- fault-tolerance lifecycle -------------------------------------------

    def enable_reliability(
        self,
        params: ReliabilityParams = DEFAULT_RELIABILITY,
        tracer=None,
    ) -> None:
        """Turn on GM-firmware-style reliable delivery on this NIC.

        Idempotent; installed by :meth:`repro.faults.FaultPlan.install`.
        Both ends of a conversation must enable it (the fault plan
        enables every NIC it is given).
        """
        if self._rel is None:
            self._rel = _ReliableDelivery(self, params, tracer)

    def crash(self) -> None:
        """The host died: the NIC stops sending, receiving, and acking.
        Subsequent submits raise :class:`NodeCrashed`."""
        self.crashed = True
        if self._rel is not None:
            self._rel.reset()

    def reset(self) -> None:
        """Firmware reset: wipe volatile NIC state (translations, pending
        rendezvous, sequence numbers) but come back up able to talk."""
        self.crashed = False
        self.transtable = TranslationTable(self.params.translation_table_entries)
        self._pending_rndv.clear()
        self._stalled_rndv.clear()
        if self._rel is not None:
            self._rel.reset()

    # -- host-facing send entry ----------------------------------------------

    def submit(self, desc: SendDescriptor) -> Event:
        """Submit a send descriptor (the doorbell write has already been
        charged by the API layer).  Returns the completion event.

        Fault surfacing happens here, synchronously in the caller's
        generator, never inside NIC processes: a crashed local NIC raises
        :class:`NodeCrashed`, a peer the reliability layer has given up
        on raises :class:`MessageDropped`, and a down link with no
        reliability layer to mask it raises :class:`LinkDown`.
        """
        if self._link is None:
            raise NicError(f"{self.name} not attached to a link")
        if self.crashed:
            raise NodeCrashed(f"{self.name}: local node has crashed")
        if self._rel is not None:
            dead = self._rel.dead_verdict(desc.dst_nic)
            if dead is not None:
                raise MessageDropped(
                    f"{self.name}: peer {desc.dst_nic} declared unreachable: {dead}"
                )
        elif self._link.is_down:
            raise LinkDown(
                f"{self.name}: link {self._link.name} is down and no "
                f"reliable-delivery layer is enabled to mask the outage"
            )
        if desc.completion is None:
            desc.completion = self.env.event(f"{self.name}.sendcomp")
        if desc.data is not None and not isinstance(desc.data, PayloadRef):
            desc.data = PayloadRef.from_bytes(desc.data)  # wrap, no copy
        self.env.process(self._tx_process(desc), name=f"{self.name}.tx")
        return desc.completion

    # -- transmit path ---------------------------------------------------------

    def _tx_process(self, desc: SendDescriptor):
        # Firmware picks up the descriptor and does per-message work.
        fw_time = desc.fw_send_ns
        if desc.translate_tx:
            fw_time += self.params.translation_lookup_ns
        yield from self.fw.acquire(fw_time)
        if desc.rendezvous:
            rndv_id = self.env.next_id("nic.rndv")
            self._stalled_rndv[rndv_id] = desc
            rts = Message(
                kind=MsgKind.RTS,
                src_nic=self.node_id,
                src_port=desc.src_port,
                dst_nic=desc.dst_nic,
                dst_port=desc.dst_port,
                match=desc.match,
                size=desc.size,
                rndv_id=rndv_id,
                meta=desc.meta,
            )
            yield from self._wire_out(rts, self.params.ctrl_message_bytes)
            # Data moves later, when the CTS comes back (_on_cts).
            return
        yield from self._transmit_data(desc, MsgKind.EAGER, rndv_id=0)

    def _transmit_data(self, desc: SendDescriptor, kind: MsgKind, rndv_id: int):
        # DMA from host memory: hold the PCI bus while feeding the wire
        # (cut-through: the wire starts after a small lag, and since PCI
        # outpaces the link, the wire is the pacing resource).
        tx_span = obs.span_begin(
            self.env, "nic", f"tx.{kind.value}",
            pid=self.node_id, tid=desc.src_port,
            size=desc.size, dst=desc.dst_nic,
        )
        pci_req = self.pci.request()
        yield pci_req
        try:
            if desc.large_setup_ns:
                yield self.env.timeout(desc.large_setup_ns)
            yield self.env.timeout(self.params.dma_setup_ns)
            data = desc.data
            if data is None and desc.sg is not None:
                # DMA gather: take zero-copy views of the source frames.
                # The frames detach copy-on-write if the host reuses the
                # buffer while the message is still in flight.
                data = PayloadRef.from_phys(self.phys, desc.sg)
            yield self.env.timeout(self.params.link.cut_through_lag_ns)
            assert self._link is not None
            # Fragment onto the wire at MTU granularity so switches can
            # forward packets while later ones still stream in (wormhole
            # behaviour at packet resolution).  Only the final packet is
            # a semantic message; FRAG packets pace the wire.
            mtu = self.params.mtu_bytes
            remaining = desc.size
            if remaining > mtu:
                remaining = yield from self._emit_frags(desc, remaining, mtu)
            while remaining > mtu:
                frag = Message(
                    kind=MsgKind.FRAG,
                    src_nic=self.node_id,
                    src_port=desc.src_port,
                    dst_nic=desc.dst_nic,
                    dst_port=desc.dst_port,
                    match=desc.match,
                    size=mtu,
                    wire_size=mtu,
                )
                yield from self._link.transmit(self._link_end, frag, mtu)
                remaining -= mtu
            msg = Message(
                kind=kind,
                src_nic=self.node_id,
                src_port=desc.src_port,
                dst_nic=desc.dst_nic,
                dst_port=desc.dst_port,
                match=desc.match,
                size=desc.size,
                data=data,
                rndv_id=rndv_id,
                meta=desc.meta,
                rma_offset=desc.rma_offset,
                wire_size=remaining,
            )
            # Stamping and transmit entry are atomic (no yield between
            # them), so sequence order equals wire FIFO order.
            if self._rel is not None:
                self._rel.stamp(msg, remaining)
            yield from self._link.transmit(self._link_end, msg, remaining)
        finally:
            pci_req.release()
        self._m_tx.inc()
        self._m_tx_bytes.inc(desc.size)
        obs.span_end(self.env, tx_span)
        assert desc.completion is not None
        desc.completion.succeed(
            SendCompletion(tag=desc.tag, size=desc.size, finished_at=self.env.now)
        )

    def _emit_frags(self, desc: SendDescriptor, remaining: int, mtu: int):
        """Put the FRAG train of a fragmented message on the wire.

        Tries the analytic fast path first: if the whole burst of
        ``nfrags`` pacing packets would cross an idle, fault-free,
        untraced link, one :class:`PacketTrain` replaces the per-packet
        loop with identical wire occupancy and timestamps.  Returns the
        bytes still to send; anything above one MTU falls through to
        the caller's classic per-packet loop (the de-coalesced case, or
        the tail of a train a competitor cut short).
        """
        fl = self.flownet
        if fl is not None:
            remaining = yield from fl.carry(self, desc, remaining, mtu)
            if remaining != desc.size:
                # The flow carried at least one packet.  If it was cut
                # short (de-coalesced), the tail goes per-packet in the
                # caller's loop — a train sized from ``desc.size`` would
                # misdescribe it.
                return remaining
        nfrags = (desc.size - 1) // mtu
        if nfrags < MIN_TRAIN_FRAGS or not coalescing_enabled():
            return remaining
        assert self._link is not None
        why = self._link.train_block_reason(self._link_end)
        if why is not None:
            obs.counter("net.train_decoalesce",
                        where=f"nic{self.node_id}", reason=why).inc()
            return remaining
        train = PacketTrain(
            src_nic=self.node_id,
            src_port=desc.src_port,
            dst_nic=desc.dst_nic,
            dst_port=desc.dst_port,
            match=desc.match,
            npackets=nfrags,
            wire_size=mtu,
            train_id=self.env.next_id("train"),
        )
        run = TrainRun(nfrags)
        sent = yield from self._link.transmit_train(self._link_end, train, run)
        obs.counter("net.trains", node=self.node_id).inc()
        obs.histogram("net.train_len", buckets=TRAIN_LEN_BUCKETS).observe(sent)
        if sent < nfrags:
            obs.counter("net.train_splits", where=f"nic{self.node_id}").inc()
        return remaining - sent * mtu

    def _wire_out(self, msg: Message, nbytes: int):
        """Send a control message (no host DMA)."""
        assert self._link is not None
        msg.wire_size = nbytes
        yield self.env.timeout(self.params.link.cut_through_lag_ns)
        if self._rel is not None:
            self._rel.stamp(msg, nbytes)
        yield from self._link.transmit(self._link_end, msg, nbytes)

    # -- receive path -----------------------------------------------------------

    def _on_wire_arrival(self, msg: Message) -> None:
        if msg.dst_nic != self.node_id:
            raise NicError(
                f"{self.name} (node {self.node_id}) got message for node {msg.dst_nic}"
            )
        if self.crashed:
            return  # dead silicon: bits hit the connector and vanish
        if self._rx_busy:
            self._rx_backlog.append(msg)
        else:
            self._rx_busy = True
            self.env.call_at(self.env.now, self._rx_start, msg)

    # The firmware receive path handles one message at a time, in
    # arrival order, as a chain of callbacks: each firmware hold is a
    # ``fw.hold_then`` whose continuation is the next step, and the last
    # step calls _rx_next.  A message starts in an immediate slot of its
    # own — when it arrives at an idle path, or when its predecessor
    # finishes — and every firmware hold ends in the slot a process
    # doing ``yield from fw.acquire(...)`` would resume in.

    def _rx_next(self) -> None:
        """The current message is done: start the next one, if any."""
        if self._rx_backlog:
            self.env.call_at(self.env.now, self._rx_start,
                             self._rx_backlog.popleft())
        else:
            self._rx_busy = False

    def _rx_start(self, msg: Message) -> None:
        if msg.kind is MsgKind.FRAG:
            # Pacing packet of a fragmented message: the semantic
            # message (and all per-message costs) ride the final one.
            self._rx_next()
            return
        if self._rel is not None:
            msg = self._rel.on_arrival(msg)
            if msg is None:
                self._rx_next()  # ack / duplicate / gap / CRC failure
                return
        if msg.kind is MsgKind.CTS:
            self.fw.hold_then(self._ctrl_fw_cost(msg), self._rx_cts, msg)
            return
        port = self.ports.get(msg.dst_port)
        if port is None or not port.open:
            # Message to nowhere: real GM raises an error event at the
            # sender; dropping here keeps the model simple and loud in
            # tests via the counters.
            self._rx_next()
            return
        costs = port.costs
        if msg.kind is MsgKind.RTS:
            self.fw.hold_then(costs.fw_recv_ns, self._rx_rts, port, msg)
            return
        # EAGER or RDATA
        self.fw.hold_then(costs.fw_recv_ns + self.params.dma_setup_ns,
                          self._rx_data, port, msg)

    def _rx_cts(self, msg: Message) -> None:
        self._on_cts(msg)
        self._rx_next()

    def _rx_rts(self, port: NicPort, msg: Message) -> None:
        recv = port._match(msg.match)
        if recv is None:
            port.unexpected_rts.append(msg)
        else:
            self._accept_rts(port, msg, recv)
        self._rx_next()

    def _rx_data(self, port: NicPort, msg: Message) -> None:
        if msg.kind is MsgKind.RDATA:
            pending = self._pending_rndv.pop(msg.rndv_id, None)
            if pending is None:
                if self._rel is not None:
                    # A NIC reset wiped the pending-rendezvous table;
                    # the sender's give-up path reports the failure.
                    self._rx_next()
                    return
                raise NicError(f"RDATA with unknown rendezvous id {msg.rndv_id}")
            recv = pending.recv
        else:
            recv = port._match(msg.match)
        if recv is None:
            port.unexpected.append(msg)
            self._rx_next()
            return
        if recv.translate_rx:
            # The posted buffer is registered-virtual: the NIC looks
            # up its translation before the deposit DMA (the 0.5 us
            # the paper's physical primitives save on this side).
            self.fw.hold_then(self.params.translation_lookup_ns,
                              self._rx_deposit, port, msg, recv)
            return
        self._rx_deposit(port, msg, recv)

    def _rx_deposit(self, port: NicPort, msg: Message,
                    recv: PostedReceive) -> None:
        self._complete_receive(port, msg, recv)
        self._rx_next()

    def _ctrl_fw_cost(self, msg: Message) -> int:
        # Control messages are handled entirely in firmware; charge a
        # conservative half of the data-path receive cost.
        desc = self._stalled_rndv.get(msg.rndv_id)
        fw = desc.fw_send_ns if desc is not None else 500
        return max(200, fw // 2)

    def _accept_rts(self, port: NicPort, rts: Message, recv: PostedReceive) -> None:
        """A rendezvous request met a posted receive: emit the CTS."""
        pending = _PendingRendezvous(
            recv=recv,
            size=rts.size,
            match=rts.match,
            src_nic=rts.src_nic,
            src_port=rts.src_port,
        )
        self._pending_rndv[rts.rndv_id] = pending
        cts = Message(
            kind=MsgKind.CTS,
            src_nic=self.node_id,
            src_port=rts.dst_port,
            dst_nic=rts.src_nic,
            dst_port=rts.src_port,
            match=rts.match,
            size=rts.size,
            rndv_id=rts.rndv_id,
        )

        def _send_cts(env):
            yield from self.fw.acquire(port.costs.fw_send_ns // 2)
            yield from self._wire_out(cts, self.params.ctrl_message_bytes)

        self.env.process(_send_cts(self.env), name=f"{self.name}.cts")

    def _on_cts(self, cts: Message) -> None:
        desc = self._stalled_rndv.pop(cts.rndv_id, None)
        if desc is None:
            if self._rel is not None:
                return  # stale CTS from before a NIC reset
            raise NicError(f"CTS with unknown rendezvous id {cts.rndv_id}")
        self.env.process(
            self._transmit_data(desc, MsgKind.RDATA, rndv_id=cts.rndv_id),
            name=f"{self.name}.rdata",
        )

    def _deliver_to_recv(
        self, port: NicPort, msg: Message, recv: PostedReceive, late_match: bool = False
    ) -> None:
        """Deliver a buffered unexpected eager message to a late receive."""
        self._complete_receive(port, msg, recv)

    def _complete_receive(
        self, port: NicPort, msg: Message, recv: PostedReceive
    ) -> None:
        if msg.rma_offset and msg.rma_offset + msg.size > recv.capacity:
            raise NicError(
                f"directed send past the window end: offset {msg.rma_offset} "
                f"+ size {msg.size} > capacity {recv.capacity}"
            )
        truncated = msg.size > recv.capacity
        nbytes = min(msg.size, recv.capacity)
        if msg.data is not None and recv.dest_sg is not None:
            # DMA scatter: distribute the payload's chunk views straight
            # into the destination segments — no intermediate bytes.
            self.phys.write_phys_sg(
                recv.dest_sg, msg.data.slice(0, nbytes), skip=msg.rma_offset
            )
        completion = ReceiveCompletion(
            tag=recv.tag,
            size=nbytes,
            match=msg.match,
            src_nic=msg.src_nic,
            src_port=msg.src_port,
            data=msg.data.slice(0, nbytes) if (recv.keep_data and msg.data is not None) else None,
            finished_at=self.env.now,
            truncated=truncated,
            meta=msg.meta,
        )
        self._m_rx.inc()
        self._m_rx_bytes.inc(nbytes)
        obs.instant(
            self.env, "nic", f"rx.{msg.kind.value}",
            pid=self.node_id, tid=msg.dst_port,
            size=nbytes, src=msg.src_nic,
        )
        if recv.completion is not None and not recv.persistent:
            recv.completion.succeed(completion)
        if port.completion_sink is not None and not recv.persistent:
            # RMA deposits are silent at the target (GM directed-send
            # semantics): no event is raised for persistent windows.
            port.completion_sink(completion)

    # -- host-side convenience (used by API layers) --------------------------

    def doorbell_time_ns(self) -> int:
        return self.params.doorbell_ns

    def eager_one_way_floor_ns(self, size: int) -> int:
        """Analytic lower bound of the fabric time for an eager message
        (useful in tests as a sanity reference, not used by the model)."""
        p = self.params
        return (
            p.doorbell_ns
            + 2 * p.dma_setup_ns
            + p.link.cut_through_lag_ns
            + transfer_time_ns(size, p.link.link_bandwidth)
            + p.link.propagation_ns
        )
