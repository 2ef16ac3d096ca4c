"""A crossbar switch for multi-node and multi-switch topologies.

The paper's experiments are two-node, but ORFS serves multiple clients
and the examples build small clusters, so a switch is provided.  Each
node connects to the switch by its own full-duplex :class:`Link`; the
switch forwards by destination node id with a small crossing cost
(cut-through, one arbitration per message).

Fabric mode
-----------

A switch can additionally hold *trunk* ports to other switches
(:meth:`attach_trunk`) and a routing table (:meth:`set_topology`):
destinations that are not directly attached resolve — via a shared
node→switch locator — to a destination switch, and that switch's entry
lists the equal-cost candidate trunk ports computed by the topology
builder (:mod:`repro.cluster.topo`).  Among candidates the switch picks
either by deterministic ECMP flow hashing (``routing="ecmp"``, the
default: every packet of one flow takes one path) or adaptively by
least-queued egress skipping down links (``routing="adaptive"``).
Output ports may carry a finite egress buffer
(``egress_buffer_bytes``): when queued-plus-in-service bytes would
exceed it, the packet is drop-tailed and counted as a congestion drop —
the same recovery contract as carrier loss (NIC reliability layer, if
enabled, retransmits; FRAG pacing packets need no recovery).

Packet trains
-------------

A :class:`~repro.hw.train.PacketTrain` arriving on an ingress port is
forwarded as one analytic hold on the output port when that port is
eligible (idle, fault-free, untraced, same pacing as the input) —
otherwise the switch *de-coalesces*: it re-materializes the individual
FRAG packets at exactly the times they would have crossed per-packet
(ingress arrival pacing plus the crossing cost) and pushes them through
the ordinary egress path, competing fairly with other flows.  An
upstream :class:`~repro.hw.train.TrainTruncation` caps either form:
the analytic hold re-plans, scheduled per-packet forwards for packets
that never entered the fabric are cancelled at fire time.

The flow engine (:mod:`repro.hw.flow`) sits one level above and needs
two things from the switch: :meth:`peek_route` (the pure, side-effect-
free replay of the ECMP decision, used to freeze a flow's path at
admission) and :meth:`flow_frag_egress` (re-materialization of in-
flight packets when a flow de-coalesces mid-fabric).
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from .. import obs
from ..errors import NetworkError
from ..sim import Environment
from .link import Link
from .nic import Message, MsgKind
from .params import LinkParams
from .train import PacketTrain, TrainRun, TrainTruncation
from .wire import ecmp_hash


class Switch:
    """Crossbar switch: host links routed by node id, trunks by table."""

    def __init__(self, env: Environment, link_params: LinkParams,
                 crossing_ns: int = 300, name: str = "switch",
                 routing: str = "ecmp", ecmp_seed: int = 1,
                 egress_buffer_bytes: Optional[int] = None):
        if routing not in ("ecmp", "adaptive"):
            raise NetworkError(f"routing must be 'ecmp' or 'adaptive', "
                               f"got {routing!r}")
        self.env = env
        self.link_params = link_params
        self.crossing_ns = crossing_ns
        self.name = name
        self.routing = routing
        self.ecmp_seed = ecmp_seed
        self.egress_buffer_bytes = egress_buffer_bytes
        self._links: dict[int, Link] = {}  # node id -> link to that node
        #: Trunk ports to neighbouring switches: port id -> (link, held end).
        self._trunks: dict[int, tuple[Link, str]] = {}
        #: Routing table: destination switch name -> equal-cost trunk
        #: port candidates (sorted; set by the topology builder).
        self._switch_routes: dict[str, tuple[int, ...]] = {}
        #: Shared node id -> switch name locator (one dict per fabric).
        self._locator: Optional[dict[int, str]] = None
        #: Per-egress-link occupancy in bytes (queued + in service).
        #: Maintained only when something reads it (finite buffer or
        #: adaptive routing) so the classic star hot path is untouched.
        self._eq: dict[Link, int] = {}
        self._track_q = routing == "adaptive" or egress_buffer_bytes is not None
        #: In-flight train transits keyed by ``train_id``.
        self._train_runs: dict[int, TrainRun] = {}
        #: Optional fault tracer (set by repro.faults.FaultPlan.install).
        self.tracer = None
        # Crossbar accounting on the metrics registry (unregistered
        # per-instance counters while no registry is installed).
        self._m_forwards = obs.counter("switch.forwards", switch=name)
        self._m_bytes = obs.counter("switch.bytes", switch=name)
        self._m_dropped = obs.counter("switch.drops", switch=name)
        # Congestion drops get their own counter lazily: it only exists
        # on fabrics that configured a finite buffer and overflowed it.
        self._m_congestion = None

    @property
    def messages_dropped(self) -> int:
        """Messages discarded because the output port's link was down."""
        return self._m_dropped.value

    @property
    def congestion_drops(self) -> int:
        """Packets drop-tailed by a full egress buffer."""
        return 0 if self._m_congestion is None else self._m_congestion.value

    # -- wiring ------------------------------------------------------------

    def add_node(self, node_id: int) -> tuple[Link, str]:
        """Create the link for ``node_id``.

        Returns ``(link, nic_end)``: the NIC should attach to ``nic_end``
        of the returned link; the switch holds the other end.
        """
        if node_id in self._links:
            raise NetworkError(f"node {node_id} already attached to {self.name}")
        link = Link(self.env, self.link_params, name=f"{self.name}.l{node_id}")
        # Host-port egress always drives end "a".
        link.attach("a", self._make_ingress(link))
        self._links[node_id] = link
        return link, "b"

    def attach_trunk(self, port_id: int, link: Link, end: str) -> None:
        """Attach one end of a switch-to-switch trunk as ``port_id``.

        Unlike host ports, a trunk may hold either link end: the two
        switches sharing the cable necessarily hold opposite ends.
        """
        if port_id in self._trunks:
            raise NetworkError(
                f"trunk port {port_id} already attached to {self.name}")
        link.attach(end, self._make_ingress(link))
        self._trunks[port_id] = (link, end)

    def set_topology(self, locator: dict[int, str],
                     routes: dict[str, tuple[int, ...]]) -> None:
        """Install the fabric routing state.

        ``locator`` maps every node id to the name of its edge switch
        and is *shared* (the same dict object) across the fabric's
        switches; ``routes`` maps destination switch names to this
        switch's equal-cost candidate trunk ports.
        """
        self._locator = locator
        self._switch_routes = routes

    def trunk_links(self) -> Iterable[Link]:
        """The trunk links this switch holds a port on."""
        for link, _end in self._trunks.values():
            yield link

    def all_links(self) -> Iterable[Link]:
        """Every link attached to this switch (host ports and trunks) —
        the set a :class:`repro.faults.FaultPlan` arms."""
        yield from self._links.values()
        yield from self.trunk_links()

    # -- ingress / routing -------------------------------------------------

    def _make_ingress(self, in_link: Link):
        def ingress(msg: Any) -> None:
            t = type(msg)
            if t is PacketTrain:
                self._ingress_train(in_link, msg)
            elif t is TrainTruncation:
                # Consumed here: downstream either sees our own notice
                # (analytic hold cut short) or simply never sees the
                # cancelled per-packet forwards.
                run = self._train_runs.pop(msg.train_id, None)
                if run is not None:
                    run.truncate(msg.npackets)
            else:
                self.env.process(self._forward(msg), name=f"{self.name}.fwd")

        return ingress

    def _select_port(self, msg: Any) -> tuple[Link, str]:
        dst = getattr(msg, "dst_nic", None)
        if dst is None:
            raise NetworkError(f"{self.name} cannot route message without dst_nic")
        out = self._links.get(dst)
        if out is not None:
            return out, "a"
        return self._select_trunk(
            dst, getattr(msg, "src_nic", 0), getattr(msg, "src_port", 0),
            getattr(msg, "dst_port", 0))

    def _select_trunk(self, dst: int, src_nic: int, src_port: int,
                      dst_port: int) -> tuple[Link, str]:
        locator = self._locator
        dst_sw = locator.get(dst) if locator is not None else None
        if dst_sw is None:
            raise NetworkError(f"{self.name} has no port for node {dst}")
        cands = self._switch_routes.get(dst_sw)
        if not cands:
            raise NetworkError(f"{self.name} has no route towards {dst_sw}")
        if len(cands) == 1:
            return self._trunks[cands[0]]
        h = ecmp_hash(src_nic, src_port, dst, dst_port, self.ecmp_seed)
        if self.routing == "adaptive":
            return self._trunks[self._adaptive_pick(cands, h)]
        return self._trunks[cands[h % len(cands)]]

    def _adaptive_pick(self, cands: tuple[int, ...], h: int) -> int:
        """Least-queued up candidate; hash-rotated deterministic
        tie-break so equally idle ports still spread flows."""
        n = len(cands)
        best = None
        best_key = None
        for i, pid in enumerate(cands):
            link, _end = self._trunks[pid]
            if link.is_down:
                continue
            key = (self._eq.get(link, 0), (i - h) % n)
            if best_key is None or key < best_key:
                best, best_key = pid, key
        if best is None:
            # Every candidate is down: fall back to the hash choice and
            # let the egress drop-check account the loss, exactly as a
            # single-path switch would.
            return cands[h % n]
        return best

    def peek_route(self, src_nic: int, src_port: int, dst_nic: int,
                   dst_port: int) -> Optional[tuple[Link, str]]:
        """Replay the forwarding decision for one flow without side
        effects — the hop the final packet *will* take.

        Only meaningful under ``"ecmp"`` routing (the decision is a pure
        function of the addressing tuple); adaptive routing is queue-
        state dependent, so this returns ``None`` and the flow engine
        declines the path.
        """
        out = self._links.get(dst_nic)
        if out is not None:
            return out, "a"
        if self.routing != "ecmp":
            return None
        return self._select_trunk(dst_nic, src_nic, src_port, dst_port)

    # -- per-packet forwarding ---------------------------------------------

    def _forward(self, msg: Any):
        out, end = self._select_port(msg)
        yield self.env.timeout(self.crossing_ns)
        yield from self._egress(out, end, msg.dst_nic, msg)

    def _congestion_drop(self, dst: int, nbytes: int) -> None:
        if self._m_congestion is None:
            self._m_congestion = obs.counter("switch.congestion_drops",
                                             switch=self.name)
        self._m_congestion.inc()
        tracer = self.tracer
        if tracer is not None and tracer.wants("fault"):
            tracer.emit(self.env.now, "fault", "switch_congestion_drop", {
                "switch": self.name, "dst": dst, "bytes": nbytes,
            })

    def _egress(self, out: Link, end: str, dst: int, msg: Any):
        """Output-port half of a forward: drop check, accounting, wire."""
        if out.is_down:
            # Output port has no carrier: the crossbar discards the
            # message (reliable delivery at the NICs recovers it).
            self._m_dropped.inc()
            tracer = self.tracer
            if tracer is not None and tracer.wants("fault"):
                tracer.emit(self.env.now, "fault", "switch_drop", {
                    "switch": self.name, "dst": dst,
                })
            return
        nbytes = getattr(msg, "wire_size", 0) or max(1, getattr(msg, "size", 1))
        if self._track_q:
            held = self._eq.get(out, 0)
            cap = self.egress_buffer_bytes
            if cap is not None and held + nbytes > cap:
                self._congestion_drop(dst, nbytes)
                return
            self._eq[out] = held + nbytes
            try:
                self._m_forwards.inc()
                self._m_bytes.inc(nbytes)
                yield from out.transmit(end, msg, nbytes)
            finally:
                self._eq[out] -= nbytes
            return
        self._m_forwards.inc()
        self._m_bytes.inc(nbytes)
        yield from out.transmit(end, msg, nbytes)

    # -- packet-train forwarding ------------------------------------------

    def _ingress_train(self, in_link: Link, train: PacketTrain) -> None:
        run = TrainRun(train.npackets)
        self._train_runs[train.train_id] = run
        self.env.process(self._forward_train(train, run, in_link),
                         name=f"{self.name}.fwd")

    def _forward_train(self, train: PacketTrain, run: TrainRun, in_link: Link):
        arrival = self.env.now  # first-packet arrival on the ingress port
        out, end = self._select_port(train)
        per_in = in_link.serialization_ns(train.wire_size)
        yield self.env.timeout(self.crossing_ns)
        reason = out.train_block_reason(end)
        if reason is None and out.serialization_ns(train.wire_size) != per_in:
            # Never true with uniform LinkParams, but a pacing mismatch
            # would open inter-packet gaps the analytic hold can't model.
            reason = "pacing"
        if reason is None:
            if self._track_q:
                self._eq[out] = self._eq.get(out, 0) \
                    + train.npackets * train.wire_size
            try:
                done = yield from out.transmit_train(end, train, run)
            finally:
                if self._track_q:
                    self._eq[out] -= train.npackets * train.wire_size
            self._m_forwards.inc(done)
            self._m_bytes.inc(done * train.wire_size)
            if done < train.npackets and run.contended:
                # Packets done+1.. are still streaming in from upstream;
                # forward each at its per-packet time, behind the
                # competitor that broke the hold.
                obs.counter("net.train_splits", where=self.name).inc()
                self._schedule_frag_egress(out, end, train, run, done + 1,
                                           arrival, per_in)
            else:
                # Complete, or cut short by an upstream truncation whose
                # notice already left the registry.
                self._train_runs.pop(train.train_id, None)
            return
        obs.counter("net.train_decoalesce",
                    where=self.name, reason=reason).inc()
        self._schedule_frag_egress(out, end, train, run, 2, arrival, per_in)
        # Packet 1 crosses now, through the ordinary egress path (its
        # request lands in this same callback, as per-packet would).
        yield from self._egress_frag_now(out, end, train, run, 1)

    def _schedule_frag_egress(self, out: Link, end: str, train: PacketTrain,
                              run: TrainRun, first: int, arrival: int,
                              per_in: int) -> None:
        """Schedule per-packet egress for packets ``first..npackets`` at
        their ingress-paced forward times; each entry re-checks
        ``run.limit`` when it fires so later truncations cancel it."""
        cross = self.crossing_ns
        entries = [
            (arrival + (j - 1) * per_in + cross,
             self._egress_frag, (out, end, train, run, j))
            for j in range(first, train.npackets + 1)
        ]
        # Registry cleanup after the last packet could have fired: any
        # truncation notice provably arrives earlier.
        last = arrival + (train.npackets - 1) * per_in + cross
        entries.append((last, self._train_runs.pop, (train.train_id, None)))
        self.env.schedule_bulk(entries)

    def _frag_of(self, train: PacketTrain) -> Message:
        return Message(
            kind=MsgKind.FRAG,
            src_nic=train.src_nic,
            src_port=train.src_port,
            dst_nic=train.dst_nic,
            dst_port=train.dst_port,
            match=train.match,
            size=train.wire_size,
            wire_size=train.wire_size,
        )

    def _egress_frag(self, out: Link, end: str, train: PacketTrain,
                     run: TrainRun, j: int) -> None:
        if j > run.limit:
            return  # truncated upstream: packet j never entered the fabric
        self.env.process(
            self._egress(out, end, train.dst_nic, self._frag_of(train)),
            name=f"{self.name}.fwd")

    def _egress_frag_now(self, out: Link, end: str, train: PacketTrain,
                         run: TrainRun, j: int):
        if j > run.limit:
            return
        yield from self._egress(out, end, train.dst_nic, self._frag_of(train))

    # -- flow de-coalescing support ---------------------------------------

    def flow_frag_egress(self, out: Link, end: str, frag: Message) -> None:
        """Fire one re-materialized FRAG through the ordinary egress
        path — scheduled by :class:`repro.hw.flow.FlowNetwork` at the
        exact instant the packet's egress request would have landed
        here had the flow been simulated per-packet (used for the
        in-flight pipeline when a flow de-coalesces mid-fabric)."""
        self.env.process(self._egress(out, end, frag.dst_nic, frag),
                         name=f"{self.name}.fwd")
