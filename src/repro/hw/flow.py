"""Analytic flow reservations: the hybrid fidelity engine.

Packet-train coalescing (:mod:`repro.hw.train`) collapses one message's
FRAG burst into one analytic hold *per hop* — the event count still
scales with hops × messages, and under contention trains split back to
per-packet immediately.  This module takes the idea to its logical end
for fabric-scale workloads: a long transfer on an uncontended or
*stably shared* multi-hop path becomes one **flow reservation** — a
rate share on every hop plus a single completion timer for the whole
network — with **max-min fair** recomputation whenever a flow arrives
or departs.  A 256 KiB transfer across a four-hop fat-tree costs a
handful of events instead of hundreds.

The price of the analytic view is observability, so any event that
makes individual packets observable de-coalesces the flow back to
packet/train fidelity at the next packet boundary, exactly as a
:class:`~repro.hw.train.TrainTruncation` caps a train today:

* **fault injection on the path** — a down window opening on any
  switch-egress hop (a guard is scheduled at the onset when the flow is
  admitted; the per-hop drop checks must see the same packet sequence
  per-packet simulation would).  Host-uplink down windows are ignored:
  fault filters pass FRAGs untouched, so per-packet simulation delivers
  them regardless and only the final (non-analytic) packet is at risk;
* **a tracer that wants "wire" records** — refused at admission
  (``train_block_reason`` reports it), same rule as trains;
* **contention crossing a threshold** — packets transmitted by
  non-flow traffic on a reserved direction ("interlopers") accumulate;
  past ``FlowParams.interloper_threshold_bytes`` in one reservation
  epoch the sharing is no longer *stable* and every flow on the
  direction de-coalesces.

Equivalence contract (verified by tests/test_flow.py):

* a flow that never shares a hop has rate ``wire_size/per`` with
  ``per`` the integer per-packet serialization, so its completion time
  is *exactly* ``start + npackets*per`` — bit-identical to the train
  and per-packet modes, including the final packet that always travels
  per-packet behind it;
* a pristine (never-shared) flow de-coalescing on a down-window onset
  re-materializes its in-flight packets per hop at exactly the instants
  their egress requests would have fired, so traces, drops and byte
  counters from the fault onward are byte-identical to packet mode;
* shared flows are max-min fair with exact :class:`fractions.Fraction`
  arithmetic (deterministic across platforms); their completion times
  are equivalent to packet fidelity within the documented interloper
  threshold, and their de-coalescing lands on the analytic packet
  boundary rather than the per-hop pipeline state.

All bookkeeping uses exact rationals; no floats touch the clock.

Rate allocation is **incremental and component-local**: an arrival,
departure or de-coalescing only re-divides the connected component of
flows reachable from the touched link directions through shared hops —
a disjoint permutation pair costs O(1), not O(n).  The water-fill
inside a component selects each level's bottleneck with integer
cross-multiplication (no per-direction ``Fraction`` division) and
commits the level share as one canonical ``Fraction``, so every
``rate``/``eta``/``done`` value is bit-identical to the from-scratch
global algorithm (:func:`waterfill_reference`, which the property tests
compare against): the max-min rate vector is unique, and untouched
components keep rates — and therefore ETAs and settled progress —
unchanged by definition.

:func:`set_flow_mode` mirrors :func:`repro.hw.train.set_coalescing` —
the A/B switch for equivalence tests and ``repro.bench.perf``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from heapq import heappop, heappush
from typing import Callable, Iterable, Optional

from .. import obs
from ..sim import Environment
from .nic import Message, MsgKind
from .params import DEFAULT_FLOW, FlowParams

#: Histogram buckets for analytic flow lengths (packets).
FLOW_LEN_BUCKETS = (16, 64, 256, 1024, 4096)

_enabled = True


def set_flow_mode(enabled: bool) -> None:
    """Globally force analytic flow reservations on (default) or off.

    Off means fabric transfers fall back to packet-train / per-packet
    fidelity — the A/B reference for equivalence tests and the perf
    benchmark.  Mirrors :func:`repro.hw.train.set_coalescing`.
    """
    global _enabled
    _enabled = bool(enabled)


def flow_mode_enabled() -> bool:
    return _enabled


def _ceil(q: Fraction) -> int:
    return -int((-q) // 1)


class _DirRes:
    """One reserved link direction: capacity, member flows, interloper
    accumulator for the current reservation epoch."""

    __slots__ = ("link", "dir_key", "cap", "members", "acc", "seq")

    def __init__(self, link, dir_key: str, cap: Fraction, seq: int):
        self.link = link
        self.dir_key = dir_key
        self.cap = cap  # bytes/ns, derived from the integer per-packet time
        self.members: list[_Flow] = []
        self.acc = 0  # interloper bytes this epoch
        self.seq = seq  # deterministic tie-break order


class LinkFlows:
    """Per-link flow state, stored as ``link.flows``.

    ``Link.transmit`` calls :meth:`note_interloper` once per packet on a
    direction; ``Link.train_block_reason`` consults :meth:`reserved`.
    Both are one dict lookup when no reservation is active.
    """

    __slots__ = ("net", "dirs")

    def __init__(self, net: "FlowNetwork"):
        self.net = net
        self.dirs: dict[str, _DirRes] = {}

    def reserved(self, dir_key: str) -> bool:
        dr = self.dirs.get(dir_key)
        return dr is not None and bool(dr.members)

    def note_interloper(self, dir_key: str, nbytes: int) -> None:
        dr = self.dirs.get(dir_key)
        if dr is None or not dr.members:
            return
        dr.acc += nbytes
        if dr.acc > self.net.params.interloper_threshold_bytes:
            dr.acc = 0
            self.net._decoalesce_members(dr, "contention")


class _Flow:
    """One admitted reservation."""

    __slots__ = ("id", "src_nic", "src_port", "dst_nic", "dst_port", "match",
                 "npackets", "wire_size", "total", "hops", "dirres", "start",
                 "per", "uniform", "full_rate", "rate", "done", "last", "eta",
                 "pristine", "wake", "carried")

    def __init__(self, fid: int, src_nic: int, desc, npackets: int,
                 wire_size: int, hops, dirres, start: int):
        self.id = fid
        self.src_nic = src_nic
        self.src_port = desc.src_port
        self.dst_nic = desc.dst_nic
        self.dst_port = desc.dst_port
        self.match = desc.match
        self.npackets = npackets
        self.wire_size = wire_size
        self.total = npackets * wire_size  # bytes carried analytically
        self.hops = hops  # list of (link, from_end, switch-or-None)
        self.dirres = dirres  # parallel list of _DirRes
        self.start = start
        pers = [link.serialization_ns(wire_size) for link, _e, _s in hops]
        self.per = max(pers)  # bottleneck pacing
        self.uniform = all(p == pers[0] for p in pers)
        self.full_rate = min(dr.cap for dr in dirres)
        self.rate = Fraction(0)
        self.done = Fraction(0)  # bytes
        self.last = start
        self.eta: Optional[int] = None
        self.pristine = True
        self.wake = None
        self.carried = 0


def waterfill_reference(flows: Iterable[_Flow]) -> dict[int, Fraction]:
    """From-scratch global max-min water-fill over ``flows``.

    This is the original O(flows × dirs × levels) algorithm, kept as a
    pure function (no flow state is mutated) so the incremental
    component-local engine can be checked against it: set
    ``FlowNetwork._verify_reference = True`` and every flush asserts
    that all committed rates equal this reference exactly, as
    ``Fraction`` values.  The max-min rate vector is unique — after one
    member of a bottleneck is fixed at ``avail/count`` the remaining
    members still sit at ``(avail - share)/(count - 1) == share`` — so
    any tie-break or component order must land on these rates.
    """
    flows = list(flows)
    rates: dict[int, Fraction] = {}
    if not flows:
        return rates
    dirs: dict[int, _DirRes] = {}
    count: dict[int, int] = {}
    avail: dict[int, Fraction] = {}
    for f in flows:
        for dr in f.dirres:
            if dr.seq not in dirs:
                dirs[dr.seq] = dr
                count[dr.seq] = 0
                avail[dr.seq] = dr.cap
            count[dr.seq] += 1
    unfixed = {f.id for f in flows}
    order = sorted(dirs)
    while unfixed:
        bottleneck = None
        share = None
        for seq in order:
            if count[seq] <= 0:
                continue
            s = avail[seq] / count[seq]
            if share is None or s < share:
                share, bottleneck = s, seq
        if bottleneck is None:  # pragma: no cover - defensive
            break
        for f in dirs[bottleneck].members:
            if f.id in unfixed:
                rates[f.id] = share
                unfixed.discard(f.id)
                for dr in f.dirres:
                    avail[dr.seq] -= share
                    count[dr.seq] -= 1
    return rates


class FlowNetwork:
    """The fabric-wide reservation table and its single timer.

    Created by :class:`repro.cluster.topo.Fabric`; NICs reach it through
    their ``flownet`` attribute (``None`` outside fabrics, so the paper's
    two-node and star figures never touch this code).
    """

    #: Debug hook: when True, every flush re-derives all rates with
    #: :func:`waterfill_reference` and asserts exact equality.
    _verify_reference = False

    def __init__(self, env: Environment, params: FlowParams = DEFAULT_FLOW,
                 path_fn: Optional[Callable] = None, name: str = "fab"):
        self.env = env
        self.params = params
        self.name = name
        #: ``path_fn(src_nic, src_port, dst_nic, dst_port)`` returns the
        #: frozen ECMP path as ``[(link, from_end, switch-or-None), ...]``
        #: or ``None`` when no stable path exists (adaptive routing).
        self.path_fn = path_fn
        self._flows: dict[int, _Flow] = {}
        self._ids = itertools.count(1)
        self._dir_seq = itertools.count()
        self._timer_gen = 0
        self._dirty = False
        # Directions whose membership changed since the last flush, in
        # touch order (deterministic: driven by the event schedule).
        self._touched: list[_DirRes] = []
        self._touched_seqs: set[int] = set()
        # Lazy global ETA heap: one (eta, flow id) entry pushed per ETA
        # assignment; entries whose flow is gone or re-timed are dropped
        # when they surface.
        self._eta_heap: list[tuple[int, int]] = []
        self._m_flows = obs.counter("net.flows", fabric=name)
        self._m_active = obs.gauge("net.flows_active", fabric=name)
        self._m_flush = obs.counter("net.flow_flush", fabric=name)
        self._m_recompute = obs.counter("net.flow_recompute", fabric=name)
        # Water-fill work accounting: flows actually re-divided per
        # flush vs. what the global algorithm would have re-divided.
        # The ratio is the CI-gated work-reduction floor.
        self._m_wf_touched = obs.counter("net.flow_waterfill_flows",
                                         fabric=name, scope="touched")
        self._m_wf_global = obs.counter("net.flow_waterfill_flows",
                                        fabric=name, scope="global")

    # -- admission ---------------------------------------------------------

    def carry(self, nic, desc, remaining: int, mtu: int):
        """Generator (runs inside the NIC's transmit process): try to
        carry the FRAG burst of ``desc`` as one analytic flow.

        The reservation covers the first ``nfrags - 1`` pacing packets;
        the last FRAG always travels per-packet (emitted by the caller's
        loop when this returns).  That trailing real packet recreates
        the per-hop back-pressure of the drained pipeline: on every hop
        it occupies the wire exactly where packet-mode FRAG ``n`` would,
        so the semantic final packet queues behind it and completes at
        the identical instant — without the flow having to model
        downstream holds at all.

        Returns the bytes still to send: refused flows return
        ``remaining`` unchanged, de-coalesced flows return the
        per-packet tail, completed flows return the trailing FRAG plus
        the final packet."""
        if not _enabled or self.path_fn is None:
            return remaining
        nfrags = (desc.size - 1) // mtu
        if nfrags < self.params.min_flow_frags:
            return remaining
        path = self.path_fn(nic.node_id, desc.src_port, desc.dst_nic,
                            desc.dst_port)
        reason = None
        if path is None:
            reason = "routing"
        else:
            for link, end, _sw in path:
                if link.is_down:
                    reason = "down"
                    break
                why = link.train_block_reason(end)
                if why in ("busy", "wire_trace"):
                    # "faults" (armed injector, FRAG-exempt) and "flow"
                    # (stable sharing) do not disqualify a reservation.
                    reason = why
                    break
        if reason is not None:
            obs.counter("net.flow_refused", fabric=self.name,
                        reason=reason).inc()
            return remaining
        flow = self._admit(nic, desc, nfrags - 1, mtu, path)
        yield flow.wake
        if flow.carried:
            obs.histogram("net.flow_len", buckets=FLOW_LEN_BUCKETS,
                          fabric=self.name).observe(flow.carried)
        return remaining - flow.carried * mtu

    def _admit(self, nic, desc, nfrags: int, mtu: int, path) -> _Flow:
        env = self.env
        now = env.now
        dirres = []
        for link, end, _sw in path:
            lf = link.flows
            if lf is None:
                lf = link.flows = LinkFlows(self)
            dir_key = "ab" if end == "a" else "ba"
            dr = lf.dirs.get(dir_key)
            if dr is None:
                per = link.serialization_ns(mtu)
                dr = lf.dirs[dir_key] = _DirRes(
                    link, dir_key, Fraction(mtu, per), next(self._dir_seq))
            dirres.append(dr)
        flow = _Flow(next(self._ids), nic.node_id, desc, nfrags, mtu, path,
                     dirres, now)
        flow.wake = env.event(name="flow.wake")
        self._flows[flow.id] = flow
        for dr in dirres:
            dr.members.append(flow)
            dr.acc = 0  # reservation epoch change
        self._m_flows.inc()
        self._m_active.set(len(self._flows))
        self._touch(dirres)
        self._schedule_recompute()
        self._schedule_down_guard(flow, now)
        return flow

    def _schedule_down_guard(self, flow: _Flow, now: int) -> None:
        """One guard at the earliest future down-window onset on any
        switch-egress hop: the instant packets become droppable there,
        the flow must be packets again."""
        onset = None
        for link, _end, sw in flow.hops:
            if sw is None or link.faults is None:
                continue
            for ws, _we in link.faults.spec.down_windows:
                if ws > now and (onset is None or ws < onset):
                    onset = ws
        if onset is not None:
            self.env.call_at(onset, self._down_guard, flow.id, onset)

    def _down_guard(self, fid: int, onset: int) -> None:
        flow = self._flows.get(fid)
        if flow is not None:
            self._decoalesce(flow, "fault", onset=onset)

    # -- rate allocation ---------------------------------------------------

    def _touch(self, dirres) -> None:
        """Record directions whose membership changed; the next flush
        re-divides only the components reachable from them."""
        touched_seqs = self._touched_seqs
        touched = self._touched
        for dr in dirres:
            if dr.seq not in touched_seqs:
                touched_seqs.add(dr.seq)
                touched.append(dr)

    def _settle(self, flow: _Flow, now: int) -> None:
        """Integrate one flow's progress to ``now`` at its current rate.

        ``done <= total`` holds by construction while a flow is live:
        ``eta = last + ceil((total - done)/rate)`` means progress at
        any instant strictly *before* the ETA is strictly below total.
        Overshoot (the ceil rounding up to a packet-grain instant) is
        only possible when settling exactly *at or past* the flow's own
        completion instant — a de-coalescing or neighbour arrival on
        that nanosecond — and the clamp below commits exactly ``total``
        there, never silently losing progress mid-life."""
        dt = now - flow.last
        if dt:
            flow.done += flow.rate * dt
            flow.last = now
            if flow.done > flow.total:
                assert flow.eta is not None and now >= flow.eta, \
                    "water-fill overshot before the flow's ETA"
                flow.done = Fraction(flow.total)

    def _schedule_recompute(self) -> None:
        """Defer the water-fill to the end of the current instant.

        Rates only matter once time advances, so every arrival,
        departure and de-coalescing that lands on the same nanosecond
        shares ONE recomputation — a synchronized 1024-flow permutation
        pays for one flush, not 1024.  Callers must have settled the
        flows whose progress they read *before* mutating membership;
        the flush settles every affected flow itself (dt = 0 for those
        already settled this instant)."""
        if not self._dirty:
            self._dirty = True
            self.env.call_at(self.env.now, self._flush)

    def _flush(self) -> None:
        if not self._dirty:  # pragma: no cover - single-schedule guard
            return
        self._dirty = False
        now = self.env.now
        touched = self._touched
        self._touched = []
        self._touched_seqs = set()
        self._m_flush.inc()
        if not self._flows:
            self._timer_gen += 1  # cancels any armed timer at fire time
            return
        self._m_wf_global.inc(len(self._flows))
        # Connected components of the flow<->direction sharing graph,
        # discovered by BFS from the touched directions over live
        # membership.  A departed flow touched all its directions, so
        # the pieces of a split component are each reached.  Iteration
        # order is deterministic (touch order, member list order).
        seen_dirs: set[int] = set()
        seen_flows: set[int] = set()
        components: list[list[_Flow]] = []
        for root in touched:
            if root.seq in seen_dirs:
                continue
            seen_dirs.add(root.seq)
            if not root.members:
                continue
            comp: list[_Flow] = []
            stack = [root]
            while stack:
                for f in stack.pop().members:
                    if f.id not in seen_flows:
                        seen_flows.add(f.id)
                        comp.append(f)
                        for d2 in f.dirres:
                            if d2.seq not in seen_dirs:
                                seen_dirs.add(d2.seq)
                                stack.append(d2)
            if comp:
                components.append(comp)
        for comp in components:
            for f in comp:
                self._settle(f, now)
            self._waterfill(comp, now)
        if self._verify_reference:
            self._check_reference()
        # Re-arm the completion timer exactly as the global algorithm
        # did: every flush supersedes the armed timer and schedules at
        # the minimum live ETA, so the engine's event schedule — and
        # with it every trace and event count — is unchanged.
        self._timer_gen += 1
        next_eta = self._min_eta()
        if next_eta is not None:
            self.env.call_at(next_eta, self._tick, self._timer_gen)

    def _waterfill(self, comp: list[_Flow], now: int) -> None:
        """Max-min fair water-filling over one component.

        Exact rational arithmetic committed per level; the bottleneck
        scan compares ``avail/count`` ratios by integer
        cross-multiplication so no intermediate ``Fraction`` is built.
        ``share = Fraction(best_n, best_d)`` normalizes to the same
        canonical rational ``avail / count`` produced, keeping rates
        bit-identical to :func:`waterfill_reference`.
        """
        self._m_recompute.inc()
        self._m_wf_touched.inc(len(comp))
        if len(comp) == 1:
            # Singleton component: a flow sharing no direction runs at
            # its path bottleneck capacity.  O(1) — the common case for
            # permutation traffic on a non-blocking fabric.
            f = comp[0]
            f.rate = f.full_rate
            self._commit_eta(f, now)
            return
        dirs: dict[int, _DirRes] = {}
        count: dict[int, int] = {}
        avail: dict[int, Fraction] = {}
        for f in comp:
            for dr in f.dirres:
                seq = dr.seq
                if seq not in dirs:
                    dirs[seq] = dr
                    count[seq] = 0
                    avail[seq] = dr.cap
                count[seq] += 1
        unfixed = {f.id for f in comp}
        order = sorted(dirs)
        while unfixed:
            bottleneck = None
            best_n = best_d = 1
            for seq in order:
                c = count[seq]
                if c <= 0:
                    continue
                a = avail[seq]
                n = a.numerator
                d = a.denominator * c
                # n/d < best_n/best_d, without building Fractions.
                if bottleneck is None or n * best_d < best_n * d:
                    best_n, best_d, bottleneck = n, d, seq
            if bottleneck is None:  # pragma: no cover - defensive
                break
            share = Fraction(best_n, best_d)
            for f in dirs[bottleneck].members:
                if f.id in unfixed:
                    f.rate = share
                    unfixed.discard(f.id)
                    for dr in f.dirres:
                        avail[dr.seq] -= share
                        count[dr.seq] -= 1
        for f in comp:
            self._commit_eta(f, now)

    def _commit_eta(self, f: _Flow, now: int) -> None:
        if f.rate != f.full_rate:
            f.pristine = False
        f.eta = now + _ceil((f.total - f.done) / f.rate)
        heappush(self._eta_heap, (f.eta, f.id))

    def _min_eta(self) -> Optional[int]:
        """Earliest live ETA; drops stale heap entries on the way."""
        heap = self._eta_heap
        flows = self._flows
        while heap:
            eta, fid = heap[0]
            f = flows.get(fid)
            if f is not None and f.eta == eta:
                return eta
            heappop(heap)
        if flows:  # pragma: no cover - every live flow keeps an entry
            return min(f.eta for f in flows.values())
        return None

    def _check_reference(self) -> None:
        expect = waterfill_reference(self._flows.values())
        for f in self._flows.values():
            if f.rate != expect[f.id]:
                raise AssertionError(
                    f"flow {f.id}: incremental rate {f.rate} != "
                    f"reference {expect[f.id]}")

    def _tick(self, gen: int) -> None:
        if gen != self._timer_gen:
            return  # superseded by a later recompute
        now = self.env.now
        heap = self._eta_heap
        flows = self._flows
        due: list[_Flow] = []
        due_ids: set[int] = set()
        while heap:
            eta, fid = heap[0]
            f = flows.get(fid)
            if f is None or f.eta != eta:
                heappop(heap)
                continue
            if eta > now:
                break
            heappop(heap)
            if fid not in due_ids:
                due_ids.add(fid)
                due.append(f)
        due.sort(key=lambda f: f.id)  # admission order, as before
        for f in due:
            # Completing exactly at the ETA: the ceil'd instant is at
            # or past the rational finish time, so the flow carried all
            # its bytes.
            f.done = Fraction(f.total)
            f.last = now
            self._complete(f)
        self._schedule_recompute()

    # -- completion / de-coalescing ----------------------------------------

    def _account(self, flow: _Flow, per_hop: list[int]) -> None:
        """Charge the analytically carried packets to every hop's wire
        and switch counters, exactly as per-packet transmission would
        have by the time those packets crossed."""
        for (link, end, sw), dr, k in zip(flow.hops, flow.dirres, per_hop):
            if k <= 0:
                continue
            nbytes = k * flow.wire_size
            per = link.serialization_ns(flow.wire_size)
            link._m_bytes[dr.dir_key].inc(nbytes)
            link._m_busy[dr.dir_key].inc(k * per)
            if sw is not None:
                sw._m_forwards.inc(k)
                sw._m_bytes.inc(nbytes)

    def _remove(self, flow: _Flow) -> None:
        del self._flows[flow.id]
        for dr in flow.dirres:
            dr.members.remove(flow)
            dr.acc = 0  # reservation epoch change
        self._touch(flow.dirres)
        self._m_active.set(len(self._flows))

    def _finish(self, flow: _Flow, carried: int, at: int) -> None:
        flow.carried = carried
        wake = flow.wake
        flow.wake = None
        if at > self.env.now:
            self.env.call_at(at, wake.succeed)
        else:
            wake.succeed()

    def _complete(self, flow: _Flow) -> None:
        self._account(flow, [flow.npackets] * len(flow.hops))
        self._remove(flow)
        self._finish(flow, flow.npackets, self.env.now)

    def _decoalesce_members(self, dr: _DirRes, reason: str) -> None:
        for flow in list(dr.members):
            self._decoalesce(flow, reason)

    def _decoalesce(self, flow: _Flow, reason: str,
                    onset: Optional[int] = None) -> None:
        """Collapse the reservation back to packet fidelity.

        A pristine flow (full rate since admission, uniform pacing)
        de-coalescing on a down-window onset takes the *exact* path:
        commit the packet in source serialization (as a train split
        does), re-materialize the per-hop in-flight pipeline at the
        exact egress-request instants, and resume the NIC at the source
        packet boundary.  Every other trigger takes the analytic path:
        floor the settled progress to a packet boundary and resume now
        (equivalence bounded by the interloper threshold).
        """
        env = self.env
        now = env.now
        self._settle(flow, now)
        obs.counter("net.flow_decoalesce", fabric=self.name,
                    reason=reason).inc()
        exact = (flow.pristine and flow.uniform and onset is not None
                 and now >= flow.start)
        if exact:
            per = flow.per
            c = min(flow.npackets, max(1, _ceil(Fraction(now - flow.start,
                                                         per))))
            boundary = flow.start + c * per
            self._materialize(flow, c, now)
            self._remove(flow)
            self._finish(flow, c, boundary)
        else:
            c = min(flow.npackets, int(flow.done // flow.wire_size))
            self._account(flow, [c] * len(flow.hops))
            self._remove(flow)
            self._finish(flow, c, now)
        self._schedule_recompute()

    def _materialize(self, flow: _Flow, c: int, now: int) -> None:
        """Exact de-coalescing: packet ``j``'s egress request at switch
        hop ``s`` fires at ``start + (j+s-1)*per + Σ(propagation+crossing)``
        (saturated cut-through pipeline).  Packets whose request is
        already past crossed analytically (charged via
        :meth:`_account`); the rest are re-injected through the ordinary
        switch egress path at exactly those instants, where the ambient
        drop checks — down windows, buffers — see them like any packet.
        """
        env = self.env
        per = flow.per
        per_hop = [c]  # source link: all committed packets crossed
        entries = []
        offset = 0
        k_prev = c
        for s in range(1, len(flow.hops)):
            prev_link = flow.hops[s - 1][0]
            link, end, sw = flow.hops[s]
            offset += prev_link.params.propagation_ns + sw.crossing_ns
            base = flow.start + (s - 1) * per + offset
            # e_s(j) = base + j*per ; crossed iff the request fired
            # strictly before now.
            k_s = (now - base - 1) // per if now > base else 0
            k_s = max(0, min(k_prev, k_s))
            per_hop.append(k_s)
            for j in range(k_s + 1, k_prev + 1):
                frag = Message(
                    kind=MsgKind.FRAG,
                    src_nic=flow.src_nic,
                    src_port=flow.src_port,
                    dst_nic=flow.dst_nic,
                    dst_port=flow.dst_port,
                    match=flow.match,
                    size=flow.wire_size,
                    wire_size=flow.wire_size,
                )
                entries.append((base + j * per, sw.flow_frag_egress,
                                (link, end, frag)))
            k_prev = k_s
        self._account(flow, per_hop)
        if entries:
            env.schedule_bulk(entries)

    # -- introspection -----------------------------------------------------

    @property
    def active_flows(self) -> int:
        return len(self._flows)
