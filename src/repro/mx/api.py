"""MX endpoints: isend/irecv, message classes, flexible completion.

One :class:`MxEndpoint` class serves user and kernel contexts — the
paper's headline result is precisely that the MX kernel interface
performs identically to the user one ("we designed a very generic core
infrastructure so that kernel communications would not suffer of a
user-oriented design", section 5.1).  Context only changes which memory
types are accepted and where addresses resolve.

Message classes (section 5.1) and their completion semantics:

========  ============  =====================================================
class      size          handling
========  ============  =====================================================
small      <= 128 B      host PIO-writes the payload with the descriptor;
                         send request completes at once
medium     <= 32 kB      host copies into a pre-registered bounce ring; the
                         send completes when the copy does (buffered send);
                         the receiver copies out of its ring at match time
large      >  32 kB      RTS/CTS rendezvous; user segments are pinned
                         internally; zero-copy DMA both sides; the send
                         completes when the data has left the host
========  ============  =====================================================

``no_send_copy`` / ``no_recv_copy`` implement the paper's section 5.1
copy-removal experiment for medium messages whose segments resolve to
physical addresses without the bounce buffer (kernel/physical types).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from .. import obs
from ..cluster.node import Node
from ..errors import MXBadSegment, MXError
from ..hw.nic import NicPort, PostedReceive, SendDescriptor
from ..hw.params import (
    ApiCosts,
    MX_KERNEL_COSTS,
    MX_STRATEGY,
    MX_USER_COSTS,
    MxStrategyParams,
)
from ..mem.layout import PhysSegment, sg_from_kernel, sg_from_user
from ..mem.sglist import PayloadRef
from ..sim import Event
from .memtypes import MemType, MxSegment, total_length, user_pages

#: per-byte cost of PIO-writing a small payload through the doorbell
_PIO_PER_BYTE_NS = 3
#: mx_test poll cost
_TEST_NS = 100


@dataclass(slots=True, eq=False)
class MxRequest:
    """Handle for one in-flight MX operation (compared by identity)."""

    kind: str  # "send" | "recv"
    length: int
    match: int
    event: Event = None  # fires when the request is complete
    tag: Any = None
    result: Any = None

    @property
    def completed(self) -> bool:
        return self.event.processed


class MxEndpoint:
    """One MX endpoint (user process or kernel module)."""

    def __init__(
        self,
        node: Node,
        endpoint_id: int,
        context: str = "user",
        strategy: MxStrategyParams = MX_STRATEGY,
        no_send_copy: bool = False,
        no_recv_copy: bool = False,
    ):
        if context not in ("user", "kernel"):
            raise MXError(f"context must be 'user' or 'kernel', got {context!r}")
        self.node = node
        self.endpoint_id = endpoint_id
        self.context = context
        self.costs: ApiCosts = MX_USER_COSTS if context == "user" else MX_KERNEL_COSTS
        self.strategy = strategy
        self.no_send_copy = no_send_copy
        self.no_recv_copy = no_recv_copy
        self.env = node.env
        self.cpu = node.cpu
        self.nic_port: NicPort = node.nic.open_port(endpoint_id, self.costs)
        self._open = True
        # The blocked wait_any call, if any: (wake-up event, the
        # requests it waits on).
        self._any_wait: Optional[tuple[Event, Sequence[MxRequest]]] = None
        # Per-class send accounting on the metrics registry (unregistered
        # per-instance counters while no registry is installed); the
        # classic attribute names below read through to them.
        _labels = dict(node=node.node_id, ep=endpoint_id)
        self._m_small = obs.counter("mx.sends", cls="small", **_labels)
        self._m_medium = obs.counter("mx.sends", cls="medium", **_labels)
        self._m_medium_zc = obs.counter(
            "mx.sends", cls="medium_zero_copy", **_labels
        )
        self._m_large = obs.counter("mx.sends", cls="large", **_labels)

    @property
    def sends_small(self) -> int:
        return self._m_small.value

    @property
    def sends_medium(self) -> int:
        return self._m_medium.value

    @property
    def sends_medium_zero_copy(self) -> int:
        return self._m_medium_zc.value

    @property
    def sends_large(self) -> int:
        return self._m_large.value

    # -- segment validation / resolution --------------------------------------

    def _check_segments(self, segments: Sequence[MxSegment]) -> None:
        if not segments:
            raise MXBadSegment("a transfer needs at least one segment")
        for seg in segments:
            if seg.kind is not MemType.USER_VIRTUAL and self.context == "user":
                raise MXBadSegment(
                    f"user endpoints only pass user-virtual memory, got {seg.kind}"
                )

    def _gather_payload(self, segments: Sequence[MxSegment]) -> PayloadRef:
        """Host-side gather of the payload into zero-copy chunk views
        (used by the PIO and bounce-ring copy paths)."""
        parts = []
        for seg in segments:
            if seg.kind is MemType.USER_VIRTUAL:
                parts.append(seg.space.read_payload(seg.vaddr, seg.length))
            elif seg.kind is MemType.KERNEL_VIRTUAL:
                parts.append(self.node.kspace.read_payload(seg.vaddr, seg.length))
            else:
                parts.append(PayloadRef.from_phys(self.node.phys, seg.sg))
        return PayloadRef.concat(parts)

    def _scatter_payload(self, segments: Sequence[MxSegment], data: PayloadRef) -> None:
        """Host-side scatter of a received payload into its segments."""
        offset = 0
        for seg in segments:
            if offset >= data.length:
                break
            take = min(seg.length, data.length - offset)
            part = data.slice(offset, take)
            if seg.kind is MemType.USER_VIRTUAL:
                seg.space.write_payload(seg.vaddr, part)
            elif seg.kind is MemType.KERNEL_VIRTUAL:
                self.node.kspace.write_payload(seg.vaddr, part)
            else:
                self.node.phys.write_phys_sg(seg.sg, part)
            offset += take

    def _resolve_sg(self, segments: Sequence[MxSegment]) -> list[PhysSegment]:
        """Physical scatter/gather for zero-copy paths (pages must be
        resident/pinned by the time this is called)."""
        out: list[PhysSegment] = []
        for seg in segments:
            if seg.kind is MemType.USER_VIRTUAL:
                out.extend(sg_from_user(seg.space, seg.vaddr, seg.length))
            elif seg.kind is MemType.KERNEL_VIRTUAL:
                out.extend(sg_from_kernel(self.node.kspace, seg.vaddr, seg.length))
            else:
                out.extend(seg.sg)
        return out

    def _zero_copy_eligible(self, segments: Sequence[MxSegment]) -> bool:
        """Medium copy removal applies when every segment already has a
        physical resolution the NIC can use without the bounce ring —
        i.e. no user-virtual pieces ("this optimization is possible
        since the network card interface does only manipulate physical
        addresses in MX", section 5.1)."""
        return all(seg.kind is not MemType.USER_VIRTUAL for seg in segments)

    # -- sending ---------------------------------------------------------------------

    def isend(
        self,
        dst_node: int,
        dst_endpoint: int,
        segments: Sequence[MxSegment],
        match: int = 0,
        tag: Any = None,
        meta: Any = None,
    ):
        """Generator: post a send; returns an :class:`MxRequest`."""
        self._check_open()
        self._check_segments(segments)
        length = total_length(segments)
        req = MxRequest(kind="send", length=length, match=match,
                        event=self.env.event("mx.send"), tag=tag)
        yield from self.cpu.work(self.costs.host_send_ns)
        s = self.strategy
        if length <= s.small_max:
            yield from self._send_small(dst_node, dst_endpoint, segments, match, req, meta)
        elif length <= s.medium_max:
            yield from self._send_medium(dst_node, dst_endpoint, segments, match, req, meta)
        else:
            yield from self._send_large(dst_node, dst_endpoint, segments, match, req, meta)
        return req

    def _send_small(self, dst_node, dst_endpoint, segments, match, req, meta=None):
        self._m_small.inc()
        data = self._gather_payload(segments)
        # Payload is PIO-written with the descriptor.
        yield from self.cpu.work(
            self.node.nic.doorbell_time_ns() + _PIO_PER_BYTE_NS * data.length
        )
        desc = SendDescriptor(
            dst_nic=dst_node, dst_port=dst_endpoint, match=match, size=req.length,
            src_port=self.endpoint_id, data=data, meta=meta,
            fw_send_ns=self.costs.fw_send_ns, tag=req.tag,
        )
        self.node.nic.submit(desc)
        # The host buffer was consumed by the PIO write: complete now.
        self._complete(req)

    def _send_medium(self, dst_node, dst_endpoint, segments, match, req, meta=None):
        zero_copy = self.no_send_copy and self._zero_copy_eligible(segments)
        if zero_copy:
            self._m_medium_zc.inc()
            sg = self._resolve_sg(segments)
            data, src_sg = None, sg
        else:
            self._m_medium.inc()
            # Copy into the pre-registered bounce ring ("The standard MX
            # implementation uses a copy on both sides when processing
            # medium side messages", section 5.1).
            yield from self.cpu.copy(req.length)
            data, src_sg = self._gather_payload(segments), None
        yield from self.cpu.work(self.node.nic.doorbell_time_ns())
        desc = SendDescriptor(
            dst_nic=dst_node, dst_port=dst_endpoint, match=match, size=req.length,
            src_port=self.endpoint_id, data=data, sg=src_sg, meta=meta,
            fw_send_ns=self.costs.fw_send_ns, tag=req.tag,
        )
        completion = self.node.nic.submit(desc)
        if zero_copy:
            # Sending in place: the buffer is busy until the DMA is done.
            completion.add_callback(lambda ev: self._complete(req))
        else:
            # Buffered send: complete as soon as the copy has happened.
            self._complete(req)

    def _send_large(self, dst_node, dst_endpoint, segments, match, req, meta=None):
        self._m_large.inc()
        pinned: list = []
        npages = user_pages(segments)
        if npages:
            # MX pins user zones internally ("Larger messages are pinned
            # internally", section 5.1).
            yield from self.cpu.pin_pages(npages)
            for seg in segments:
                if seg.kind is MemType.USER_VIRTUAL:
                    pinned.extend(seg.space.pin_range(seg.vaddr, seg.length))
        sg = self._resolve_sg(segments)
        yield from self.cpu.work(self.node.nic.doorbell_time_ns())
        desc = SendDescriptor(
            dst_nic=dst_node, dst_port=dst_endpoint, match=match, size=req.length,
            src_port=self.endpoint_id, sg=sg, rendezvous=True, meta=meta,
            large_setup_ns=self.strategy.large_setup_ns,
            fw_send_ns=self.costs.fw_send_ns, tag=req.tag,
        )
        completion = self.node.nic.submit(desc)

        def _done(ev):
            for frame in pinned:
                frame.unpin()
            self._complete(req)

        completion.add_callback(_done)

    # -- receiving ---------------------------------------------------------------------

    def irecv(self, segments: Sequence[MxSegment], match: Optional[int] = None,
              tag: Any = None):
        """Generator: post a receive; returns an :class:`MxRequest`."""
        self._check_open()
        self._check_segments(segments)
        length = total_length(segments)
        req = MxRequest(kind="recv", length=length, match=match or 0,
                        event=self.env.event("mx.recv"), tag=tag)
        yield from self.cpu.work(self.costs.host_recv_post_ns)
        ring_path = (
            length <= self.strategy.medium_max
            and not (self.no_recv_copy and self._zero_copy_eligible(segments))
        )
        if ring_path:
            # Small/medium land in the endpoint's receive ring; the host
            # copies them out at match time (the receive-side copy of
            # section 5.1).
            nic_event = self.env.event("mx.ring")
            self.nic_port.post_receive(
                PostedReceive(match=match, capacity=length, keep_data=True,
                              completion=nic_event, tag=tag)
            )
            # Copy-out runs when the NIC has landed the message.
            nic_event.add_callback(lambda ev: self.cpu.copy_then(
                ev.value.size, self._ring_copied, ev.value, segments, req))
        else:
            pinned: list = []
            npages = user_pages(segments)
            if npages:
                yield from self.cpu.pin_pages(npages)
                for seg in segments:
                    if seg.kind is MemType.USER_VIRTUAL:
                        pinned.extend(seg.space.pin_range(seg.vaddr, seg.length))
            sg = self._resolve_sg(segments)
            nic_event = self.env.event("mx.zcrecv")
            self.nic_port.post_receive(
                PostedReceive(match=match, capacity=length, dest_sg=sg,
                              completion=nic_event, tag=tag)
            )

            def _done(ev):
                for frame in pinned:
                    frame.unpin()
                req.result = ev.value
                self._complete(req)

            nic_event.add_callback(_done)
        return req

    def _ring_copied(self, completion, segments, req: MxRequest) -> None:
        """The host copied a ring message out: scatter it, complete ``req``."""
        if completion.data is not None:
            self._scatter_payload(segments, completion.data)
        req.result = completion
        self._complete(req)

    # -- completion -------------------------------------------------------------------

    def test(self, req: MxRequest):
        """Generator: mx_test — non-blocking completion poll."""
        yield from self.cpu.work(_TEST_NS)
        return req.completed

    def wait(self, req: MxRequest, blocking: bool = False,
             timeout_ns: Optional[int] = None):
        """Generator: mx_wait — wait for one request.

        ``blocking=True`` models sleeping (interrupt wakeup) instead of
        polling; MX's wakeup is cheap (section 5.2 praises its flexible
        notification), but it is still charged.

        ``timeout_ns`` models mx_wait's timeout argument: if the request
        has not completed within the budget, returns None and leaves the
        request pending (the caller may retry, or abandon it).  The
        default None keeps the original wait-forever path.
        """
        if not req.event.processed:
            if timeout_ns is None:
                yield req.event
            else:
                timer = self.env.timeout(timeout_ns)
                yield self.env.any_of([req.event, timer])
                if not req.event.triggered:
                    return None
        yield from self.cpu.work(self.costs.host_event_ns)
        if blocking:
            yield from self.cpu.work(self.costs.blocking_wakeup_ns)
        return req

    def wait_any(self, requests: Sequence[MxRequest], blocking: bool = False):
        """Generator: wait for any of several requests — the completion
        flexibility the paper contrasts with GM's unique event queue
        ("allowing the application to wait on a single or any pending
        request", section 5.2).

        The requests must be this endpoint's; when several have
        completed, the lowest-index one is returned.  One call at a
        time may block on an endpoint.
        """
        if not requests:
            raise MXError("wait_any needs at least one request")
        ready = _first_completed(requests)
        if ready is None:
            if self._any_wait is not None:
                raise MXError("another wait_any is blocked on this endpoint")
            # One wake-up event, fired by _wake_any when a request it
            # covers completes.  Nothing is hung on the pending requests
            # themselves, so a server that waits on its ring again and
            # again leaves no dead callbacks.
            waiter = self.env.event("mx.wait_any")
            self._any_wait = (waiter, requests)
            yield waiter
            ready = _first_completed(requests)
        yield from self.cpu.work(self.costs.host_event_ns)
        if blocking:
            yield from self.cpu.work(self.costs.blocking_wakeup_ns)
        return ready

    def _complete(self, req: MxRequest) -> None:
        """Complete ``req``; when its event fires, _wake_any runs."""
        req.event.succeed(req)
        req.event.callbacks.append(self._wake_any)

    def _wake_any(self, event: Event) -> None:
        """A request completed: wake the blocked wait_any if it covers it."""
        blocked = self._any_wait
        # ``in`` compares by identity: MxRequest has eq=False.
        if blocked is not None and event.value in blocked[1]:
            self._any_wait = None
            blocked[0].succeed()

    # -- lifecycle --------------------------------------------------------------------

    def close(self) -> None:
        if not self._open:
            return
        self._open = False
        self.nic_port.close()

    def _check_open(self) -> None:
        if not self._open:
            raise MXError(f"endpoint {self.endpoint_id} is closed")


def _first_completed(requests: Sequence[MxRequest]) -> Optional[MxRequest]:
    """The lowest-index completed request, or None."""
    for r in requests:
        if r.event.processed:
            return r
    return None
