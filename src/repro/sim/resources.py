"""Contended resources and message channels for the event engine.

:class:`Resource` models a unit (or pool) of hardware that requests must
queue for — a PCI bus, a DMA engine, one direction of a network link,
the host CPU.  :class:`Store` is an unbounded FIFO channel used for
request queues between model components (e.g. the host-to-NIC doorbell
queue, a server's incoming-request queue).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Optional

from ..errors import SimulationError
from .engine import Environment, Event, Timeout


class _Request(Event):
    """Event that fires when the resource grants this request."""

    __slots__ = ("resource",)

    def __init__(self, env: Environment, resource: "Resource"):
        super().__init__(env, name=resource._req_name)
        self.resource = resource

    def release(self) -> None:
        """Return the granted slot to the resource."""
        self.resource.release(self)


class Resource:
    """A FIFO resource with ``capacity`` identical slots.

    Usage from a process::

        req = bus.request()
        yield req
        yield env.timeout(occupancy)
        req.release()

    ``acquire()`` is a convenience generator doing request+hold+release
    in one step for the very common "occupy for a fixed time" pattern.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._req_name = f"req:{name}"
        self._in_use = 0
        self._waiting: deque[_Request] = deque()
        # Invoked (if set) each time a request has to queue.  Lets an
        # analytic holder — the packet-train fast path — learn that the
        # resource just became contended and fall back to per-packet
        # simulation; None for everyone else, costing one load per queue.
        self.contention_cb: Optional[Any] = None
        # occupancy statistics
        self._busy_since: Optional[int] = None
        self.busy_time = 0
        self.grant_count = 0

    @property
    def in_use(self) -> int:
        """Number of currently granted slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiting)

    def request(self) -> _Request:
        """Ask for a slot; the returned event fires when granted."""
        req = _Request(self.env, self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._waiting.append(req)
            cb = self.contention_cb
            if cb is not None:
                cb()
        return req

    def release(self, req: _Request) -> None:
        """Release a previously granted slot."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.env.now - self._busy_since
            self._busy_since = None
        while self._waiting and self._in_use < self.capacity:
            self._grant(self._waiting.popleft())

    def _grant(self, req: _Request) -> None:
        self._in_use += 1
        self.grant_count += 1
        if self._busy_since is None:
            self._busy_since = self.env.now
        req.succeed(req)

    def acquire(self, hold_ns: int):
        """Generator: wait for a slot, hold it ``hold_ns``, release it.

        Intended to be delegated to from a process::

            yield from bus.acquire(transfer_time)

        When a slot is free the grant is synchronous (state changes
        immediately, exactly as :meth:`request` would make it), skipping
        the grant event's queue round-trip — the dominant resource
        pattern in the simulator is an uncontended hold.
        """
        if self._in_use < self.capacity:
            # Inline _grant, minus the grant event: identical accounting
            # (a free slot implies no waiters, so FIFO order is moot).
            self._in_use += 1
            self.grant_count += 1
            env = self.env
            if self._busy_since is None:
                self._busy_since = env._now
            try:
                if hold_ns > 0:
                    yield Timeout(env, hold_ns)
            finally:
                # Inline release(): this hold still owns the slot it took.
                self._in_use -= 1
                if self._in_use == 0:
                    self.busy_time += env._now - self._busy_since
                    self._busy_since = None
                while self._waiting and self._in_use < self.capacity:
                    self._grant(self._waiting.popleft())
            return
        req = self.request()
        yield req
        try:
            if hold_ns > 0:
                yield self.env.timeout(hold_ns)
        finally:
            req.release()

    def hold_then(self, hold_ns: int, fn: Callable[..., Any], *args: Any) -> None:
        """Callback twin of :meth:`acquire`: wait for a slot, hold it
        ``hold_ns``, release it, then call ``fn(*args)``.

        For model code that is a chain of callbacks rather than a
        process.  Grant, FIFO queueing and accounting are ``acquire``'s,
        and the end of the hold is scheduled in the queue slot that
        ``acquire``'s timeout would take, so swapping one for the other
        moves no event.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            self.grant_count += 1
            if self._busy_since is None:
                self._busy_since = self.env._now
            self._hold(hold_ns, fn, args)
            return
        req = self.request()
        req.callbacks.append(lambda _req: self._hold(hold_ns, fn, args))

    def _hold(self, hold_ns: int, fn: Callable[..., Any], args: tuple) -> None:
        if hold_ns > 0:
            env = self.env
            env.call_at(env._now + hold_ns, self._end_hold, fn, args)
        else:
            self._end_hold(fn, args)

    def _end_hold(self, fn: Callable[..., Any], args: tuple) -> None:
        self.release(None)  # release() never reads the request
        fn(*args)

    def utilization(self) -> float:
        """Fraction of elapsed simulated time this resource was busy."""
        busy = self.busy_time
        if self._busy_since is not None:
            busy += self.env.now - self._busy_since
        return busy / self.env.now if self.env.now else 0.0


class PriorityResource(Resource):
    """Resource whose waiters are granted in (priority, fifo) order.

    Lower priority value is served first.  Used for NIC firmware
    scheduling where small-message PIO requests preempt queued DMA
    descriptors in GM's MCP.
    """

    def __init__(self, env: Environment, capacity: int = 1, name: str = "presource"):
        super().__init__(env, capacity, name)
        self._pwaiting: list[tuple[int, int, _Request]] = []
        self._pseq = 0

    @property
    def queue_length(self) -> int:
        return len(self._pwaiting)

    def request(self, priority: int = 0) -> _Request:  # type: ignore[override]
        req = _Request(self.env, self)
        if self._in_use < self.capacity:
            self._grant(req)
        else:
            self._pseq += 1
            heapq.heappush(self._pwaiting, (priority, self._pseq, req))
        return req

    def release(self, req: _Request) -> None:
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name}")
        self._in_use -= 1
        if self._in_use == 0 and self._busy_since is not None:
            self.busy_time += self.env.now - self._busy_since
            self._busy_since = None
        while self._pwaiting and self._in_use < self.capacity:
            _, _, nxt = heapq.heappop(self._pwaiting)
            self._grant(nxt)

    def acquire(self, hold_ns: int, priority: int = 0):
        """Priority-aware variant of :meth:`Resource.acquire`."""
        if self._in_use < self.capacity:
            # Free slot ⟹ empty queue ⟹ priority is moot: same
            # synchronous grant as the base class fast path.
            self._in_use += 1
            self.grant_count += 1
            if self._busy_since is None:
                self._busy_since = self.env.now
            try:
                if hold_ns > 0:
                    yield self.env.timeout(hold_ns)
            finally:
                self.release(None)
            return
        req = self.request(priority)
        yield req
        try:
            if hold_ns > 0:
                yield self.env.timeout(hold_ns)
        finally:
            req.release()


class Store:
    """Unbounded FIFO channel of Python objects between processes.

    ``put()`` never blocks (returns the stored item count); ``get()``
    returns an event firing with the next item, immediately if one is
    buffered.  Getters are served FIFO.
    """

    def __init__(self, env: Environment, name: str = "store"):
        self.env = env
        self.name = name
        self._get_name = f"get:{name}"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self.put_count = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> int:
        """Deposit ``item``; wakes the oldest waiting getter if any."""
        self.put_count += 1
        if self._getters:
            # Inline succeed(): a queued getter is pending by
            # construction (cancel() removes withdrawn ones), so the
            # triggered-twice / scheduled-twice checks are vacuous.
            ev = self._getters.popleft()
            ev._value = item
            ev._scheduled = True
            self.env._immediate.append(ev)
        else:
            self._items.append(item)
        return len(self._items)

    def get(self) -> Event:
        """Event firing with the next item (immediately if buffered)."""
        ev = Event(self.env, name=self._get_name)
        if self._items:
            # Same inlining as put(): the event was created one line up.
            ev._value = self._items.popleft()
            ev._scheduled = True
            self.env._immediate.append(ev)
        else:
            self._getters.append(ev)
        return ev

    def cancel(self, getter: Event) -> bool:
        """Withdraw a pending getter (used by timed waits that lost the
        race against a timeout).  Returns True if the getter was still
        queued; False if it already fired or was never ours — in that
        case the caller must consume ``getter.value`` or re-``put`` it.
        """
        try:
            self._getters.remove(getter)
            return True
        except ValueError:
            return False

    def peek_all(self) -> tuple[Any, ...]:
        """Snapshot of buffered items (for tests and introspection)."""
        return tuple(self._items)
