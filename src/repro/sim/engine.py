"""Core event loop, events and processes.

The engine is deliberately small and fully deterministic:

* :class:`Environment` owns the clock (``int`` nanoseconds) and two
  queues: a heap of ``(time, seq, event)`` triples for *delayed* events
  and a plain FIFO for *immediate* (delay-0) events.
* :class:`Event` is a one-shot future.  Callbacks registered on it run
  when it is *processed* (popped from a queue), not when triggered.
* :class:`Process` drives a generator; each yielded event suspends the
  generator until that event fires.  Values flow back through
  ``send``/``throw`` exactly like SimPy, so hardware models read as
  straight-line code.

Fast path
---------

Most events in the simulated system are delay-0: resource grants,
``Store`` puts, process initiation, process completion.  Routing them
through the heap costs a ``heappush``/``heappop`` pair each, so the
engine keeps a dedicated FIFO "immediate queue" for them instead.

Ordering stays bit-identical to the single-heap engine because of one
invariant: *heap entries at the current timestamp always predate every
queued immediate event*.  A heap entry at time ``T`` was scheduled while
``now < T`` (its delay was positive), whereas an immediate event is
created at ``now == T`` and is always drained before the clock advances
past ``T``.  Hence draining heap entries at the current time first, then
the immediate FIFO, reproduces exactly the global ``(time, seq)`` order
the heap alone would have produced.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Generator, Iterable, Optional

from ..errors import ProcessInterrupt, SimulationError

# Sentinel distinguishing "no value yet" from a legitimate ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence with an optional value.

    Lifecycle: *pending* -> ``succeed``/``fail`` (triggered, queued) ->
    *processed* (callbacks run).  An event may only be triggered once;
    triggering twice is a bug in the model and raises.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_scheduled", "name")

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._scheduled = False
        self.name = name

    # -- state queries -------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` was called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception)."""
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has no value yet")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully, firing after ``delay`` ns."""
        self._trigger(value, ok=True, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(exception, ok=False, delay=delay)
        return self

    def _trigger(self, value: Any, ok: bool, delay: int) -> None:
        if self._value is not _PENDING:
            raise SimulationError(f"event {self!r} triggered twice")
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._value = value
        self._ok = ok
        self.env._schedule(self, delay)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when the event is processed.

        If the event was already processed, ``fn`` runs immediately —
        this makes late waiters on a completed request well defined.
        """
        if self.callbacks is None:
            fn(self)
        else:
            self.callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.processed else ("triggered" if self.triggered else "pending")
        label = self.name or self.__class__.__name__
        return f"<{label} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires ``delay`` ns after creation."""

    __slots__ = ()

    def __init__(self, env: "Environment", delay: int, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        # Timeouts are the most-constructed event in the simulator:
        # inline Event.__init__ and _schedule (a fresh event cannot be
        # scheduled twice) and use a static name — the delay is
        # recoverable from the heap entry.
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._scheduled = True
        self.name = "timeout"
        if delay == 0:
            env._immediate.append(self)
        else:
            env._seq += 1
            heapq.heappush(env._heap, (env._now + delay, env._seq, self))


class _Start:
    """Minimal immediate-queue entry that kicks a new :class:`Process` off.

    Duck-types the slice of the :class:`Event` interface the dispatch
    loop and ``Process._deliver`` touch (``callbacks``/``_ok``/``_value``,
    plus the public ``ok``/``value``) without paying for a full
    ``Event`` + ``succeed()`` per process.
    """

    __slots__ = ("callbacks",)

    ok = _ok = True
    value = _value = None

    def __init__(self, callback: Callable[[Any], None]):
        self.callbacks: Optional[list[Callable[[Any], None]]] = [callback]


class Process(Event):
    """Wraps a generator; itself an Event that fires when the generator ends.

    The generator yields :class:`Event` objects.  When a yielded event
    fires OK its value is sent back in; when it fails, the exception is
    thrown into the generator (which may catch it).  ``interrupt()``
    throws :class:`ProcessInterrupt` at the current suspension point.
    """

    __slots__ = ("_gen", "_waiting_on", "_resume_cb")

    def __init__(self, env: "Environment", gen: Generator[Event, Any, Any], name: str = ""):
        if not hasattr(gen, "send") or not hasattr(gen, "throw"):
            raise SimulationError(f"Process needs a generator, got {gen!r}")
        super().__init__(env, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        # One bound method for the whole lifetime: registering a fresh
        # bound ``self._resume`` per wait would allocate every time.
        self._resume_cb = self._resume
        # Kick off the generator at the current time via a lightweight
        # startup entry on the immediate queue (no Event allocation).
        start = _Start(self._resume_cb)
        self._waiting_on: Optional[Any] = start
        env._immediate.append(start)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`ProcessInterrupt` into the process.

        The event it was waiting on is detached: if it later fires, the
        process does not see it (matching SimPy semantics closely enough
        for our models, which re-issue their waits after interrupt).
        Detaching is O(1): ``_resume`` ignores any event that is no
        longer the current wait target, so the old target's callback
        list is never scanned — interrupt cost does not scale with how
        many other waiters that event has.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        interrupt_ev = Event(self.env, name=f"interrupt:{self.name}")
        interrupt_ev.fail(ProcessInterrupt(cause))
        # Delivered unconditionally (not via the _waiting_on guard) so
        # stacked interrupts are all seen, as with the list-scan detach.
        interrupt_ev.add_callback(self._deliver)
        self._waiting_on = interrupt_ev

    # -- internal ------------------------------------------------------

    def _resume(self, event: Any) -> None:
        if event is not self._waiting_on:
            return  # stale firing of an event interrupt() detached us from
        self._deliver(event)

    def _deliver(self, event: Any) -> None:
        self._waiting_on = None
        try:
            if event._ok:
                target = self._gen.send(event._value)
            else:
                target = self._gen.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except ProcessInterrupt as exc:
            # Interrupt escaped the generator uncaught: the process dies
            # with it, propagating to anything waiting on the process.
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Event objects"
            )
        if target.env is not self.env:
            raise SimulationError("cannot wait on an event from another Environment")
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            callbacks.append(self._resume_cb)


class _Condition(Event):
    """Base for AllOf / AnyOf composites."""

    __slots__ = ("events", "_done")

    def __init__(self, env: "Environment", events: Iterable[Event], name: str):
        super().__init__(env, name=name)
        self.events = list(events)
        for ev in self.events:
            if ev.env is not env:
                raise SimulationError("condition mixes events from different Environments")
        self._done = 0
        if not self.events:
            self.succeed({})
            return
        for ev in self.events:
            ev.add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        # A Timeout is "triggered" at construction (its value is pre-set),
        # so membership must be judged by *processed* — has it actually
        # fired on the queue — not by triggered.
        return {ev: ev.value for ev in self.events if ev.processed and ev.ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every child event has fired; value maps event -> value.

    A failing child fails the composite immediately with that child's
    exception.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, name="AllOf")

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._done += 1
        if self._done == len(self.events):
            self.succeed(self._collect())


class AnyOf(_Condition):
    """Fires when the first child event fires; value maps event -> value."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]):
        super().__init__(env, events, name="AnyOf")

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self.succeed(self._collect())


class _Call(Event):
    """A pre-triggered event that invokes a plain callable when processed.

    The cheapest way to run ``fn(*args)`` at an absolute simulated time:
    one heap entry, no generator, no Process machinery.  Used by the
    packet-train fast path to deliver analytically-timed arrivals.
    """

    __slots__ = ("_fn", "_args")

    def __init__(self, env: "Environment", fn: Callable[..., Any], args: tuple):
        self.env = env
        self._fn = fn
        self._args = args
        self._value = None
        self._ok = True
        self._scheduled = False
        self.name = getattr(fn, "__name__", "call")
        self.callbacks = [self._run]

    def _run(self, _event: "Event") -> None:
        self._fn(*self._args)


class Environment:
    """The simulation world: clock, event queues, and process factory."""

    #: Events dispatched by *all* environments in this process since
    #: import.  ``run``/``step`` flush into it alongside
    #: the per-instance counter; the bench runner reads deltas around a
    #: figure (which may build several environments) for ``--timings``.
    lifetime_events_processed: int = 0

    def __init__(self):
        self._now: int = 0
        self._heap: list[tuple[int, int, Event]] = []
        self._immediate: deque[Any] = deque()
        self._seq: int = 0
        #: Total events dispatched by ``run``/``step`` over the
        #: environment's lifetime.  Deterministic (same model, same
        #: count), so perf gates can budget on it instead of wall-clock.
        self.events_processed: int = 0
        self._id_spaces: dict[str, itertools.count] = {}

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    def next_id(self, space: str, start: int = 1) -> int:
        """Next id from the named id space of this simulation.

        Request, connection, context, rendezvous and train ids are
        numbered per environment, so a run's ids never depend on what
        else ran earlier in the same process.  ``start`` is the first id
        handed out; it only matters on a space's first use.
        """
        ids = self._id_spaces.get(space)
        if ids is None:
            ids = self._id_spaces[space] = itertools.count(start)
        return next(ids)

    # -- event factories -------------------------------------------------

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered event."""
        return Event(self, name)

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` ns from now."""
        return Timeout(self, int(delay), value)

    def process(self, gen: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new process driving ``gen``; returns its Process event."""
        return Process(self, gen, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event firing when all of ``events`` have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event firing when any of ``events`` has fired."""
        return AnyOf(self, events)

    # -- scheduling / running ---------------------------------------------

    def _schedule(self, event: Event, delay: int = 0) -> None:
        if event._scheduled:
            raise SimulationError(f"event {event!r} scheduled twice")
        event._scheduled = True
        if delay == 0:
            self._immediate.append(event)
        else:
            self._seq += 1
            heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    def call_at(self, when: int, fn: Callable[..., Any], *args: Any) -> Event:
        """Run ``fn(*args)`` at absolute simulated time ``when``.

        One heap (or immediate-queue) entry total — no Timeout, no
        Process.  ``when`` may equal ``now`` (queued as an immediate,
        i.e. after heap entries already due at this timestamp).
        """
        delay = when - self._now
        if delay < 0:
            raise SimulationError(f"call_at({when}) is in the past (now {self._now})")
        call = _Call(self, fn, args)
        self._schedule(call, delay)
        return call

    def schedule_bulk(self, entries: Iterable[tuple[int, Callable[..., Any], tuple]]) -> None:
        """Schedule many ``(when, fn, args)`` callbacks in one pass.

        Sequence numbers are assigned in entry order, so same-timestamp
        entries fire in the order given — exactly as if ``call_at`` had
        been called once per entry.  When the batch is large relative to
        the live heap, one ``heapify`` over the extended list beats
        per-entry sift-up.
        """
        heap = self._heap
        imm = self._immediate
        now = self._now
        pending: list[tuple[int, int, Event]] = []
        for when, fn, args in entries:
            if when < now:
                raise SimulationError(f"schedule_bulk entry at {when} is in the past (now {now})")
            call = _Call(self, fn, args)
            call._scheduled = True
            if when == now:
                imm.append(call)
            else:
                self._seq += 1
                pending.append((when, self._seq, call))
        if not pending:
            return
        # heappush is O(log n) each; heapify is O(n) total.  Pushing is
        # cheaper while the batch is small next to the heap.
        if len(pending) * 4 < len(heap):
            for entry in pending:
                heapq.heappush(heap, entry)
        else:
            heap.extend(pending)
            heapq.heapify(heap)

    def step(self) -> None:
        """Pop and process the next event; raises if both queues are empty."""
        heap = self._heap
        if heap and heap[0][0] == self._now:
            event = heapq.heappop(heap)[2]
        elif self._immediate:
            event = self._immediate.popleft()
        elif heap:
            when, _, event = heapq.heappop(heap)
            if when < self._now:
                raise SimulationError("event scheduled in the past")
            self._now = when
        else:
            raise SimulationError("step() on an empty event queue")
        self.events_processed += 1
        Environment.lifetime_events_processed += 1
        callbacks = event.callbacks
        event.callbacks = None
        assert callbacks is not None
        for fn in callbacks:
            fn(event)

    def run(self, until: Optional[int | Event] = None) -> Any:
        """Run the simulation.

        * ``until=None``: run until both queues drain.
        * ``until`` an ``int``: run until the clock reaches that time.
        * ``until`` an :class:`Event`: run until it is processed and
          return its value (raising its exception if it failed).

        The three loops below share one inlined dispatch body (instead
        of calling :meth:`step` per event) so the per-event cost is a
        couple of comparisons plus the callbacks themselves.  Branch
        order encodes the determinism invariant: heap entries at the
        current time fire before queued immediates, immediates fire
        before the clock advances.
        """
        heap = self._heap
        imm = self._immediate
        pop = heapq.heappop
        # Event accounting stays off the hot loop: bump a local int and
        # flush it to the instance counter once the loop exits (the
        # finally runs even when a callback raises).
        n = 0

        if until is None:
            try:
                while True:
                    if heap and heap[0][0] == self._now:
                        event = pop(heap)[2]
                    elif imm:
                        event = imm.popleft()
                    elif heap:
                        when, _, event = pop(heap)
                        self._now = when
                    else:
                        return None
                    n += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for fn in callbacks:
                        fn(event)
            finally:
                self.events_processed += n
                Environment.lifetime_events_processed += n

        if isinstance(until, Event):
            target = until
            try:
                while target.callbacks is not None:
                    if heap and heap[0][0] == self._now:
                        event = pop(heap)[2]
                    elif imm:
                        event = imm.popleft()
                    elif heap:
                        when, _, event = pop(heap)
                        self._now = when
                    else:
                        raise SimulationError(
                            f"event queue drained before {target!r} fired (deadlock?)"
                        )
                    n += 1
                    callbacks = event.callbacks
                    event.callbacks = None
                    for fn in callbacks:
                        fn(event)
            finally:
                self.events_processed += n
                Environment.lifetime_events_processed += n
            if target.ok:
                return target.value
            raise target.value

        deadline = int(until)
        if deadline < self._now:
            raise SimulationError(f"cannot run until {deadline} < now {self._now}")
        try:
            while True:
                if heap and heap[0][0] == self._now:
                    event = pop(heap)[2]
                elif imm:
                    event = imm.popleft()
                elif heap and heap[0][0] <= deadline:
                    when, _, event = pop(heap)
                    self._now = when
                else:
                    break
                n += 1
                callbacks = event.callbacks
                event.callbacks = None
                for fn in callbacks:
                    fn(event)
        finally:
            self.events_processed += n
            Environment.lifetime_events_processed += n
        self._now = deadline
        return None

    def peek(self) -> Optional[int]:
        """Timestamp of the next queued event, or None if queues are empty."""
        if self._immediate:
            return self._now
        return self._heap[0][0] if self._heap else None
