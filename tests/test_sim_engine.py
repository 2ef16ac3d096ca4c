"""Unit tests for the discrete-event engine (repro.sim.engine)."""

import pytest

from repro.errors import ProcessInterrupt, SimulationError
from repro.sim import Environment


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_timeout_advances_clock():
    env = Environment()
    done = {}

    def proc(env):
        yield env.timeout(100)
        done["t"] = env.now

    env.process(proc(env))
    env.run()
    assert done["t"] == 100
    assert env.now == 100


def test_timeout_value_passthrough():
    env = Environment()
    seen = {}

    def proc(env):
        value = yield env.timeout(5, value="payload")
        seen["v"] = value

    env.process(proc(env))
    env.run()
    assert seen["v"] == "payload"


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def proc(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(env, 30, "c"))
    env.process(proc(env, 10, "a"))
    env.process(proc(env, 20, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(50)
        order.append(tag)

    for tag in ("first", "second", "third"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42


def test_process_waits_on_manual_event():
    env = Environment()
    ev = env.event()
    got = {}

    def waiter(env):
        got["v"] = yield ev

    def trigger(env):
        yield env.timeout(7)
        ev.succeed("hello")

    env.process(waiter(env))
    env.process(trigger(env))
    env.run()
    assert got["v"] == "hello"
    assert env.now == 7


def test_event_failure_raises_in_process():
    env = Environment()
    ev = env.event()
    caught = {}

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            caught["exc"] = str(exc)

    def failer(env):
        yield env.timeout(3)
        ev.fail(RuntimeError("boom"))

    env.process(waiter(env))
    env.process(failer(env))
    env.run()
    assert caught["exc"] == "boom"


def test_uncaught_event_failure_propagates_through_run():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        raise ValueError("explode")

    p = env.process(proc(env))
    with pytest.raises(ValueError, match="explode"):
        env.run(until=p)


def test_event_triggered_twice_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_all_of_waits_for_every_event():
    env = Environment()
    done = {}

    def proc(env):
        t1 = env.timeout(10, value="a")
        t2 = env.timeout(30, value="b")
        result = yield env.all_of([t1, t2])
        done["at"] = env.now
        done["values"] = sorted(result.values())

    env.process(proc(env))
    env.run()
    assert done["at"] == 30
    assert done["values"] == ["a", "b"]


def test_any_of_fires_on_first_event():
    env = Environment()
    done = {}

    def proc(env):
        t1 = env.timeout(10, value="fast")
        t2 = env.timeout(30, value="slow")
        result = yield env.any_of([t1, t2])
        done["at"] = env.now
        done["values"] = list(result.values())

    env.process(proc(env))
    env.run()
    assert done["at"] == 10
    assert done["values"] == ["fast"]


def test_all_of_empty_fires_immediately():
    env = Environment()
    done = {}

    def proc(env):
        yield env.all_of([])
        done["at"] = env.now

    env.process(proc(env))
    env.run()
    assert done["at"] == 0


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=95)
    assert env.now == 95


def test_run_until_past_time_raises():
    env = Environment()
    env.run(until=50)
    with pytest.raises(SimulationError):
        env.run(until=10)


def test_run_until_event_deadlock_detected():
    env = Environment()
    ev = env.event()

    def waiter(env):
        yield ev

    p = env.process(waiter(env))
    with pytest.raises(SimulationError, match="deadlock"):
        env.run(until=p)


def test_interrupt_raises_in_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(1000)
        except ProcessInterrupt as exc:
            log.append(("interrupted", exc.cause, env.now))

    def interrupter(env, victim):
        yield env.timeout(50)
        victim.interrupt("wakeup")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", "wakeup", 50)]


def test_uncaught_interrupt_kills_process():
    env = Environment()

    def sleeper(env):
        yield env.timeout(1000)

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    with pytest.raises(ProcessInterrupt):
        env.run(until=victim)


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_yielding_non_event_is_an_error():
    env = Environment()

    def bad(env):
        yield 42

    p = env.process(bad(env))
    with pytest.raises(SimulationError, match="must yield Event"):
        env.run(until=p)


def test_late_callback_on_processed_event_runs_immediately():
    env = Environment()
    ev = env.timeout(5, value="x")
    env.run()
    seen = []
    ev.add_callback(lambda e: seen.append(e.value))
    assert seen == ["x"]


def test_nested_processes_wait_on_each_other():
    env = Environment()

    def child(env):
        yield env.timeout(25)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return (result, env.now)

    p = env.process(parent(env))
    assert env.run(until=p) == ("child-result", 25)


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(40)
    env.timeout(10)
    assert env.peek() == 10
    env.run()
    assert env.peek() is None


def test_delay0_events_fire_fifo():
    # Multiple delay-0 triggers at one timestamp fire in trigger order.
    env = Environment()
    order = []
    evs = [env.event() for _ in range(4)]

    def waiter(env, i):
        yield evs[i]
        order.append(i)

    def trigger(env):
        yield env.timeout(3)
        for ev in (evs[2], evs[0], evs[3], evs[1]):
            ev.succeed()

    for i in range(4):
        env.process(waiter(env, i))
    env.process(trigger(env))
    env.run()
    assert order == [2, 0, 3, 1]


def test_delay0_fires_after_same_time_delayed_events():
    # A delay-0 event created while processing time T must fire after
    # every already-queued delayed event at T (the seed engine's
    # (time, seq) order), not jump ahead of them.
    env = Environment()
    order = []
    ev = env.event()

    def early(env):
        yield env.timeout(5)
        order.append("early")
        ev.succeed()  # delay-0, created at t=5

    def late(env):
        yield env.timeout(5)
        order.append("late")

    def waiter(env):
        yield ev
        order.append(("delay0", env.now))

    env.process(waiter(env))
    env.process(early(env))
    env.process(late(env))
    env.run()
    assert order == ["early", "late", ("delay0", 5)]


def test_delay0_before_run_fires_before_delayed():
    env = Environment()
    order = []
    ev = env.event()
    ev.succeed("x")

    def waiter(env):
        value = yield ev
        order.append(("imm", value, env.now))

    def delayed(env):
        yield env.timeout(1)
        order.append(("t1", env.now))

    env.process(delayed(env))
    env.process(waiter(env))
    env.run()
    assert order == [("imm", "x", 0), ("t1", 1)]


def test_step_drains_immediate_and_delayed_in_order():
    env = Environment()
    fired = []
    ev = env.event()
    ev.succeed("now")
    ev.add_callback(lambda e: fired.append(("imm", env.now)))
    t = env.timeout(10)
    t.add_callback(lambda e: fired.append(("t10", env.now)))
    assert env.peek() == 0  # immediate event pending at the current time
    env.step()
    assert fired == [("imm", 0)]
    assert env.peek() == 10
    env.step()
    assert fired == [("imm", 0), ("t10", 10)]


def test_interrupt_leaves_other_waiters_attached():
    # Detaching on interrupt is lazy; the shared event must still wake
    # every other process waiting on it.
    env = Environment()
    log = []
    shared = env.event()

    def sleeper(env, tag):
        try:
            value = yield shared
            log.append((tag, "got", value))
        except ProcessInterrupt:
            log.append((tag, "interrupted"))

    def driver(env):
        yield env.timeout(2)
        victims[1].interrupt("x")
        yield env.timeout(2)
        shared.succeed("v")

    victims = [env.process(sleeper(env, i)) for i in range(3)]
    env.process(driver(env))
    env.run()
    assert log == [(1, "interrupted"), (0, "got", "v"), (2, "got", "v")]


def test_interrupted_process_can_rewait_on_same_event():
    env = Environment()
    log = []
    shared = env.event()

    def sleeper(env):
        try:
            yield shared
        except ProcessInterrupt:
            log.append(("interrupted", env.now))
            value = yield shared  # re-issue the wait on the same event
            log.append(("got", value, env.now))

    def driver(env, victim):
        yield env.timeout(2)
        victim.interrupt()
        yield env.timeout(2)
        shared.succeed("again")

    victim = env.process(sleeper(env))
    env.process(driver(env, victim))
    env.run()
    assert log == [("interrupted", 2), ("got", "again", 4)]


def test_determinism_two_identical_runs():
    def build():
        env = Environment()
        trace = []

        def proc(env, tag, period):
            for _ in range(5):
                yield env.timeout(period)
                trace.append((env.now, tag))

        env.process(proc(env, "a", 7))
        env.process(proc(env, "b", 11))
        env.run()
        return trace

    assert build() == build()


# -- call_at / schedule_bulk ordering edge cases ------------------------------


def test_call_at_now_queues_after_due_heap_entries():
    # A call_at(now) lands on the immediate FIFO, which drains *after*
    # heap entries already due at the current timestamp.
    env = Environment()
    log = []

    def kick(env):
        yield env.timeout(5)
        env.call_at(env.now, log.append, "immediate")

    def also_at_5(env):
        yield env.timeout(5)
        log.append("heap")

    env.process(kick(env))
    env.process(also_at_5(env))
    env.run()
    assert log == ["heap", "immediate"]


def test_call_at_past_rejected():
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError):
        env.call_at(9, lambda: None)


def test_schedule_bulk_same_timestamp_order_matches_call_at():
    # Same-timestamp bulk entries must fire in entry order, exactly as
    # a call_at-per-entry loop would.
    def run(bulk):
        env = Environment()
        log = []
        entries = [(20, log.append, ("a",)), (10, log.append, ("b",)),
                   (20, log.append, ("c",)), (10, log.append, ("d",))]
        if bulk:
            env.schedule_bulk(entries)
        else:
            for when, fn, args in entries:
                env.call_at(when, fn, *args)
        env.run()
        return log

    assert run(bulk=True) == run(bulk=False) == ["b", "d", "a", "c"]


def test_schedule_bulk_interleaves_with_call_at_by_seq_order():
    # Bulk entries at a timestamp where events already exist fire after
    # the earlier-scheduled ones and before later-scheduled ones —
    # global sequence order, exactly like interleaved call_at calls.
    env = Environment()
    log = []
    env.call_at(30, log.append, "before")
    env.schedule_bulk([(30, log.append, ("bulk",))])
    env.call_at(30, log.append, "after")
    env.run()
    assert log == ["before", "bulk", "after"]


def test_schedule_bulk_now_entries_join_immediate_fifo():
    # when == now entries append to the immediate queue *behind* events
    # already queued there.
    env = Environment()
    log = []
    first = env.event()
    first.callbacks.append(lambda _e: log.append("pre"))
    first.succeed()                               # queued as immediate
    env.schedule_bulk([(0, log.append, ("bulk-now",)),
                       (0, log.append, ("bulk-now-2",))])
    env.run()
    assert log == ["pre", "bulk-now", "bulk-now-2"]


def test_schedule_bulk_past_rejected():
    env = Environment()
    env.run(until=50)
    with pytest.raises(SimulationError):
        env.schedule_bulk([(49, (lambda: None), ())])


def test_schedule_bulk_heapify_path_matches_push_path():
    # Large batch (heapify) vs tiny batches (per-entry push) must yield
    # identical firing order.
    def run(batched):
        env = Environment()
        log = []
        entries = [((i * 37) % 11 + 1, log.append, (i,)) for i in range(64)]
        if batched:
            env.schedule_bulk(entries)
        else:
            for entry in entries:
                env.schedule_bulk([entry])
        env.run()
        return log

    assert run(batched=True) == run(batched=False)
