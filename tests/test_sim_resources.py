"""Unit tests for Resource, PriorityResource and Store (repro.sim.resources)."""

import pytest

from repro.errors import SimulationError
from repro.sim import Environment, PriorityResource, Resource, Store


def test_resource_grants_immediately_when_free():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def proc(env):
        req = res.request()
        yield req
        log.append(env.now)
        req.release()

    env.process(proc(env))
    env.run()
    assert log == [0]


def test_resource_serializes_two_holders():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def proc(env, tag):
        req = res.request()
        yield req
        log.append((tag, "start", env.now))
        yield env.timeout(100)
        req.release()
        log.append((tag, "end", env.now))

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert log == [
        ("a", "start", 0),
        ("a", "end", 100),
        ("b", "start", 100),
        ("b", "end", 200),
    ]


def test_resource_capacity_two_runs_in_parallel():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def proc(env):
        req = res.request()
        yield req
        starts.append(env.now)
        yield env.timeout(50)
        req.release()

    for _ in range(3):
        env.process(proc(env))
    env.run()
    assert starts == [0, 0, 50]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def proc(env, tag, arrive):
        yield env.timeout(arrive)
        req = res.request()
        yield req
        order.append(tag)
        yield env.timeout(10)
        req.release()

    env.process(proc(env, "late", 2))
    env.process(proc(env, "early", 1))
    env.process(proc(env, "first", 0))
    env.run()
    assert order == ["first", "early", "late"]


def test_release_idle_resource_raises():
    env = Environment()
    res = Resource(env, capacity=1)
    req = res.request()
    req.release()
    with pytest.raises(SimulationError):
        res.release(req)


def test_acquire_helper_holds_for_duration():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def proc(env, tag):
        yield from res.acquire(30)
        log.append((tag, env.now))

    env.process(proc(env, "a"))
    env.process(proc(env, "b"))
    env.run()
    assert log == [("a", 30), ("b", 60)]


def test_resource_utilization_tracks_busy_time():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        yield from res.acquire(40)
        yield env.timeout(60)  # idle gap
        yield from res.acquire(20)

    env.process(proc(env))
    env.run()
    assert env.now == 120
    assert res.busy_time == 60
    assert res.utilization() == pytest.approx(0.5)


def test_resource_invalid_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_priority_resource_serves_lowest_priority_first():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request(priority=0)
        yield req
        yield env.timeout(100)
        req.release()

    def proc(env, tag, prio, arrive):
        yield env.timeout(arrive)
        req = res.request(priority=prio)
        yield req
        order.append(tag)
        req.release()

    env.process(holder(env))
    env.process(proc(env, "low-prio", 5, 1))
    env.process(proc(env, "high-prio", 1, 2))
    env.run()
    assert order == ["high-prio", "low-prio"]


def test_priority_resource_fifo_within_same_priority():
    env = Environment()
    res = PriorityResource(env, capacity=1)
    order = []

    def holder(env):
        req = res.request()
        yield req
        yield env.timeout(10)
        req.release()

    def proc(env, tag, arrive):
        yield env.timeout(arrive)
        yield from res.acquire(1, priority=3)
        order.append(tag)

    env.process(holder(env))
    env.process(proc(env, "x", 1))
    env.process(proc(env, "y", 2))
    env.run()
    assert order == ["x", "y"]


def test_store_put_then_get():
    env = Environment()
    store = Store(env)
    got = {}

    def consumer(env):
        got["v"] = yield store.get()

    store.put("item")
    env.process(consumer(env))
    env.run()
    assert got["v"] == "item"


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    got = {}

    def consumer(env):
        got["v"] = yield store.get()
        got["t"] = env.now

    def producer(env):
        yield env.timeout(33)
        store.put("late-item")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert got == {"v": "late-item", "t": 33}


def test_store_fifo_item_order():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            received.append(item)

    for item in (1, 2, 3):
        store.put(item)
    env.process(consumer(env))
    env.run()
    assert received == [1, 2, 3]


def test_store_fifo_getter_order():
    env = Environment()
    store = Store(env)
    received = []

    def consumer(env, tag, arrive):
        yield env.timeout(arrive)
        item = yield store.get()
        received.append((tag, item))

    env.process(consumer(env, "a", 0))
    env.process(consumer(env, "b", 1))

    def producer(env):
        yield env.timeout(10)
        store.put("x")
        store.put("y")

    env.process(producer(env))
    env.run()
    assert received == [("a", "x"), ("b", "y")]


def test_store_len_and_peek():
    env = Environment()
    store = Store(env)
    store.put(1)
    store.put(2)
    assert len(store) == 2
    assert store.peek_all() == (1, 2)


def _hold_script(style):
    """Four holders on a one-slot resource, started at t=0, 0, 10, 10,
    plus two bystander callbacks due when the first hold ends.  ``style``
    picks how the holders hold: ``acquire`` processes, or ``hold_then``
    callbacks started in the immediate slot a process would start in.
    Returns (log, resource)."""
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def note(tag):
        log.append((tag, env.now))

    def start(tag, hold):
        if style == "acquire":
            def proc(env):
                yield from res.acquire(hold)
                note(tag)
            env.process(proc(env))
        else:
            env.call_at(env.now, res.hold_then, hold, note, tag)

    start("a", 100)  # free: granted at once
    start("b", 0)  # queued behind a; zero-length hold
    env.call_at(10, start, "c", 30)
    env.call_at(10, start, "d", 20)
    env.call_at(100, note, "bystander")  # same instant as a's release
    # Scheduled after a's hold began: its heap entry sorts after a's end.
    env.call_at(0, lambda: env.call_at(100, note, "late"))
    env.run()
    return log, res


def test_hold_then_matches_acquire_free_and_queued():
    want, res_a = _hold_script("acquire")
    got, res_h = _hold_script("hold_then")
    assert want == [("bystander", 100), ("a", 100), ("late", 100),
                    ("b", 100), ("c", 130), ("d", 150)]
    assert got == want
    assert (res_h.busy_time, res_h.grant_count) == (res_a.busy_time,
                                                    res_a.grant_count)
    assert (res_h.in_use, res_h.queue_length) == (0, 0)


def test_hold_then_queues_fifo_behind_acquire_waiters():
    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def proc(env, tag, hold):
        yield from res.acquire(hold)
        log.append((tag, env.now))

    env.process(proc(env, "p1", 50))
    env.process(proc(env, "p2", 10))  # waits behind p1
    env.run(until=1)
    res.hold_then(5, lambda: log.append(("cb", env.now)))  # behind p2
    env.process(proc(env, "p3", 1))  # behind the callback holder
    env.run()
    assert log == [("p1", 50), ("p2", 60), ("cb", 65), ("p3", 66)]
    assert res.grant_count == 4
    assert res.busy_time == 66


def test_hold_then_zero_hold_runs_at_once_with_slot_released():
    env = Environment()
    res = Resource(env, capacity=1)
    seen = []
    res.hold_then(0, lambda: seen.append((env.now, res.in_use)))
    assert seen == [(0, 0)]
    assert res.grant_count == 1
