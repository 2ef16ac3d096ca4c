"""The open-loop schedule matcher and the op timer."""

import pytest

from perfbench import orfa_openloop
from perfbench.common import Stopwatch
from perfbench.orfa_openloop import MatchError, match, schedule_base, time_ops
from repro.load import ScheduledOp
from repro.sim import Environment


def _schedule():
    return [ScheduledOp(0, 100, 0, "read", 4096),
            ScheduledOp(1, 150, 1, "write", 4096),
            ScheduledOp(2, 200, 0, "stat", 0),
            ScheduledOp(3, 260, 1, "read", 4096)]


def test_matcher_reproduces_hand_computed_latencies():
    records = {0: [("read", 120, 170), ("stat", 210, 300)],
               1: [("write", 150, 400), ("read", 400, 450)]}
    timed = match(_schedule(), records, 0)
    assert [t.index for t in timed] == [0, 1, 2, 3]
    assert [(t.latency_ns, t.queue_ns, t.service_ns) for t in timed] == [
        (70, 20, 50), (250, 0, 250), (100, 10, 90), (190, 140, 50)]


def test_matcher_counts_a_late_start_as_queue_wait():
    # Set-up left the clock at 7.36 ms; the schedule starts at 0.
    sched = [ScheduledOp(0, 1_000, 0, "read", 4096)]
    (t,) = match(sched, {0: [("read", 7_360_000, 7_420_000)]}, 0)
    assert (t.latency_ns, t.queue_ns, t.service_ns) == (
        7_419_000, 7_359_000, 60_000)


def test_schedule_base_follows_how_the_driver_counts_its_schedule():
    sched = _schedule()
    # Counted from t=0 with set-up ending at 180 ns: the first two are
    # released late in one burst, the rest on time.
    burst = [(sched[0], 180), (sched[1], 180), (sched[2], 200),
             (sched[3], 260)]
    assert schedule_base(burst) == 0
    # Counted from the end of set-up: every release is on time.
    rebased = [(item, 180 + item.at_ns) for item in sched]
    assert schedule_base(rebased) == 180
    records = {0: [("read", 280, 330), ("stat", 380, 470)],
               1: [("write", 330, 580), ("read", 580, 630)]}
    timed = match([item for item, _ in rebased], records, 180)
    assert [(t.latency_ns, t.queue_ns, t.service_ns) for t in timed] == [
        (50, 0, 50), (250, 0, 250), (90, 0, 90), (190, 140, 50)]


def test_matcher_rejects_ops_that_do_not_line_up():
    with pytest.raises(MatchError):
        match(_schedule(), {0: [("stat", 120, 170)]}, 0)
    with pytest.raises(MatchError):
        match(_schedule(),
              {0: [("read", 1, 2), ("stat", 3, 4), ("read", 5, 6)]}, 0)


def test_time_ops_records_start_and_end_in_simulated_time(monkeypatch):
    monkeypatch.setattr(orfa_openloop, "LAP_OPS", 2)
    env = Environment()

    class Workload:
        def op(self, client, name, size):
            yield env.timeout(10 * (client + 1))

    wl = Workload()
    clock = Stopwatch()
    records = time_ops(wl, env, clock)

    def issue(client):
        yield env.timeout(5)
        yield from wl.op(client, "read", 4096)
        yield from wl.op(client, "stat", 0)

    env.run(until=env.all_of([env.process(issue(0)), env.process(issue(1))]))
    assert records == {0: [("read", 5, 15), ("stat", 15, 25)],
                       1: [("read", 5, 25), ("stat", 25, 45)]}
    assert len(clock.laps) == 2
