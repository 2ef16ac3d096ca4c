"""Exclusive self time and call counts of the layer tracer."""

from perfbench.tracer import Tracer, layer_of
from repro.sim import Environment


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_excludes_child_spans_and_same_layer_nesting():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def leaf():
        clock.now += 5

    def middle():
        clock.now += 2
        wrapped_leaf()
        wrapped_again()
        clock.now += 1

    def again():
        clock.now += 3

    wrapped_leaf = tr.wrap_function(leaf, "mem", "leaf")
    wrapped_again = tr.wrap_function(again, "kernel", "again")
    wrapped_middle = tr.wrap_function(middle, "kernel", "middle", timed=True)
    wrapped_middle()
    assert dict(tr.self_ns) == {"kernel": 6, "mem": 5}
    assert tr.inclusive_ns["middle"] == 11
    assert tr.count("leaf", "middle") == 2


def test_generator_spans_cover_resumes_not_suspensions():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    env = Environment()

    def proc():
        clock.now += 4
        got = yield env.timeout(10, value="v")
        clock.now += 6
        return got

    wrapped = tr.wrap_function(proc, "orfa", "proc", timed=True)
    result = {}

    def outer():
        result["value"] = yield from wrapped()

    env.process(outer())
    clock.now += 100  # time outside any span is charged to nobody
    env.run()
    assert result["value"] == "v"
    assert tr.self_ns["orfa"] == 10
    assert tr.inclusive_ns["proc"] == 10


def test_install_wraps_the_layers_and_uninstall_restores_them():
    from repro.kernel.vfs import Vfs

    read = Vfs.__dict__["read"]
    tr = Tracer()
    with tr.installed():
        assert Vfs.__dict__["read"] is not read
    assert Vfs.__dict__["read"] is read
    assert layer_of("repro.hw.switch") == "hw.wire"
    assert layer_of("repro.mem.phys") == "mem"
