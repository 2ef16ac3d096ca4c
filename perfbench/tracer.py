"""Layer spans recorded from outside the program.

:class:`Tracer` wraps every method defined on the classes of each
``repro`` module (dunder methods, properties, static and class methods
excepted) so that a call opens a span of the module's *layer*
(``kernel``, ``hw.nic``, ...).  Generator methods — the simulator's
processes — are wrapped so that every resume of the generator is one
span: the time a process spends suspended in the engine belongs to
whoever runs meanwhile, not to the layer that yielded.

Self time is exclusive: at every span boundary the host time since the
previous boundary is charged to the layer on top of the span stack, so
a layer's self time is its span time minus the time of the child spans
it caused, and nested calls within one layer are not counted twice.
Time outside any wrapped method (the event loop itself) is charged to
``sim`` because :meth:`repro.sim.Environment.run` is the outermost span.

Counts are aggregated in memory per function (``calls``) and per layer
(``self_ns``); nothing is written while the program runs.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

#: Module prefix -> layer name.  Longest prefix wins.
LAYERS = {
    "repro.sim.resources": "sim",
    "repro.hw.nic": "hw.nic",
    "repro.hw.link": "hw.wire",
    "repro.hw.switch": "hw.wire",
    "repro.hw.train": "hw.wire",
    "repro.hw.wire": "hw.wire",
    "repro.hw.flow": "hw.flow",
    "repro.hw.cpu": "hw.cpu",
    "repro.mem": "mem",
    "repro.nicfw": "nicfw",
    "repro.gm": "gm",
    "repro.gmkrc": "gmkrc",
    "repro.mx": "mx",
    "repro.core": "core",
    "repro.kernel": "kernel",
    "repro.orfs": "orfs",
    "repro.orfa": "orfa",
    "repro.load": "load",
    "repro.cluster": "cluster",
}

#: Modules whose classes are wrapped (every module of the layers above
#: that defines classes the three workloads can reach).
MODULES = (
    "repro.sim.resources",
    "repro.hw.nic", "repro.hw.link", "repro.hw.switch", "repro.hw.train",
    "repro.hw.flow", "repro.hw.cpu",
    "repro.mem.addrspace", "repro.mem.kmem", "repro.mem.layout",
    "repro.mem.phys", "repro.mem.sglist",
    "repro.nicfw.transtable",
    "repro.gm.api", "repro.gm.kernel", "repro.gm.registration",
    "repro.gmkrc.cache", "repro.gmkrc.spaces",
    "repro.mx.api", "repro.mx.memtypes",
    "repro.core.channel",
    "repro.kernel.memfs", "repro.kernel.pagecache", "repro.kernel.threads",
    "repro.kernel.vfs", "repro.kernel.vmaspy", "repro.kernel.writeback",
    "repro.orfs.client",
    "repro.orfa.client", "repro.orfa.protocol", "repro.orfa.server",
    "repro.load.driver", "repro.load.workloads",
    "repro.cluster.node", "repro.cluster.topo",
)

#: Modules whose public functions are wrapped too, with their inclusive
#: time kept: the topology builders, which callers reach through the
#: module (``topo.fat_tree``).
BUILDER_MODULES = ("repro.cluster.node", "repro.cluster.topo")


def layer_of(module: str) -> str:
    """The layer of a ``repro`` module (``sim`` if none matches)."""
    best = ""
    for prefix in LAYERS:
        if (module == prefix or module.startswith(prefix + ".")) \
                and len(prefix) > len(best):
            best = prefix
    return LAYERS[best] if best else "sim"


class Tracer:
    """Exclusive per-layer host time and per-function call counts."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        #: inclusive host time of selected functions (``timed=`` names);
        #: for a generator, the sum over its resumes
        self.inclusive_ns: dict[str, int] = defaultdict(int)
        self._stack: list[str] = []
        self._last = clock()
        self._patches: list[tuple[object, str, object]] = []
        self.resource_wait_ns = 0
        self.frame_allocs = 0
        self.resources: list = []

    # -- span stack ---------------------------------------------------------

    def enter(self, layer: str) -> None:
        now = self.clock()
        if self._stack:
            self.self_ns[self._stack[-1]] += now - self._last
        self._stack.append(layer)
        self._last = now

    def exit(self) -> None:
        now = self.clock()
        self.self_ns[self._stack.pop()] += now - self._last
        self._last = now

    # -- wrapping -----------------------------------------------------------

    def wrap_function(self, fn, layer: str, name: str, timed: bool = False):
        """A wrapper of ``fn`` that opens a ``layer`` span per call (per
        resume, for a generator function) and counts calls as ``name``."""
        enter, exit_, calls = self.enter, self.exit, self.calls
        inclusive = self.inclusive_ns
        clock = self.clock

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[name] += 1
                gen = fn(*args, **kwargs)
                send_value = None
                error = None
                while True:
                    t0 = clock() if timed else 0
                    enter(layer)
                    try:
                        if error is None:
                            item = gen.send(send_value)
                        else:
                            item = gen.throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        exit_()
                        if timed:
                            inclusive[name] += clock() - t0
                    error = None
                    send_value = None
                    try:
                        send_value = yield item
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # forwarded into gen
                        error = exc
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            t0 = clock() if timed else 0
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
                if timed:
                    inclusive[name] += clock() - t0
        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_class(self, cls, layer: str, timed=()) -> None:
        """Wrap the plain methods ``cls`` defines."""
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") or not inspect.isfunction(value):
                continue
            name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
            self._patch(cls, attr, self.wrap_function(
                value, layer, name, timed=name in timed))

    def install(self, timed=()) -> None:
        """Wrap every class defined in :data:`MODULES`, the builders of
        :data:`BUILDER_MODULES` and :meth:`repro.sim.Environment.run`."""
        from repro.sim.engine import Environment

        for mod_name in MODULES:
            mod = importlib.import_module(mod_name)
            layer = layer_of(mod_name)
            for value in list(vars(mod).values()):
                if (inspect.isclass(value) and value.__module__ == mod_name
                        and not issubclass(value, (enum.Enum, BaseException))
                        and not getattr(value, "_is_protocol", False)):
                    self.wrap_class(value, layer, timed=timed)
        for mod_name in BUILDER_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod_name):
                    self._patch(mod, attr, self.wrap_function(
                        value, layer_of(mod_name), f"{mod_name}.{attr}",
                        timed=True))
        self._patch(Environment, "run", self.wrap_function(
            Environment.__dict__["run"], "sim", "repro.sim.engine.Environment.run"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self, timed=()):
        self.install(timed=timed)
        self.install_probes()
        try:
            yield self
        finally:
            self.uninstall()

    def install_probes(self) -> None:
        """Counters no span can give: grants of and simulated time spent
        waiting for :class:`~repro.sim.Resource` slots, and frames
        allocated."""
        from repro.mem.phys import PhysicalMemory
        from repro.sim.resources import PriorityResource, Resource

        queued_at: dict = {}
        resources = self.resources
        init = Resource.__dict__["__init__"]

        def probe_init(res, *args, **kwargs):
            init(res, *args, **kwargs)
            resources.append(res)

        def probe_request(orig):
            def request(res, *args, **kwargs):
                req = orig(res, *args, **kwargs)
                if not req.triggered:
                    queued_at[req] = res.env.now
                return req
            return request

        grant = Resource.__dict__["_grant"]

        def probe_grant(res, req):
            t = queued_at.pop(req, None)
            if t is not None:
                self.resource_wait_ns += res.env.now - t
            return grant(res, req)

        alloc = PhysicalMemory.__dict__["alloc"]
        alloc_contiguous = PhysicalMemory.__dict__["alloc_contiguous"]

        def probe_alloc(mem):
            self.frame_allocs += 1
            return alloc(mem)

        def probe_alloc_contiguous(mem, count):
            frames = alloc_contiguous(mem, count)
            self.frame_allocs += len(frames)
            return frames

        self._patch(Resource, "__init__", probe_init)
        for cls in (Resource, PriorityResource):
            self._patch(cls, "request", probe_request(cls.__dict__["request"]))
        self._patch(Resource, "_grant", probe_grant)
        self._patch(PhysicalMemory, "alloc", probe_alloc)
        self._patch(PhysicalMemory, "alloc_contiguous", probe_alloc_contiguous)

    # -- results ------------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def resource_grants(self) -> int:
        """Slots granted by every resource created while installed."""
        return sum(r.grant_count for r in self.resources)

    def count(self, *names: str) -> int:
        """Calls of the functions ``names`` (``module.Class.method``)."""
        return sum(self.calls.get(n, 0) for n in names)
