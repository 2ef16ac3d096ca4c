"""Deterministic fault plans for the simulated fabric.

A :class:`FaultPlan` is a seeded description of everything that will go
wrong in a run: per-message drop/corrupt probabilities on links,
scheduled link down/up windows, NIC resets, node crashes.  The plan is
built declaratively, then :meth:`FaultPlan.install` arms it on a
topology — installing a :class:`LinkFaultInjector` on each link,
enabling the NIC reliable-delivery sublayer (unless opted out), and
scheduling the timed faults as ordinary simulation processes.

Determinism
-----------

Faults must not perturb the simulation except through the faults
themselves, and the same seed must reproduce the same run bit-for-bit:

* Every random decision comes from a private LCG stream derived from
  ``(seed, link name)`` — never from ``random`` or wall-clock.  Two
  links never share a stream, so adding traffic on one link cannot
  reshuffle the fault pattern on another.
* Injector decisions are made synchronously inside ``Link.transmit``
  (one ``filter()`` call per wire item, in wire order), so the draw
  sequence is fixed by the traffic, which is itself deterministic.
* Down windows are pure functions of simulated time; resets and crashes
  are scheduled at absolute simulated times.

Rendering the plan's trace (:func:`repro.sim.trace.render_trace`) after
two runs of the same seed therefore yields byte-identical text — the
fault suite asserts exactly this.

Interaction with packet-train coalescing
----------------------------------------

The analytic wire fast path (:mod:`repro.hw.train`) never runs where a
fault plan is armed: ``Link.train_block_reason`` answers ``"faults"``
for any link carrying an injector, so every fragment of a large message
is simulated per-packet there and presented to ``filter()`` one item at
a time, in wire order — exactly as before trains existed.  Drop and
corrupt draw sequences, down-window drops, and therefore rendered fault
traces are byte-identical to pre-train runs by construction, not by
sampling luck.  (FRAG pacing packets are individually exempt from
injection below — semantics ride the train's final per-packet item —
but refusing trains outright also keeps timed faults honest: a NIC
reset or link-down edge always finds per-packet wire holds it can
observe, never an opaque multi-packet analytic hold.)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .. import obs
from ..hw.link import Link
from ..hw.nic import MsgKind, Nic
from ..hw.params import DEFAULT_RELIABILITY, ReliabilityParams
from ..hw.switch import Switch
from ..sim import Environment
from ..sim.trace import Tracer


class _FaultRng:
    """Private LCG stream for one link's fault decisions (sim-safe:
    no global random state, no wall clock)."""

    def __init__(self, seed: int, stream: str):
        state = (seed * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
        for ch in stream:  # FNV-1a style mix of the stream name
            state = ((state ^ ord(ch)) * 16777619) & 0xFFFFFFFF
        self.state = state or 1

    def chance(self, prob: float) -> bool:
        """One draw: True with probability ``prob``."""
        self.state = (self.state * 1103515245 + 12345) & 0x7FFFFFFF
        return self.state < int(prob * 0x80000000)


@dataclass
class LinkFaultSpec:
    """What can go wrong on one link (or on every link, key ``"*"``)."""

    drop_prob: float = 0.0
    corrupt_prob: float = 0.0
    down_windows: list[tuple[int, int]] = field(default_factory=list)

    def merged(self, other: "LinkFaultSpec") -> "LinkFaultSpec":
        """Specific spec layered over a wildcard spec."""
        return LinkFaultSpec(
            drop_prob=self.drop_prob or other.drop_prob,
            corrupt_prob=self.corrupt_prob or other.corrupt_prob,
            down_windows=self.down_windows + other.down_windows,
        )

    @property
    def active(self) -> bool:
        return bool(self.drop_prob or self.corrupt_prob or self.down_windows)


class LinkFaultInjector:
    """Per-link fault filter, consulted once per transmitted item.

    Installed as ``link.faults``; :meth:`filter` may pass the item
    through, return None (drop), or return a corrupted copy.  FRAG
    packets are never touched: they only pace the wire — the payload
    and all message semantics ride the final packet, which *is* subject
    to faults.
    """

    def __init__(self, env: Environment, spec: LinkFaultSpec,
                 rng: _FaultRng, tracer: Optional[Tracer],
                 link_name: str = "link"):
        self.env = env
        self.spec = spec
        self.rng = rng
        self.tracer = tracer
        self.link_name = link_name
        # Injection accounting on the metrics registry (unregistered
        # per-instance counters while no registry is installed); the
        # classic attribute names below read through to them.
        self._m_dropped = obs.counter("faults.drops", link=link_name)
        self._m_corrupted = obs.counter("faults.corrupts", link=link_name)
        self._m_down_drops = obs.counter("faults.down_drops", link=link_name)

    @property
    def dropped(self) -> int:
        return self._m_dropped.value

    @property
    def corrupted(self) -> int:
        return self._m_corrupted.value

    @property
    def down_drops(self) -> int:
        return self._m_down_drops.value

    @property
    def down(self) -> bool:
        now = self.env.now
        return any(start <= now < end for start, end in self.spec.down_windows)

    def _emit(self, label: str, payload) -> None:
        if self.tracer is not None:
            self.tracer.emit(self.env.now, "fault", label, payload)

    def _wants(self) -> bool:
        """Cheap pre-check so the per-item hot path skips building
        payload dicts when nothing listens to fault traces."""
        return self.tracer is not None and self.tracer.wants("fault")

    def filter(self, link: Link, item, nbytes: int):
        kind = getattr(item, "kind", None)
        if kind is MsgKind.FRAG:
            return item  # pacing packet: semantics ride the final packet
        if self.down:
            self._m_down_drops.inc()
            if self._wants():
                self._emit("link_down_drop", {
                    "link": link.name,
                    "kind": kind.value if kind is not None else "?",
                })
            return None
        if self.spec.drop_prob and self.rng.chance(self.spec.drop_prob):
            self._m_dropped.inc()
            if self._wants():
                self._emit("drop", {
                    "link": link.name,
                    "kind": kind.value if kind is not None else "?",
                    "seq": getattr(item, "seq", 0),
                })
            return None
        if self.spec.corrupt_prob and self.rng.chance(self.spec.corrupt_prob):
            self._m_corrupted.inc()
            if self._wants():
                self._emit("corrupt", {
                    "link": link.name,
                    "kind": kind.value if kind is not None else "?",
                    "seq": getattr(item, "seq", 0),
                })
            # Deliver a poisoned *copy*: the sender's stored original
            # stays clean, so a retransmission carries good bits.
            return replace(item, corrupted=True)
        return item


class FaultPlan:
    """A seeded, declarative plan of injected faults.

    Build it with the chainable methods, then arm it::

        plan = (FaultPlan(seed=7)
                .drop("wire", 0.05)
                .link_down("wire", ms(2), ms(3))
                .nic_reset(1, ms(5)))
        plan.install(env, nodes=[a, b])

    ``install`` also enables GM-firmware-style reliable delivery on
    every NIC it is handed (pass ``reliability=False`` to study raw
    loss).  With no plan installed anywhere, the simulation is
    bit-identical to a fault-free run.
    """

    def __init__(self, seed: int = 1, tracer: Optional[Tracer] = None):
        self.seed = seed
        self.tracer = tracer if tracer is not None else Tracer()
        self._specs: dict[str, LinkFaultSpec] = {}
        self._resets: list[tuple[int, int]] = []  # (at_ns, node_id)
        self._crashes: list[tuple[int, int]] = []
        #: (link, first_down_ns, down_ns, up_ns, count) flap trains, kept
        #: for the one-shot trace announcement at install time.
        self._flaps: list[tuple[str, int, int, int, int]] = []
        self.injectors: dict[str, LinkFaultInjector] = {}
        self._installed = False

    # -- declarative builders (chainable) ------------------------------------

    def _spec(self, link_name: str) -> LinkFaultSpec:
        return self._specs.setdefault(link_name, LinkFaultSpec())

    def drop(self, link_name: str, prob: float) -> "FaultPlan":
        """Drop each non-FRAG item on ``link_name`` with probability
        ``prob``.  Use link name ``"*"`` for every installed link."""
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {prob}")
        self._spec(link_name).drop_prob = prob
        return self

    def corrupt(self, link_name: str, prob: float) -> "FaultPlan":
        """Corrupt (bit-error) each non-FRAG item with probability
        ``prob``; the receiving NIC's CRC check discards it."""
        if not 0.0 <= prob <= 1.0:
            raise ValueError(f"corrupt probability must be in [0, 1], got {prob}")
        self._spec(link_name).corrupt_prob = prob
        return self

    def link_down(self, link_name: str, start_ns: int, end_ns: int) -> "FaultPlan":
        """Take the link down for ``[start_ns, end_ns)`` of simulated time."""
        if end_ns <= start_ns:
            raise ValueError(f"empty down window [{start_ns}, {end_ns})")
        self._spec(link_name).down_windows.append((start_ns, end_ns))
        return self

    def link_flap(self, link_name: str, first_down_ns: int, down_ns: int,
                  up_ns: int, count: int) -> "FaultPlan":
        """Schedule a deterministic down/up *train*: ``count`` outages of
        ``down_ns`` each, separated by ``up_ns`` of restored carrier,
        the first starting at ``first_down_ns``.

        Unlike probabilistic drops this scripts an exact partition
        timeline, so failover tests can pin a flap against a protocol
        phase.  Each outage is an ordinary down window (rendered as
        ``fault.link_down``/``fault.link_up`` pairs in the trace); the
        train itself is announced once as ``fault.link_flap``.
        """
        if down_ns <= 0:
            raise ValueError(f"flap down time must be positive, got {down_ns}")
        if up_ns <= 0:
            raise ValueError(f"flap up time must be positive, got {up_ns}")
        if count < 1:
            raise ValueError(f"flap count must be >= 1, got {count}")
        if first_down_ns < 0:
            raise ValueError(f"flap start must be >= 0, got {first_down_ns}")
        start = first_down_ns
        for _ in range(count):
            self._spec(link_name).down_windows.append((start, start + down_ns))
            start += down_ns + up_ns
        self._flaps.append((link_name, first_down_ns, down_ns, up_ns, count))
        return self

    def nic_reset(self, node_id: int, at_ns: int) -> "FaultPlan":
        """Reset node ``node_id``'s NIC firmware at ``at_ns``."""
        self._resets.append((at_ns, node_id))
        return self

    def node_crash(self, node_id: int, at_ns: int) -> "FaultPlan":
        """Crash node ``node_id`` at ``at_ns``; its NIC goes dark."""
        self._crashes.append((at_ns, node_id))
        return self

    # -- arming --------------------------------------------------------------

    def install(
        self,
        env: Environment,
        nodes: Iterable = (),
        links: Iterable[Link] = (),
        nics: Iterable[Nic] = (),
        switches: Iterable[Switch] = (),
        reliability: bool = True,
        reliability_params: ReliabilityParams = DEFAULT_RELIABILITY,
    ) -> "FaultPlan":
        """Arm the plan on a topology.

        NICs are gathered from ``nodes`` and ``nics``; links from
        ``links``, the NICs' attached links, and the ``switches``'
        per-port links.  Injectors go on every gathered link whose name
        matches a spec (or the ``"*"`` wildcard); timed resets and
        crashes are scheduled as ordinary processes.
        """
        if self._installed:
            raise ValueError("fault plan already installed")
        self._installed = True
        all_nics: dict[int, Nic] = {}
        for node in nodes:
            all_nics[id(node.nic)] = node.nic
        for nic in nics:
            all_nics[id(nic)] = nic
        all_links: dict[int, Link] = {}
        for link in links:
            all_links[id(link)] = link
        for nic in all_nics.values():
            if nic._link is not None:
                all_links[id(nic._link)] = nic._link
        for switch in switches:
            switch.tracer = self.tracer
            for link in switch.all_links():  # host ports and trunks
                all_links[id(link)] = link
        for link_name, first_down, down, up, count in self._flaps:
            self.tracer.emit(0, "fault", "link_flap", {
                "link": link_name, "first_down_ns": first_down,
                "down_ns": down, "up_ns": up, "count": count,
            })
        wildcard = self._specs.get("*", LinkFaultSpec())
        for link in all_links.values():
            spec = self._specs.get(link.name, LinkFaultSpec()).merged(wildcard)
            if not spec.active:
                continue
            injector = LinkFaultInjector(
                env, spec, _FaultRng(self.seed, link.name), self.tracer,
                link_name=link.name,
            )
            link.faults = injector
            self.injectors[link.name] = injector
            for start, end in sorted(spec.down_windows):
                env.process(self._down_window(env, link, start, end),
                            name=f"fault.down.{link.name}")
        if reliability:
            for nic in all_nics.values():
                nic.enable_reliability(reliability_params, self.tracer)
        nic_by_id = {nic.node_id: nic for nic in all_nics.values()}
        for at_ns, node_id in sorted(self._resets):
            env.process(self._timed(env, at_ns, nic_by_id[node_id], "nic_reset"),
                        name=f"fault.reset.{node_id}")
        for at_ns, node_id in sorted(self._crashes):
            env.process(self._timed(env, at_ns, nic_by_id[node_id], "node_crash"),
                        name=f"fault.crash.{node_id}")
        return self

    def _down_window(self, env: Environment, link: Link, start: int, end: int):
        yield env.timeout(start)
        self.tracer.emit(env.now, "fault", "link_down", {"link": link.name})
        yield env.timeout(end - start)
        self.tracer.emit(env.now, "fault", "link_up", {"link": link.name})

    def _timed(self, env: Environment, at_ns: int, nic: Nic, what: str):
        yield env.timeout(at_ns)
        if what == "nic_reset":
            nic.reset()
        else:
            nic.crash()
        self.tracer.emit(env.now, "fault", what, {"node": nic.node_id})

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate injector counters for reports and tests."""
        return {
            "dropped": sum(i.dropped for i in self.injectors.values()),
            "corrupted": sum(i.corrupted for i in self.injectors.values()),
            "down_drops": sum(i.down_drops for i in self.injectors.values()),
        }
