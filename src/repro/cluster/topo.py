"""Datacenter fabric topologies: k-ary fat-trees and dragonflies.

The paper's experiments are two-node, but the wire model underneath
(cut-through links, crossbar switches, packet pacing) composes into the
multi-stage fabrics its cluster-filesystem workloads would actually run
on.  This module builds them:

* :func:`fat_tree` — the k-ary Clos of Al-Fares et al.: ``k`` pods of
  ``k/2`` edge and ``k/2`` aggregation switches plus ``(k/2)²`` cores,
  ``k³/4`` hosts; every host pair has ``(k/2)²`` equal-cost paths
  through the core (``k=8`` → 128 hosts, ``k=16`` → 1024 hosts);
* :func:`dragonfly` — all-to-all-connected groups of routers with one
  global link per group pair, the low-diameter long-cable topology.

A :class:`Fabric` owns the shared node→switch locator, assigns each
switch a mixed per-switch ECMP seed (identical seeds on every stage
would polarize: all flows entering a pod would leave it through one
core), computes shortest-path routing tables by BFS over the switch
graph, and — the point of the exercise — installs one
:class:`repro.hw.flow.FlowNetwork` across the fabric so steady
transfers collapse into analytic flow reservations
(:mod:`repro.hw.flow`; ``set_flow_mode`` toggles the fidelity).
"""

from __future__ import annotations

import itertools
from typing import Optional

from ..errors import NetworkError
from ..hw.flow import FlowNetwork
from ..hw.link import Link
from ..hw.params import (DEFAULT_FABRIC, DEFAULT_FLOW, FabricParams,
                         FlowParams, HostParams, LinkParams, NicParams,
                         PCI_XD, trunk_params)
from ..hw.switch import Switch
from ..hw.wire import ecmp_hash
from ..sim import Environment
from .node import Node, star

#: Routing tables are a pure function of the abstract switch graph (the
#: adjacency, the host locator, and which switches need tables) — no
#: Environment state enters the BFS.  Fleet sweeps rebuild the same
#: fabric for every grid point that varies only load/fidelity/fault, so
#: the tables are memoized process-wide by structural signature.  The
#: cache can only change build *time*, never results: a hit hands back
#: the exact tuples a fresh BFS would compute (tests assert the bytes).
_ROUTE_CACHE: dict = {}
_ROUTE_CACHE_STATS = {"hits": 0, "misses": 0}


def route_cache_stats() -> dict:
    """Process-wide route-memo counters (for perf tests and the CLI)."""
    return dict(_ROUTE_CACHE_STATS)


def clear_route_cache() -> None:
    _ROUTE_CACHE.clear()
    _ROUTE_CACHE_STATS["hits"] = 0
    _ROUTE_CACHE_STATS["misses"] = 0


class Fabric:
    """A multi-switch topology under construction.

    Builders call :meth:`add_switch` / :meth:`add_hosts` /
    :meth:`add_trunk` in a fixed order, then :meth:`finalize`; node ids,
    ECMP seeds and port numbers follow from that order alone.
    """

    def __init__(self, env: Environment, link: LinkParams = PCI_XD,
                 host: Optional[HostParams] = None,
                 fabric: FabricParams = DEFAULT_FABRIC,
                 flow: Optional[FlowParams] = DEFAULT_FLOW,
                 name: str = "fab"):
        self.env = env
        self.link_params = link
        self.host_params = host or HostParams(nic=NicParams(link=link))
        self.params = fabric
        self.flow_params = flow
        self.name = name
        self.nodes: list[Node] = []
        self.switches: dict[str, Switch] = {}
        #: node id -> edge-switch name, shared by reference with every
        #: switch.
        self.locator: dict[int, str] = {}
        #: switch name -> group tag (pod number; cores use ``-1``).
        self.group_of: dict[str, int] = {}
        self._switch_names: list[str] = []  # creation order
        self._adj: dict[str, list[tuple[int, str]]] = {}  # name -> [(port, peer)]
        self._ports: dict[str, itertools.count] = {}
        self._peer_sw: dict[Link, tuple[str, str]] = {}
        self._next_id = 0
        self.flownet: Optional[FlowNetwork] = None
        self._finalized = False

    # -- construction ------------------------------------------------------

    def add_switch(self, sw_name: str, group: int = -1) -> Switch:
        """Declare and build a switch.

        The ECMP seed mixes the fabric seed with the creation index, so
        parallel stages hash independently (no polarization).
        """
        if sw_name in self._adj:
            raise NetworkError(f"switch {sw_name!r} declared twice")
        idx = len(self._switch_names)
        self._switch_names.append(sw_name)
        self._adj[sw_name] = []
        self._ports[sw_name] = itertools.count()
        self.group_of[sw_name] = group
        sw = Switch(
            self.env, self.link_params,
            crossing_ns=self.params.crossing_ns,
            name=sw_name,
            routing=self.params.routing,
            ecmp_seed=ecmp_hash(idx, 0, 0, 0, self.params.ecmp_seed),
            egress_buffer_bytes=self.params.egress_buffer_bytes,
        )
        self.switches[sw_name] = sw
        return sw

    def add_hosts(self, sw_name: str, n: int,
                  name_prefix: Optional[str] = None) -> list[int]:
        """Hang ``n`` hosts off a declared switch; returns their ids."""
        prefix = name_prefix if name_prefix is not None else f"{self.name}.h"
        first = self._next_id
        self._next_id += n
        ids = list(range(first, first + n))
        for node_id in ids:
            self.locator[node_id] = sw_name
        nodes, _sw = star(self.env, n, link=self.link_params,
                          host=self.host_params, name_prefix=prefix,
                          base_id=first, switch=self.switches[sw_name])
        self.nodes.extend(nodes)
        return ids

    def add_trunk(self, a: str, b: str,
                  propagation_ns: Optional[int] = None) -> None:
        """Cable two declared switches together.

        Propagation defaults by locality: switches sharing a group tag
        get ``intra_propagation_ns``, others the longer
        ``inter_propagation_ns``.
        """
        for sw_name in (a, b):
            if sw_name not in self._adj:
                raise NetworkError(f"trunk references unknown switch {sw_name!r}")
        if propagation_ns is None:
            same = (self.group_of[a] == self.group_of[b]
                    and self.group_of[a] >= 0)
            propagation_ns = (self.params.intra_propagation_ns if same
                              else self.params.inter_propagation_ns)
        pa = next(self._ports[a])
        pb = next(self._ports[b])
        tname = f"{self.name}.t.{a}:{pa}-{b}:{pb}"
        self._adj[a].append((pa, b))
        self._adj[b].append((pb, a))
        link = Link(self.env, trunk_params(self.link_params, propagation_ns),
                    name=tname)
        self.switches[a].attach_trunk(pa, link, "a")
        self.switches[b].attach_trunk(pb, link, "b")
        self._peer_sw[link] = (a, b)

    def finalize(self) -> None:
        """Compute routing tables, install them, and wire the analytic
        flow engine into every NIC."""
        if self._finalized:
            raise NetworkError(f"fabric {self.name!r} finalized twice")
        self._finalized = True
        routes = self._routes()
        for sw_name, sw in self.switches.items():
            # Each switch gets a private top-level dict so a cached
            # routes value can never be mutated through a switch.
            sw.set_topology(self.locator, dict(routes[sw_name]))
        if self.flow_params is not None:
            self.flownet = FlowNetwork(self.env, self.flow_params,
                                       path_fn=self._flow_path,
                                       name=self.name)
            for node in self.nodes:
                node.nic.flownet = self.flownet

    def _route_signature(self):
        """Structural identity of the routing problem: switch creation
        order, full adjacency and host placement."""
        return (
            tuple(self._switch_names),
            tuple((sw, tuple(self._adj[sw])) for sw in self._switch_names),
            tuple(sorted(self.locator.items())),
        )

    def _routes(self) -> dict[str, dict[str, tuple[int, ...]]]:
        """Shortest-path tables for every switch, memoized by
        :func:`_route_signature` across fabric builds in this process."""
        sig = self._route_signature()
        cached = _ROUTE_CACHE.get(sig)
        if cached is not None:
            _ROUTE_CACHE_STATS["hits"] += 1
            return cached
        _ROUTE_CACHE_STATS["misses"] += 1
        targets = sorted(set(self.locator.values()))
        routes: dict[str, dict[str, tuple[int, ...]]] = {
            s: {} for s in self.switches
        }
        for target in targets:
            dist = self._bfs(target)
            for sw_name in self.switches:
                if sw_name == target:
                    continue
                d = dist.get(sw_name)
                if d is None:
                    raise NetworkError(
                        f"switch {sw_name!r} cannot reach {target!r}")
                cands = tuple(sorted(
                    port for port, peer in self._adj[sw_name]
                    if dist.get(peer) == d - 1))
                if not cands:  # pragma: no cover - BFS guarantees one
                    raise NetworkError(
                        f"no shortest-path port from {sw_name!r} to {target!r}")
                routes[sw_name][target] = cands
        _ROUTE_CACHE[sig] = routes
        return routes

    def _bfs(self, target: str) -> dict[str, int]:
        dist = {target: 0}
        frontier = [target]
        while frontier:
            nxt = []
            for sw_name in frontier:
                d = dist[sw_name] + 1
                for _port, peer in self._adj[sw_name]:
                    if peer not in dist:
                        dist[peer] = d
                        nxt.append(peer)
            frontier = nxt
        return dist

    # -- flow-engine integration -------------------------------------------

    def _flow_path(self, src_nic: int, src_port: int, dst_nic: int,
                   dst_port: int):
        """Freeze the ECMP path a (src, dst) addressing tuple will take:
        ``[(link, from_end, switch-or-None), ...]`` from the source host
        uplink to the destination host port, or ``None`` when no stable
        path exists (adaptive routing, unknown destination)."""
        sw_name = self.locator.get(src_nic)
        if sw_name is None or dst_nic not in self.locator:
            return None
        sw = self.switches[sw_name]
        uplink = sw._links.get(src_nic)
        if uplink is None:
            return None
        hops = [(uplink, "b", None)]  # the NIC holds end "b" (star())
        for _ in range(len(self._switch_names)):
            nxt = sw.peek_route(src_nic, src_port, dst_nic, dst_port)
            if nxt is None:
                return None
            link, end = nxt
            hops.append((link, end, sw))
            if link is sw._links.get(dst_nic):
                return hops
            a, b = self._peer_sw.get(link, (None, None))
            peer = b if a == sw.name else a
            if peer is None:
                return None
            sw = self.switches[peer]
        return None  # pragma: no cover - routing loop

    def path(self, src_nic: int, dst_nic: int, src_port: int = 0,
             dst_port: int = 0):
        """Public probe of the frozen ECMP path (tests, debugging)."""
        return self._flow_path(src_nic, src_port, dst_nic, dst_port)


# -- builders --------------------------------------------------------------


def fat_tree(env: Environment, k: int, link: LinkParams = PCI_XD,
             host: Optional[HostParams] = None,
             fabric: FabricParams = DEFAULT_FABRIC,
             flow: Optional[FlowParams] = DEFAULT_FLOW,
             name: str = "ft") -> Fabric:
    """The k-ary fat-tree (Al-Fares et al.): ``k³/4`` hosts.

    ``k`` even: ``(k/2)²`` core switches, then per pod ``k/2``
    aggregation and ``k/2`` edge switches with ``k/2`` hosts per edge.
    Aggregation switch ``j`` of every pod uplinks to cores
    ``[j·k/2, (j+1)·k/2)``; every cross-pod host pair sees ``(k/2)²``
    equal-cost paths.  Host ids are dense from 0 in pod/edge order.
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat-tree arity must be even and >= 2, got {k}")
    half = k // 2
    f = Fabric(env, link=link, host=host, fabric=fabric, flow=flow,
               name=name)
    cores = [f"{name}.core{c}" for c in range(half * half)]
    for core in cores:
        f.add_switch(core, group=-1)
    for pod in range(k):
        edges = [f"{name}.p{pod}e{i}" for i in range(half)]
        aggs = [f"{name}.p{pod}a{j}" for j in range(half)]
        for sw_name in edges + aggs:
            f.add_switch(sw_name, group=pod)
        for edge in edges:
            f.add_hosts(edge, half)
        for edge in edges:
            for agg in aggs:
                f.add_trunk(edge, agg)
        for j, agg in enumerate(aggs):
            for c in range(j * half, (j + 1) * half):
                f.add_trunk(agg, cores[c])
    f.finalize()
    return f


def dragonfly(env: Environment, groups: int = 4, routers: int = 4,
              hosts: int = 2, link: LinkParams = PCI_XD,
              host: Optional[HostParams] = None,
              fabric: FabricParams = DEFAULT_FABRIC,
              flow: Optional[FlowParams] = DEFAULT_FLOW,
              name: str = "df") -> Fabric:
    """A dragonfly: ``groups`` all-to-all groups of ``routers`` routers
    (``hosts`` hosts each), one global link per group pair.

    Global link between groups ``a < b`` lands on router ``(b-1) mod R``
    in ``a`` and router ``a mod R`` in ``b`` (the palmtree layout), so
    global links spread evenly over routers.  Minimal routing emerges
    from BFS: local→global→local, at most three switch-to-switch hops.
    """
    if groups < 2 or routers < 1 or hosts < 1:
        raise ValueError(
            f"dragonfly needs >=2 groups, >=1 routers and hosts, got "
            f"{groups}/{routers}/{hosts}")
    f = Fabric(env, link=link, host=host, fabric=fabric, flow=flow,
               name=name)
    names = [[f"{name}.g{g}r{r}" for r in range(routers)]
             for g in range(groups)]
    for g in range(groups):
        for r in range(routers):
            f.add_switch(names[g][r], group=g)
        for r in range(routers):
            f.add_hosts(names[g][r], hosts)
        for r1 in range(routers):
            for r2 in range(r1 + 1, routers):
                f.add_trunk(names[g][r1], names[g][r2])
    for a in range(groups):
        for b in range(a + 1, groups):
            f.add_trunk(names[a][(b - 1) % routers], names[b][a % routers])
    f.finalize()
    return f
