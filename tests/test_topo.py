"""Fabric topology layer: fat-tree/dragonfly construction, ECMP
determinism and adaptive routing under faults."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.node import star
from repro.cluster.topo import dragonfly, fat_tree
from repro.faults import FaultPlan
from repro.hw.params import FabricParams, host_params
from repro.sim import Environment

SMALL_HOST = host_params(memory_frames=2048)


# -- construction -----------------------------------------------------------


def test_fat_tree_shape():
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST)
    assert len(f.nodes) == 16  # k^3/4
    # (k/2)^2 cores + k pods x (k/2 edge + k/2 agg)
    assert len(f.switches) == 4 + 4 * 4
    # hosts 0..3 live in pod 0 (two per edge switch)
    assert f.locator[0] == f.locator[1] == "ft.p0e0"
    assert f.locator[2] == f.locator[3] == "ft.p0e1"


def test_fat_tree_rejects_odd_k():
    with pytest.raises(ValueError):
        fat_tree(Environment(), 3)


def test_fat_tree_cross_pod_path_shape():
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST)
    # Cross-pod: host uplink + edge + agg + core + agg + edge = 6 links,
    # 5 switch-egress hops; terminal hop is the destination's uplink.
    path = f.path(0, 4)
    assert path is not None and len(path) == 6
    assert path[0][2] is None  # source uplink has no forwarding switch
    assert all(sw is not None for _l, _e, sw in path[1:])
    # Same-edge: uplink + one edge egress.
    assert len(f.path(0, 1)) == 2


def test_dragonfly_paths():
    env = Environment()
    f = dragonfly(env, groups=3, routers=2, hosts=2, host=SMALL_HOST)
    assert len(f.nodes) == 12
    # Minimal routing: local, global, local => at most 3 switch hops
    # (4 links) beyond the source uplink.
    for src, dst in [(0, 5), (0, 11), (3, 8), (1, 2)]:
        path = f.path(src, dst)
        assert path is not None and len(path) <= 5


# -- ECMP determinism -------------------------------------------------------


@settings(max_examples=20, deadline=None, database=None)
@given(src=st.integers(0, 15), dst=st.integers(0, 15),
       src_port=st.integers(0, 7), dst_port=st.integers(0, 7),
       seed=st.integers(1, 4))
def test_ecmp_path_deterministic(src, dst, src_port, dst_port, seed):
    """The frozen path for one (src, dst, ports, seed) tuple is a pure
    function: identical on re-query and across independently built
    fabrics — every FRAG and the final packet of a transfer take it."""
    if src == dst:
        return
    fab = FabricParams(ecmp_seed=seed)
    f1 = fat_tree(Environment(), 4, host=SMALL_HOST, fabric=fab)
    f2 = fat_tree(Environment(), 4, host=SMALL_HOST, fabric=fab)
    p1 = f1.path(src, dst, src_port=src_port, dst_port=dst_port)
    p1_again = f1.path(src, dst, src_port=src_port, dst_port=dst_port)
    p2 = f2.path(src, dst, src_port=src_port, dst_port=dst_port)
    names1 = [link.name for link, _e, _s in p1]
    assert names1 == [link.name for link, _e, _s in p1_again]
    assert names1 == [link.name for link, _e, _s in p2]
    assert p1[-1][0] is f1.switches[f1.locator[dst]]._links[dst]


def test_ecmp_spreads_over_cores():
    """Per-switch seed mixing must avoid polarization: the cross-pod
    flows of pod 0 should use more than one core switch."""
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST)
    cores = set()
    for src in range(4):
        for dst in range(4, 16):
            for sp in (1, 2):
                path = f.path(src, dst, src_port=sp, dst_port=2)
                for _link, _end, sw in path:
                    if sw is not None and sw.name.startswith("ft.core"):
                        cores.add(sw.name)
    assert len(cores) > 1


# -- adaptive routing under faults ------------------------------------------


def test_adaptive_never_selects_down_link():
    """With a seeded FaultPlan holding one uplink down, the adaptive
    selector must route every flow over the surviving candidates for
    the whole window."""
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST,
                 fabric=FabricParams(routing="adaptive"))
    edge = f.switches["ft.p0e0"]
    trunks = [link for link in edge.trunk_links()]
    assert len(trunks) == 2  # k/2 aggregation uplinks
    down_name = trunks[0].name
    plan = FaultPlan(seed=11).link_down(down_name, 1_000, 2_000_000)
    plan.install(env, nodes=f.nodes, switches=list(f.switches.values()),
                 reliability=False)
    picks = []

    def probe():
        yield env.timeout(5_000)  # inside the down window
        for dst in range(4, 16):
            for sp in range(4):
                link, _end = edge._select_trunk(dst, 0, sp, 2)
                picks.append(link)

    env.process(probe())
    env.run()
    assert picks and all(not link.is_down for link in picks)
    assert any(link.name == down_name for link in trunks)  # sanity


def test_adaptive_paths_not_frozen():
    """Adaptive routing is queue-state dependent, so the flow engine
    must decline to freeze a multi-trunk path."""
    env = Environment()
    f = fat_tree(env, 4, host=SMALL_HOST,
                 fabric=FabricParams(routing="adaptive"))
    assert f.path(0, 4) is None
    assert len(f.path(0, 1)) == 2  # same-edge needs no trunk decision


# -- star name_prefix -------------------------------------------------------


def test_star_name_prefix_threads_through():
    env = Environment()
    nodes, switch = star(env, 3, name_prefix="rack0.n",
                         switch_name="rack0.sw")
    assert [n.name for n in nodes] == ["rack0.n0", "rack0.n1", "rack0.n2"]
    assert switch.name == "rack0.sw"
