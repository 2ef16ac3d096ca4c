"""Calibration constants — the single source of truth for all cost models.

Every number here is either taken directly from the paper, derived from
one of its figures, or a standard figure for 2005-era hardware; the
provenance is documented next to each constant.  The reproduction's
*shape* claims (who wins, by what factor, where crossovers fall) come
from the interaction of these costs inside the simulated pipelines, not
from baking in the paper's result numbers.

Anchor points (paper section 5 unless noted):

========================  =========  =====================================
quantity                   value      provenance
========================  =========  =====================================
GM user 1-byte latency     6.7 us     section 5.1
MX user 1-byte latency     4.2 us     section 5.1
GM kernel latency penalty  +2 us      section 5.1 ("2 us higher")
NIC translation lookup     0.5 us     section 3.3 (per side, 10 % gain)
GM registration            3 us/page  section 2.2.2
GM deregistration base     200 us     section 2.2.2, figure 1(b)
PCI-XD link                250 MB/s   section 3.1
PCI-XE link                500 MB/s   section 5.3
syscall                    ~400 ns    section 5.3
MX medium window           128B-32kB  section 5.1
MX send-copy removal       +17%@32kB  section 5.1, figure 6 (calibrates
                                      the in-driver copy bandwidth)
========================  =========  =====================================

One-byte one-way latency decomposes in the NIC pipeline as::

    host_send + doorbell + fw_send + tx_translation + dma_setup
    + cut_through_lag + wire(size) + propagation
    + fw_recv + rx_translation + dma_setup + host_event

with the fabric-side constants summing to doorbell 300 + 2*dma_setup 200
+ lag 200 + propagation 500 = 1400 ns.  The per-API budgets below then
reproduce the paper's measured latencies exactly:

    MX  (user=kernel):  900+550+550+ 800 + 0    + 1400 = 4200 ns
    GM  user         : 1200+900+900+1300 + 1000 + 1400 = 6700 ns
    GM  kernel       : 2200+900+900+2300 + 1000 + 1400 = 8700 ns
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..units import GB, MB, us

# ---------------------------------------------------------------------------
# CPUs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CpuParams:
    """Host CPU cost model.

    Copies have two regimes: buffers up to ``copy_cache_threshold`` move
    at ``copy_bandwidth_cached`` (data stays in L2), larger copies
    stream from memory at ``copy_bandwidth_stream``.  The two-regime
    model is what lets figure 6's copy-removal gains be ~9 % for one
    page but ~17 % at 32 kB, as the paper measures.
    """

    name: str
    copy_bandwidth_cached: float  # bytes/s for small (cache-resident) copies
    copy_bandwidth_stream: float  # bytes/s for large streaming copies
    copy_cache_threshold: int  # bytes
    copy_setup_ns: int
    pin_page_ns: int  # get_user_pages per page (fault-in excluded)
    syscall_ns: int  # user<->kernel boundary crossing
    vfs_traversal_ns: int  # VFS layer cost per file-access syscall


# Figure 1(b): copying 256 kB costs ~250 us on the P3 (~1.0 GB/s) and
# ~100 us on the P4 (~2.6 GB/s).
HOST_P3_1200 = CpuParams(
    name="PentiumIII-1.2GHz",
    copy_bandwidth_cached=1.6 * GB,
    copy_bandwidth_stream=1.0 * GB,
    copy_cache_threshold=8 * 1024,
    copy_setup_ns=150,
    pin_page_ns=300,
    syscall_ns=700,
    vfs_traversal_ns=2500,
)

HOST_P4_2600 = CpuParams(
    name="Pentium4-2.6GHz",
    copy_bandwidth_cached=4.0 * GB,
    copy_bandwidth_stream=2.6 * GB,
    copy_cache_threshold=8 * 1024,
    copy_setup_ns=100,
    pin_page_ns=200,
    syscall_ns=450,
    vfs_traversal_ns=1800,
)

# The evaluation platform: 2.6 GHz dual Xeon, 2 GB RAM (section 3.1).
# In-driver copies are slower than a tight userspace memcpy (chunked
# bookkeeping, cache pollution); 1.05 GB/s streaming reproduces the
# ~17 % send-copy share of a 32 kB MX medium message (figure 6).
HOST_XEON_2600 = CpuParams(
    name="Xeon-2.6GHz",
    copy_bandwidth_cached=2.2 * GB,
    copy_bandwidth_stream=1.05 * GB,
    copy_cache_threshold=8 * 1024,
    copy_setup_ns=100,
    pin_page_ns=150,
    syscall_ns=400,  # section 5.3: "about 400 ns"
    vfs_traversal_ns=1500,
)


# ---------------------------------------------------------------------------
# Links and PCI
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkParams:
    """One Myrinet link generation + the PCI bus feeding it."""

    name: str
    link_bandwidth: float  # bytes/s, full duplex per direction
    pci_bandwidth: float  # bytes/s
    propagation_ns: int  # cable + switch crossing
    cut_through_lag_ns: int  # store-and-forward lag before wire starts


# PCI-XD: "This network can sustain 250 MB/s full-duplex" (section 3.1);
# the card sits on 64-bit/66 MHz PCI (528 MB/s peak), so PCI does not
# bottleneck the link.
PCI_XD = LinkParams(
    name="PCI-XD",
    link_bandwidth=250 * MB,
    pci_bandwidth=528 * MB,
    propagation_ns=500,
    cut_through_lag_ns=200,
)

# PCI-XE: "these cards can sustain 500 MB/s full-duplex by using two
# links" (section 5.3); PCI-X 133 feeds them at ~1067 MB/s peak.
PCI_XE = LinkParams(
    name="PCI-XE",
    link_bandwidth=500 * MB,
    pci_bandwidth=1067 * MB,
    propagation_ns=500,
    cut_through_lag_ns=200,
)


def trunk_params(base: LinkParams, propagation_ns: int) -> LinkParams:
    """A switch-to-switch trunk of the same link generation.

    Same serialization rate as the host links (Myrinet fabrics are
    homogeneous per generation), longer cable.  Inter-pod trunks use a
    multiple of the host propagation: physically they leave the rack.
    """
    from dataclasses import replace

    return replace(base, name=f"{base.name}-trunk", propagation_ns=propagation_ns)


# ---------------------------------------------------------------------------
# Fabric topologies (repro.cluster.topo) and the hybrid flow engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FabricParams:
    """Shape-independent knobs of a multi-switch fabric.

    ``routing`` selects the multi-path policy of every switch:
    ``"ecmp"`` (deterministic flow hashing — see
    :func:`repro.hw.wire.ecmp_hash`) or ``"adaptive"`` (least-queued
    egress among the equal-cost candidates, skipping down links; state-
    dependent, so the analytic flow engine declines those paths).

    ``egress_buffer_bytes`` bounds each output port's occupancy (queued
    plus in-service bytes).  ``None`` — the default — models the
    unbounded egress the single-switch star always had; a finite buffer
    makes the switch drop-tail excess packets and count them as
    ``switch.congestion_drops`` (backpressure is left to the NIC
    reliability layer, exactly like carrier-loss drops).

    ``intra_propagation_ns``/``inter_propagation_ns`` are the trunk
    cable lengths inside a pod/group and between pods/groups; the
    inter-pod cable leaves the rack, so it is the longer of the two.
    """

    routing: str = "ecmp"
    ecmp_seed: int = 1
    crossing_ns: int = 300
    egress_buffer_bytes: int | None = None
    intra_propagation_ns: int = 500
    inter_propagation_ns: int = 2000


DEFAULT_FABRIC = FabricParams()


@dataclass(frozen=True)
class FlowParams:
    """Calibration of the analytic flow fast path (:mod:`repro.hw.flow`).

    ``min_flow_frags``: below this many FRAG pacing packets the
    reservation bookkeeping costs more events than it saves and the
    packet-train path is already cheap; such messages never become
    flows.

    ``interloper_threshold_bytes``: non-flow bytes tolerated on a
    reserved link direction within one reservation epoch (between flow
    arrivals/departures on that direction) before the contention is
    considered observable and every flow on the direction de-coalesces.
    Below the threshold the model ignores the bandwidth the interloper
    took, so the threshold *is* the documented equivalence bound: a
    flow's completion may be early by at most the serialization time of
    these bytes per hop.  The default (16 MTUs) comfortably absorbs
    final packets and control traffic of neighbouring transfers without
    letting a competing bulk stream go unnoticed.
    """

    min_flow_frags: int = 8
    interloper_threshold_bytes: int = 64 * 1024


DEFAULT_FLOW = FlowParams()


# ---------------------------------------------------------------------------
# NIC / firmware
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NicParams:
    """LANai firmware processing costs and translation-table geometry."""

    link: LinkParams
    translation_lookup_ns: int = 500  # section 3.3: 0.5 us saved per side
    translation_table_entries: int = 4096  # bounded (section 2.2.2)
    translation_install_ns: int = 1000  # NIC share of the 3 us/page cost
    dma_setup_ns: int = 200
    doorbell_ns: int = 300  # host PIO write ringing the send queue
    ctrl_message_bytes: int = 32  # RTS/CTS rendezvous control size
    # Wire packet size: messages fragment to this on the wire so
    # switches forward packet-by-packet (wormhole-style pipelining).
    mtu_bytes: int = 4096


@dataclass(frozen=True)
class ApiCosts:
    """Host-side and firmware costs specific to one API in one context.

    These are what make GM != MX and user != kernel: the NIC hardware is
    identical, the software stacks are not (see the module docstring for
    the latency decomposition these budgets reproduce).

    ``blocking_wakeup_ns`` is the cost of being woken from a blocking
    wait, on top of ``host_event_ns`` (which is the polling-mode pickup
    measured by ping-pong benchmarks).  The paper attributes much of
    SOCKETS-GM's and ORFS/GM's overhead to GM's "limited completion
    notification mechanisms" versus MX letting callers "wait on a single
    or any pending request" (sections 5.2-5.3); that asymmetry lives
    here.
    """

    name: str
    host_send_ns: int  # library/driver work to post a send
    host_recv_post_ns: int  # work to post a receive buffer
    host_event_ns: int  # completion pickup by polling
    blocking_wakeup_ns: int  # extra cost when blocking-waiting
    fw_send_ns: int  # firmware work per outgoing message
    fw_recv_ns: int  # firmware work per incoming message
    uses_translation: bool  # NIC translates virtual addresses per side


GM_USER_COSTS = ApiCosts(
    name="gm-user",
    host_send_ns=1200,
    host_recv_post_ns=600,
    host_event_ns=1300,
    # gm_blocking_receive parks the caller and wakes it for *any* event;
    # the sleep/wake round costs ~3 us on a 2.4 kernel.  MX's targeted
    # per-request wakeup (mx_wait) is far cheaper.
    blocking_wakeup_ns=3000,
    fw_send_ns=900,
    fw_recv_ns=900,
    uses_translation=True,
)

GM_KERNEL_COSTS = ApiCosts(
    name="gm-kernel",
    host_send_ns=2200,  # +1 us: kernel entry points not optimized
    host_recv_post_ns=800,
    host_event_ns=2300,  # +1 us: event dispatch via callbacks
    # Delivering a completion to a *sleeping* in-kernel caller costs GM a
    # dispatch hop (wake the event handler, then the waiter): a full
    # context switch, ~4 us on the era's kernels.  ORFS and SOCKETS-GM
    # pay this on every message (sections 5.2-5.3); polling ping-pong
    # benchmarks do not.
    blocking_wakeup_ns=4000,
    fw_send_ns=900,
    fw_recv_ns=900,
    uses_translation=True,
)

# MX: "latency and bandwidth do not differ between user and kernel
# communications" (section 5.1) — one cost set serves both contexts.
MX_USER_COSTS = ApiCosts(
    name="mx-user",
    host_send_ns=900,
    host_recv_post_ns=500,
    host_event_ns=800,
    blocking_wakeup_ns=200,  # flexible wait-one/wait-any (section 5.2)
    fw_send_ns=550,
    fw_recv_ns=550,
    uses_translation=False,  # the NIC manipulates only physical addresses
)

MX_KERNEL_COSTS = ApiCosts(
    name="mx-kernel",
    host_send_ns=900,
    host_recv_post_ns=500,
    host_event_ns=800,
    blocking_wakeup_ns=200,
    fw_send_ns=550,
    fw_recv_ns=550,
    uses_translation=False,
)


# ---------------------------------------------------------------------------
# Firmware reliable delivery (GM's MCP guarantees; engaged by fault plans)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReliabilityParams:
    """GM-firmware-style reliable delivery: per-peer sequence numbers,
    cumulative acks, timeout-driven go-back-N retransmission with
    exponential backoff, duplicate suppression.

    The sublayer is *off by default* — the perfect-fabric figures stay
    byte-identical — and is enabled by :class:`repro.faults.FaultPlan`
    when the simulated fabric becomes lossy.  Timescales follow real
    firmware practice: the RTO sits two orders of magnitude above the
    one-way latency so retransmission never fires on an intact fabric.
    """

    rto_ns: int = us(150)  # base retransmission timeout (RTT is ~10-20 us)
    rto_max_ns: int = us(2400)  # exponential backoff cap
    max_retries: int = 12  # give-up budget per peer before declaring it dead
    ack_delay_ns: int = 2000  # delayed-ack coalescing window
    ack_fw_ns: int = 250  # firmware cost of emitting a standalone ack
    retransmit_fw_ns: int = 400  # firmware cost per retransmitted packet
    #: How long a dead-peer verdict stands before the next submit probes
    #: the peer again (a link that flapped long enough to burn the retry
    #: budget leaves both endpoints alive but mutually "dead"; probing
    #: after the TTL heals them).  0 — the default — keeps verdicts
    #: permanent: only an incarnation change lifts them.
    dead_peer_ttl_ns: int = 0


DEFAULT_RELIABILITY = ReliabilityParams()


# ---------------------------------------------------------------------------
# GM registration (section 2.2.2, figure 1(b))
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegistrationParams:
    """GM memory registration/deregistration cost model."""

    register_base_ns: int = us(5)
    register_per_page_ns: int = us(3)  # "3 us overhead per page registration"
    deregister_base_ns: int = us(200)  # "200 us base for deregistration"
    deregister_per_page_ns: int = 300


GM_REGISTRATION = RegistrationParams()


# ---------------------------------------------------------------------------
# MX message-class strategy (section 5.1)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MxStrategyParams:
    """Boundaries and costs of MX's small/medium/large message handling."""

    small_max: int = 128  # at or below: programmed I/O
    medium_max: int = 32 * 1024  # "from 128 bytes to 32 kB": bounce copies
    # Large messages go through an RTS/CTS rendezvous (real control
    # messages on the simulated wire) plus a one-time DMA-program setup.
    # "Large message processing in MX is still under strong development"
    # (section 5.1) is why this setup is generous.
    large_setup_ns: int = us(15)


MX_STRATEGY = MxStrategyParams()


# ---------------------------------------------------------------------------
# Host assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HostParams:
    """Everything describing one cluster node's hardware."""

    cpu: CpuParams = HOST_XEON_2600
    nic: NicParams = field(default_factory=lambda: NicParams(link=PCI_XD))
    cpu_cores: int = 2  # dual-Xeon nodes (section 3.1)
    memory_frames: int = 131072  # 512 MB of 4 kB frames: ample for tests


def host_params(
    link: LinkParams = PCI_XD,
    cpu: CpuParams = HOST_XEON_2600,
    memory_frames: int = 131072,
) -> HostParams:
    """Convenience constructor for a host on the given link generation."""
    return HostParams(cpu=cpu, nic=NicParams(link=link), memory_frames=memory_frames)
