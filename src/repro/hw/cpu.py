"""Host CPU model: a contended resource that charges for copies and work.

All host-side software costs (API overheads, memory copies, protocol
processing) occupy the CPU resource, so concurrent activities serialize
realistically and :meth:`Cpu.utilization` exposes how many cycles the
communication stack steals from the application — the paper's core
motivation for zero-copy ("These copies are CPU consuming while the user
parallel application needs the CPU for its computations", section 2.1).
"""

from __future__ import annotations

from typing import Any, Callable

from ..sim import Environment, Resource
from ..units import S
from .params import CpuParams


class Cpu:
    """One host CPU (the paper's nodes are dual-Xeon; capacity=2)."""

    def __init__(self, env: Environment, params: CpuParams, capacity: int = 2,
                 name: str = "cpu"):
        self.env = env
        self.params = params
        self.name = name
        self.resource = Resource(env, capacity=capacity, name=name)
        self.copied_bytes = 0
        # copy_time_ns memo: the parameters are frozen and copy sizes
        # repeat (pages, ring slots, fixed headers).
        self._copy_ns: dict[int, int] = {}

    def copy_time_ns(self, nbytes: int) -> int:
        """Pure cost of copying ``nbytes``, no queueing.

        Two-regime model: the first ``copy_cache_threshold`` bytes move
        at the cache-resident rate, the remainder at the streaming rate
        (see :class:`repro.hw.params.CpuParams`).
        """
        t = self._copy_ns.get(nbytes)
        if t is None:
            t = self._copy_ns[nbytes] = self._copy_cost(nbytes)
        return t

    def _copy_cost(self, nbytes: int) -> int:
        if nbytes < 0:
            raise ValueError(f"negative copy size {nbytes}")
        if nbytes == 0:
            return 0
        p = self.params
        cached = min(nbytes, p.copy_cache_threshold)
        streamed = nbytes - cached
        t = cached * S / p.copy_bandwidth_cached
        if streamed:
            t += streamed * S / p.copy_bandwidth_stream
        return p.copy_setup_ns + max(1, round(t))

    # The hold helpers below return ``Resource.acquire``'s generator
    # rather than wrapping it, so ``yield from cpu.work(n)`` resumes one
    # generator frame, not two.

    def copy(self, nbytes: int):
        """Generator: occupy the CPU for a copy of ``nbytes``.

        Usage: ``yield from cpu.copy(n)``.
        """
        t = self.copy_time_ns(nbytes)
        self.copied_bytes += nbytes
        return self.resource.acquire(t)

    def copy_then(self, nbytes: int, fn: Callable[..., Any], *args: Any) -> None:
        """Callback twin of :meth:`copy`: occupy the CPU for a copy of
        ``nbytes``, then call ``fn(*args)`` (see ``Resource.hold_then``)."""
        t = self.copy_time_ns(nbytes)
        self.copied_bytes += nbytes
        self.resource.hold_then(t, fn, *args)

    def work(self, duration_ns: int):
        """Generator: occupy the CPU for fixed-duration software work."""
        if duration_ns < 0:
            raise ValueError(f"negative work duration {duration_ns}")
        return self.resource.acquire(duration_ns)

    def pin_pages(self, npages: int):
        """Generator: charge get_user_pages-style pinning for npages."""
        return self.resource.acquire(self.params.pin_page_ns * npages)

    def syscall(self):
        """Generator: charge one user/kernel boundary crossing."""
        return self.resource.acquire(self.params.syscall_ns)

    def utilization(self) -> float:
        """Fraction of simulated time at least one core was busy."""
        return self.resource.utilization()
