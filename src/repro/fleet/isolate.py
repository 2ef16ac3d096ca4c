"""Per-run isolation of process-global simulator state.

A deterministic run is hermetic inside its :class:`~repro.sim.Environment`
except for a handful of process-global accumulators the simulator keeps
for convenience: the host-copy accounting hook, the ambient obs
registry/timeline, the fidelity mode switches, and the module/class
level id counters (request ids, connection ids, rendezvous ids, ...).
None of those ids change simulated *timing*, but they leak into traces
and make an Nth in-process run differ from the same run in a fresh
process — which breaks the fleet contract that sequential in-process
sweeps and forked parallel sweeps produce byte-identical results.

:func:`isolated_run` scrubs all of it for the duration of a block:

* uninstalls any ambient obs registry/timeline (installing a fresh
  registry for the block when ``observe=True``);
* zeroes ``HOST_COPIES`` for the block, then *adds back* the outer
  totals on exit (an enclosing perf bench keeps reading cumulative
  numbers, exactly as :mod:`repro.nbd.chaos` always did);
* saves and restores the packet-train / flow fidelity switches;
* re-seeds every known global id counter to its import-time start, so
  ids inside the block match a fresh process (``reset_counters=False``
  opts out for callers nested inside a live outer simulation).

The fleet runner and the NBD chaos harness (:mod:`repro.nbd.chaos`)
delegate their scrub here, so there is exactly one definition of
"clean slate".
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Optional

from .. import obs
from ..mem.sglist import HOST_COPIES

#: Every process-global id counter in the simulator, with its
#: import-time starting value: (module, attribute-or-class, attr, start).
#: Kept in one place so a new counter is a one-line addition.
_COUNTERS = (
    ("repro.gm.api", "GmPort", "_context_ids", 1000),
    ("repro.hw.nic", "Nic", "_rndv_ids", 1),
    ("repro.hw.train", None, "_train_ids", 1),
    ("repro.nbd.client", "ReplicatedNbdDevice", "_req_ids", 7_000_000),
    ("repro.nbd.device", "NbdDevice", "_request_ids", 2_000_000),
    ("repro.nbd.replica", None, "_req_ids", 5_000_000),
    ("repro.orfa.client", "OrfaClient", "_request_ids", 1),
    ("repro.orfs.client", "OrfsClient", "_request_ids", 1_000_000),
    ("repro.sockets.base", None, "_conn_ids", 0x5000),
)


def reset_id_counters() -> None:
    """Re-seed every global id counter to its fresh-process start."""
    import importlib

    for mod_name, cls_name, attr, start in _COUNTERS:
        mod = importlib.import_module(mod_name)
        owner = getattr(mod, cls_name) if cls_name else mod
        setattr(owner, attr, itertools.count(start))


@contextmanager
def isolated_run(observe: bool = True,
                 registry: Optional[obs.MetricsRegistry] = None,
                 reset_counters: bool = True):
    """Context manager: run one hermetic scenario, then restore.

    Yields the installed :class:`~repro.obs.MetricsRegistry` (a fresh
    one, or ``registry`` if given) when ``observe`` is true, else
    ``None``.  On exit the previously ambient registry/timeline, the
    fidelity switches, and the outer host-copy totals are restored.
    """
    from ..hw import flow as flowmod
    from ..hw import train as trainmod

    saved_registry = obs.uninstall_registry()
    saved_timeline = obs.uninstall_timeline()
    saved_flow = flowmod.flow_mode_enabled()
    saved_coalescing = trainmod.coalescing_enabled()
    copies_base = HOST_COPIES.snapshot()
    HOST_COPIES.reset()
    if reset_counters:
        reset_id_counters()
    installed = None
    if observe:
        installed = obs.install_registry(registry)
    try:
        yield installed
    finally:
        if installed is not None:
            obs.uninstall_registry()
        flowmod.set_flow_mode(saved_flow)
        trainmod.set_coalescing(saved_coalescing)
        HOST_COPIES.copies += copies_base["copies"]
        HOST_COPIES.nbytes += copies_base["nbytes"]
        if saved_registry is not None:
            obs.install_registry(saved_registry)
        if saved_timeline is not None:
            obs.install_timeline(saved_timeline)
