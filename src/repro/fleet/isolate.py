"""Per-run isolation of process-global simulator state.

A deterministic run is hermetic inside its :class:`~repro.sim.Environment`
(ids included: every request, connection, context, rendezvous and train
id comes from :meth:`~repro.sim.Environment.next_id`) except for a few
process-global settings and accumulators: the host-copy accounting
hook, the ambient obs registry/timeline and the fidelity mode switches.
Left alone they would make an Nth in-process run differ from the same
run in a fresh process, which breaks the fleet contract that sequential
in-process sweeps and forked parallel sweeps produce byte-identical
results.

:func:`isolated_run` scrubs them for the duration of a block:

* uninstalls any ambient obs registry/timeline (installing a fresh
  registry for the block when ``observe=True``);
* zeroes ``HOST_COPIES`` for the block, then *adds back* the outer
  totals on exit (an enclosing perf bench keeps reading cumulative
  numbers, exactly as :mod:`repro.nbd.chaos` always did);
* saves and restores the packet-train / flow fidelity switches.

The fleet runner and the NBD chaos harness (:mod:`repro.nbd.chaos`)
delegate their scrub here, so there is exactly one definition of
"clean slate".
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Optional

from .. import obs
from ..mem.sglist import HOST_COPIES


@contextmanager
def isolated_run(observe: bool = True,
                 registry: Optional[obs.MetricsRegistry] = None):
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
