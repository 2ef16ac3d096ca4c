"""repro.fleet — declarative experiment sweeps over isolated runs.

Two halves:

* :mod:`repro.fleet.isolate` — the per-run global-state scrub (host-copy
  accounting, obs registry/timeline, fidelity switches) that makes
  back-to-back in-process runs byte-identical to fresh-process runs
  (ids need no scrub: each :class:`~repro.sim.Environment` numbers its
  own).  The NBD chaos harness uses the same discipline.
* :mod:`repro.fleet.spec` / :mod:`repro.fleet.runner` — an experiment
  spec declaring a grid over {topology, fidelity mode, workload + API,
  arrival process, offered load, fault plan}; the runner expands the
  grid, fans runs out over a process pool, and collects per-run obs
  snapshots into one tidy deterministic results table (JSON + CSV).
  Same spec + seed => byte-identical results files, sequential or
  parallel.

CLI: ``python -m repro.bench fleet --spec SPEC.json [--parallel N]
[--out PREFIX]``.

The package namespace is lazy (PEP 562): :mod:`repro.nbd.chaos`
imports :mod:`repro.fleet.isolate` for the scrub, and must not drag the
whole sweep runner (and its workload imports) in behind it.
"""

from .isolate import isolated_run

_LAZY = {
    "FleetSpec": "spec",
    "FleetSpecError": "spec",
    "RunPoint": "spec",
    "FLEET_SCHEMA": "runner",
    "FleetResult": "runner",
    "render_csv": "runner",
    "render_json": "runner",
    "run_fleet": "runner",
    "run_point": "runner",
}

__all__ = ["isolated_run", *sorted(_LAZY)]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)
