"""Regenerate the packet-fidelity completion tables of ``fabric_permutation``.

    python3 perfbench/make_reference.py

Runs every shift of :data:`perfbench.fabric.SHIFT_PODS` at packet
fidelity (coalescing off, no flows: every MTU packet is an event), writes
``reference/fabric_k16_shift<hosts>.json`` for each, and records their
sha256 and this command in ``reference/MANIFEST.json``, which the
benchmark checks before it uses a table.  A table takes about 25 s and
2M engine events.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import fabric  # noqa: E402

COMMAND = "python3 perfbench/make_reference.py"


def make(pods: int) -> tuple[str, str]:
    """Write the table of a ``pods``-pod shift; its name and sha256."""
    shift = fabric.shift_of(pods)
    t0 = time.perf_counter()
    res = fabric.one_pass(0, shift=shift, mode="packet")
    if res.sim["start_ns"] != 0 or res.bad:
        raise SystemExit(f"packet run of shift {shift} did not deliver")
    table = {
        "k": fabric.K,
        "shift": shift,
        "size": fabric.SIZE,
        "mode": "packet",
        "events": res.events,
        "done_ns": list(res.sim["done_ns"]),
    }
    name = fabric.reference_name(shift)
    raw = (json.dumps(table, separators=(",", ":")) + "\n").encode()
    (fabric.REFERENCE_DIR / name).write_bytes(raw)
    print(f"{name}: {res.events} events, {time.perf_counter() - t0:.1f} s",
          file=sys.stderr)
    return name, hashlib.sha256(raw).hexdigest()


def write_manifest(digests: dict) -> None:
    fabric.MANIFEST.write_text(json.dumps(
        {"command": COMMAND, "sha256": digests}, indent=1, sort_keys=True)
        + "\n")


def main() -> int:
    fabric.REFERENCE_DIR.mkdir(exist_ok=True)
    write_manifest(dict(make(pods) for pods in fabric.SHIFT_PODS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
