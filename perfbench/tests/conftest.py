"""Put the program's sources and the benchmark package on the path.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for p in (str(ROOT), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so a whole run takes a second or two."""
    from perfbench import fabric, orfa_openloop, orfs_read
    from repro.units import KiB

    monkeypatch.setattr(orfs_read, "FILE_BYTES", 256 * KiB)
    monkeypatch.setattr(orfa_openloop, "NOMINAL_OPS", 60)
    monkeypatch.setattr(orfa_openloop, "OVERLOAD_OPS", 40)
    monkeypatch.setattr(fabric, "K", 4)


@pytest.fixture
def k4_reference(small, monkeypatch, tmp_path):
    """A freshly made packet reference for the k=4, one-pod shift."""
    from perfbench import fabric, make_reference

    monkeypatch.setattr(fabric, "REFERENCE_DIR", tmp_path)
    monkeypatch.setattr(fabric, "MANIFEST", tmp_path / "MANIFEST.json")
    name, digest = make_reference.make(1)
    make_reference.write_manifest({name: digest})
    return tmp_path / name
