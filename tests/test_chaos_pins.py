"""Chaos traces pinned to committed digests.

A rerun of one commit always agrees with itself, so rerun diffs cannot
catch a change that moves a tie between two events at the same
simulated instant.  ``chaos_pins.json`` holds the sha256 of the rendered
trace and of the metrics snapshot of every :mod:`repro.nbd.chaos`
scenario at seeds 1-3; any change to event order on these paths shows
up here.

A change that is *meant* to move simulated events regenerates the file
(and says why in its description)::

    PYTHONPATH=src python tests/test_chaos_pins.py > tests/chaos_pins.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.nbd.chaos import SCENARIOS, run_scenario

PINS = Path(__file__).resolve().parent / "chaos_pins.json"
SEEDS = (1, 2, 3)


def digests(name: str, seed: int) -> dict:
    r = run_scenario(name, seed=seed)
    return {"trace": hashlib.sha256(r.trace.encode()).hexdigest(),
            "metrics": hashlib.sha256(r.metrics_json.encode()).hexdigest()}


def test_pins_cover_every_scenario_and_seed():
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(SCENARIOS)
    assert all(sorted(pins[name]) == [str(s) for s in SEEDS] for name in pins)


@pytest.mark.slow
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_chaos_trace_and_metrics_match_pins(name):
    pins = json.loads(PINS.read_text())[name]
    for seed in SEEDS:
        assert digests(name, seed) == pins[str(seed)], f"{name} seed {seed}"


if __name__ == "__main__":
    print(json.dumps({name: {str(s): digests(name, s) for s in SEEDS}
                      for name in SCENARIOS}, indent=2))
