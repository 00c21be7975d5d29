"""Golden regression for the side-effecting solvers SLR+, SLR2 and SLR3.

``goldens_side.json`` was captured by ``tools/capture_goldens.py side``
before the three solvers and their warm starts were merged into one
loop.  Every case -- cold or warm-started (``reset`` ``none`` and
``destabilized``), with contributions tracked or accumulated, with or
without a :class:`~repro.solvers.engine.RecordingObserver` -- must
reproduce its counters, solution fingerprint, snapshot bytes, widening
points, restarted points, contributor map, accumulated set and event
stream exactly.  Observed cases also pin the digests of the mid-run
snapshots a checkpointer takes every tenth evaluation
(``capture_engine``), re-recorded at 3c75b68 and reproduced by 71faa85.
The case definitions live in the capture tool, so the test and the tool
cannot drift apart.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_HERE = Path(__file__).parent
GOLDENS = json.loads((_HERE / "goldens_side.json").read_text())


def _load_tool():
    path = _HERE.parents[1] / "tools" / "capture_goldens.py"
    spec = importlib.util.spec_from_file_location("capture_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CASES = _load_tool().side_cases()


def test_cases_match_goldens():
    assert sorted(CASES) == sorted(GOLDENS)


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_side_case_matches_golden(key):
    assert CASES[key]() == GOLDENS[key]
