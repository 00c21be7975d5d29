"""Benchmark smoke job: ``tools/profile_pass.py`` profiles solver threads.

Marked ``benchmark_smoke`` so CI runs it with the other smoke jobs::

    pytest -m benchmark_smoke
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

pytestmark = pytest.mark.benchmark_smoke

_TOOL = Path(__file__).resolve().parents[2] / "tools" / "profile_pass.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("profile_pass", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_profiles_the_three_smallest_jobs_with_their_solver_threads(capsys):
    tool = _load_tool()
    assert tool.main(["--smallest", "3", "--top", "5", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["jobs"] == 3
    assert report["evaluations"] > 0
    assert report["calls"] > report["evaluations"]
    assert len(report["top_functions"]) == 5
    # The solver loop runs only on the solver threads, so the profile
    # sees it only when those threads are profiled; every evaluation
    # happens inside one of its calls.
    stats, evaluations = tool.profile_jobs(tool.pass_jobs(3))
    solves = sum(
        entry[1]
        for (filename, _, name), entry in stats.stats.items()
        if filename.endswith("slr_side.py") and name == "solve"
    )
    assert solves >= evaluations == report["evaluations"]
