"""Every entry point solves the same job the same way.

A matrix cell, a batch job and ``repro check`` all run one program under
one strategy.  They share one configure-and-solve pipeline
(:func:`repro.batch.jobs.configure`), and these tests keep it that way:
a matrix cell's fingerprint is the batch job's, and a check report's
evaluations and diagnostics are the check job's.  Strategies are read
from the registry, so a new solve-ready strategy is covered as soon as it
is registered.
"""

from __future__ import annotations

import pytest

from repro.batch.jobs import JobSpec, execute_job
from repro.batch.matrix import run_matrix
from repro.bench.wcet import PROGRAMS
from repro.checkers import run_check
from repro.strategies import all_strategies, canonical_spec

STRATEGIES = [info.name for info in all_strategies() if info.solve_ready]
COMBINE = [
    info.name
    for info in all_strategies()
    if info.solve_ready and info.kind == "combine"
]
NAMES = ("bs", "fibcall", "janne_complex")


def batch_job(name: str, strategy: str, kind: str = "solve") -> JobSpec:
    return JobSpec(
        id=f"wcet/{name}/{strategy}",
        family="wcet",
        program=name,
        source=PROGRAMS[name].source,
        op=strategy,
        kind=kind,
    )


def test_the_phased_and_threshold_strategies_are_covered():
    assert {"threshold-widen", "wpoint", "twophase", "decoupled"} <= set(
        STRATEGIES
    )


@pytest.mark.parametrize("name", NAMES)
def test_matrix_cells_are_batch_jobs(name):
    doc = run_matrix(
        [("wcet", name, PROGRAMS[name].source)], STRATEGIES, revision="test"
    )
    cells = {cell["strategy"]: cell for cell in doc["cells"]}
    differing = {}
    for strategy in STRATEGIES:
        cell = cells[canonical_spec(strategy, widen_delay=1)]
        job = execute_job(batch_job(name, strategy))
        assert job.status == "ok", job.error
        mine = (cell["status"], cell["hash"], cell["evaluations"], cell["updates"])
        theirs = (job.status, job.hash, job.evaluations, job.updates)
        if mine != theirs:
            differing[strategy] = (mine, theirs)
    assert differing == {}


@pytest.mark.parametrize("strategy", COMBINE)
@pytest.mark.parametrize("name", NAMES)
def test_run_check_is_the_check_job(name, strategy):
    report = run_check(PROGRAMS[name].source, program=name, op=strategy)
    job = execute_job(batch_job(name, strategy, kind="check"))
    assert job.status in ("ok", "findings"), job.error
    assert report.evaluations == job.evaluations
    assert report.findings == job.findings
    assert tuple(d.to_json() for d in report.diagnostics) == job.diagnostics
