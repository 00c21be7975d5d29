"""Request execution for the analysis service: cold and warm paths.

A cache miss becomes real solver work here, in the batch layer's
:class:`~repro.batch.jobs.JobSpec` shape and under the supervision
stack:

* the **cold path** runs :func:`repro.supervise.supervised_solve` --
  per-request deadline watchdog, oscillation detection, the escalation
  ladder (bounded narrowing -> pure widening) and the independent
  post-solution verifier -- and additionally captures the terminated
  solver's :class:`~repro.incremental.state.SolverState` so the cache
  entry can seed future warm starts;
* the **warm path** takes a donor entry (same analysis options, an
  earlier version of the program), diffs the two CFGs
  (:func:`repro.lang.diff.diff_cfg`), transfers the donor snapshot
  across the node matching and resumes the requested solver (SLR+, SLR2
  or SLR3) on exactly the destabilized region.  The resumed solution is
  re-verified independently; a warm result that fails verification -- or
  a diff too large to be worth it (:func:`should_warm`) -- falls back to
  the cold path, so warm starting is purely an optimization, never a
  soundness risk.

Both paths configure the request and build its result with the batch
layer's stages (:func:`~repro.batch.jobs.configure`,
:func:`~repro.batch.jobs.finish`), and check requests run as batch jobs.
Like :func:`repro.batch.jobs.execute_job`, :func:`execute_service_job`
**never raises**: every failure class maps onto the CLI exit-code
taxonomy inside a structured :class:`~repro.batch.jobs.JobResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.batch.jobs import (
    JobResult,
    JobSpec,
    build_domain,
    build_policy,
    configure,
    finish,
    input_errors,
    job_result,
    solution_fingerprint,
)
from repro.incremental import (
    SolverState,
    capture,
    check_post_solution,
    transfer_state,
)
from repro.incremental.warmstart import warm_solve_slr_side
from repro.lang import compile_program
from repro.lang.diff import CfgDiff, diff_cfg
from repro.solvers.stats import DivergenceError
from repro.strategies import build_combine
from repro.supervise import supervised_solve
from repro.supervise.watchdog import DeadlineWatchdog

#: Names the benchmark tracer (perfbench/tracing.py, ``PATCHES``) wraps in
#: this module.  :func:`~repro.batch.jobs.configure` and
#: :func:`~repro.batch.jobs.finish` call them, not this module, but the
#: tracer's ``install()`` fails unless they stay attributes here.
_TRACED = (build_domain, build_policy, build_combine, solution_fingerprint)

#: Watchdog exception class names mapped onto failure-kind labels the
#: request log records (see :attr:`ServiceExecution.failure_kind`).
_FAILURE_KINDS = {
    "DeadlineExceeded": "deadline",
    "BudgetExceeded": "budget",
    "OscillationDetected": "oscillation",
}


def _classify_failure(report) -> Optional[str]:
    """The failure kind of a failed supervised run, from its attempts.

    The *first* classified trip names the cause: later attempts are the
    escalation ladder re-tripping on the same underlying problem (a
    lapsed deadline trips every subsequent rung immediately).
    """
    for attempt in report.attempts:
        kind = _FAILURE_KINDS.get(attempt.error_type)
        if kind is not None:
            return kind
    return None


#: Warm-start a near miss only when at most this fraction of the new
#: program's nodes have changed equations -- beyond it, the transitive
#: destabilization closure tends to cover most of the system and a cold
#: solve is simpler and no slower.
DEFAULT_WARM_RATIO = 0.5


@dataclass
class ServiceExecution:
    """What one executed request produced, beyond the result itself."""

    #: The structured outcome (never ``None``; never raises).
    result: JobResult
    #: Serialized solver snapshot for the cache entry (``None`` when the
    #: run failed or the producing solver cannot warm-start).
    state: Optional[str] = None
    #: ``"cold"`` or ``"warm"`` -- which path produced the result.
    mode: str = "cold"
    #: Content key of the donor entry a warm run resumed from.
    warm_donor: Optional[str] = None
    #: Dirty equation count of the warm diff (0 for cold runs).
    dirty_nodes: int = 0
    #: Whether the independent post-solution verifier passed.
    verified: bool = False
    #: Classified failure cause for non-ok results (``"deadline"``,
    #: ``"budget"``, ``"oscillation"``, ``None`` otherwise), so the
    #: daemon's request log can name *why* a request failed.
    failure_kind: Optional[str] = None


def should_warm(
    diff: CfgDiff, new_cfg, *, max_dirty_ratio: float = DEFAULT_WARM_RATIO
) -> bool:
    """Whether a donor diff is small enough to warm-start from.

    Requires at least one matched node (otherwise nothing transfers)
    and a dirty-node fraction at most ``max_dirty_ratio`` of the new
    program's points.
    """
    if not diff.node_map:
        return False
    total = sum(len(fn.nodes) for fn in new_cfg.functions.values())
    if total == 0:
        return False
    return len(diff.dirty_nodes) / total <= max_dirty_ratio


def _configure(job: JobSpec):
    """The request's setup; a service solve is one supervised pass."""
    setup = configure(job)
    setup.single_pass("as a service request")
    return setup


def _capture_state(setup, solver_result) -> Optional[str]:
    """The serialized resume snapshot, when the solver supports it."""
    if not setup.solver.supports_warm_start:
        return None
    return capture(solver_result, setup.solver.name).dumps(setup.analysis.lattice)


# --------------------------------------------------------------------- #
# Cold path: supervised solve + snapshot capture.                       #
# --------------------------------------------------------------------- #

def _execute_cold(job: JobSpec, started: float) -> ServiceExecution:
    try:
        setup = _configure(job)
    except input_errors() as err:
        return ServiceExecution(
            result=job_result(job, started, "input-error", error=err)
        )

    analysis = setup.analysis
    report = supervised_solve(
        analysis.system(),
        setup.op,
        analysis.root(),
        solver=job.solver,
        deadline=job.deadline,
        max_evals=job.max_evals,
        verify=True,
    )
    if not report.ok:
        last = report.attempts[-1].outcome if report.attempts else "trip"
        status = (
            "fault"
            if last == "fault" or report.consistency_problems
            else "divergence"
        )
        err = DivergenceError(report.fatal or "supervised solve failed")
        failure = job_result(
            job, started, status, error=err, evaluations=report.total_evaluations
        )
        return ServiceExecution(
            result=failure, failure_kind=_classify_failure(report)
        )

    result = finish(setup, report.result, started)
    # The cascade may have degraded to a different solver; only capture
    # a snapshot the *requested* solver's warm start can consume.
    state = None
    if report.solver == setup.solver.name:
        state = _capture_state(setup, report.result)
    return ServiceExecution(
        result=result, state=state, mode="cold", verified=bool(report.verified)
    )


# --------------------------------------------------------------------- #
# Warm path: diff, transfer, resume, re-verify.                         #
# --------------------------------------------------------------------- #

def _execute_warm(
    job: JobSpec,
    donor_key: str,
    donor_source: str,
    donor_state: str,
    started: float,
    max_dirty_ratio: float,
) -> Optional[ServiceExecution]:
    """Try the warm path; ``None`` means "fall back to cold"."""
    try:
        setup = _configure(job)
        old_cfg = compile_program(donor_source)
    except input_errors():
        return None  # cold path re-raises for proper classification

    cfg, analysis = setup.cfg, setup.analysis
    diff = diff_cfg(old_cfg, cfg)
    if not should_warm(diff, cfg, max_dirty_ratio=max_dirty_ratio):
        return None
    try:
        state = SolverState.loads(donor_state, analysis.lattice)
    except Exception:
        return None  # corrupt or incompatible snapshot: solve cold
    if state.solver != setup.solver.name:
        return None

    transferred, dirty = transfer_state(state, diff, cfg)
    observers = []
    if job.deadline is not None:
        observers.append(DeadlineWatchdog(job.deadline))
    system = analysis.system()
    try:
        solver_result = warm_solve_slr_side(
            system,
            setup.op,
            analysis.root(),
            transferred,
            dirty,
            max_evals=job.max_evals,
            observers=observers,
        )
    except DivergenceError as err:
        return ServiceExecution(
            result=job_result(job, started, "divergence", error=err),
            mode="warm",
            warm_donor=donor_key,
            dirty_nodes=len(diff.dirty_nodes),
            failure_kind=_FAILURE_KINDS.get(type(err).__name__),
        )
    except Exception:
        return None  # any warm-path fault: retry cold

    if check_post_solution(system, solver_result.sigma):
        # A warm resume that is not a post solution must never be
        # served; re-solve cold (and let supervision verify that).
        return None
    return ServiceExecution(
        result=finish(setup, solver_result, started),
        state=_capture_state(setup, solver_result),
        mode="warm",
        warm_donor=donor_key,
        dirty_nodes=len(diff.dirty_nodes),
        verified=True,
    )


# --------------------------------------------------------------------- #
# Check path: the batch executor, verbatim.                             #
# --------------------------------------------------------------------- #

def _execute_check(job: JobSpec) -> ServiceExecution:
    """One ``kind="check"`` request; always the cold path.

    Checks delegate to :func:`repro.batch.jobs.execute_job` -- the same
    code path ``repro check`` and the farm run -- so the service can
    never report different diagnostics than the CLI for the same
    request.  There is no warm path: rules read *every* program point's
    abstract value, so a resumed solve saves nothing the rule pass does
    not immediately spend, and the deterministic result caches fine
    without a snapshot (``state=None`` keeps check entries out of the
    warm-donor pool).
    """
    from repro.batch.jobs import execute_job

    result = execute_job(job)
    return ServiceExecution(
        result=result,
        state=None,
        mode="cold",
        # Diagnostics documents are deterministic, so a completed check
        # (clean or with findings) is cacheable as-is; failures are not.
        verified=result.status in ("ok", "findings"),
    )


# --------------------------------------------------------------------- #
# Entry point.                                                          #
# --------------------------------------------------------------------- #

def execute_service_job(
    job: JobSpec,
    donors: Sequence[Tuple[str, str, str]] = (),
    *,
    max_dirty_ratio: float = DEFAULT_WARM_RATIO,
) -> ServiceExecution:
    """Execute one service request; never raises.

    :param job: the normalized request (see
        :func:`repro.service.protocol.solve_request_to_jobspec`).
    :param donors: warm-start candidates as ``(key, source, state)``
        triples, best first (the daemon passes the cache's
        :meth:`~repro.service.cache.ResultCache.warm_candidates`).  The
        first donor whose diff is small enough and whose resumed
        solution passes the independent verifier wins; otherwise the
        request is solved cold under full supervision.
    """
    started = time.perf_counter()
    if job.kind == "check":
        return _execute_check(job)
    for key, source, state in donors:
        execution = _execute_warm(
            job, key, source, state, started, max_dirty_ratio
        )
        if execution is not None:
            return execution
    return _execute_cold(job, started)
