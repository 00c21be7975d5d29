"""The supervisor: watchdogs, salvage, escalation ladder, solver cascade.

:func:`supervised_solve` wraps one registered solver with the full
resilience stack and returns a
:class:`~repro.supervise.report.SupervisionReport`:

1. the primary attempt runs with a wall-clock deadline, an evaluation
   budget, an oscillation detector and (optionally) periodic
   checkpoints;
2. a watchdog or budget trip does not discard the run -- the structured
   :class:`~repro.solvers.stats.DivergenceError` carries the partial
   state, the flagged oscillating unknowns are *escalated* to
   bounded-narrowing (and, one rung further, everything to pure
   widening ⌴ → ▽), and the solver retries;
3. a *fault* (an exception out of a right-hand side) triggers a resume
   from the latest checkpoint via the incremental warm-start machinery,
   or a cold restart when no checkpoint exists;
4. when the primary solver is out of rungs, the cascade falls back
   through the caller's ``fallback`` solvers (e.g. SLR → SW → two-phase);
5. every produced solution is gated through the independent
   post-solution verifier before the supervisor reports success -- a
   degraded result that is not a post solution is rejected like a trip.

The ladder is sound at every rung: escalation only caps narrowing
(keeping ``sigma[x] >= f_x(sigma)``, the
:class:`~repro.solvers.combine.BoundedWarrowCombine` argument), warm
resumes destabilize exactly the work the interruption cut short, and the
final verification is computed against the *unwrapped* system, so not
even an injected chaos fault can smuggle an unsound value through.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Sequence, Set

from repro.eqs.side import SideEffectingSystem
from repro.incremental.analysis import (
    check_post_solution,
    check_post_solution_pure,
)
from repro.incremental.state import SolverState, resume_dirty
from repro.incremental.warmstart import warm_solve
from repro.solvers.combine import Combine, WarrowCombine
from repro.solvers.registry import SolverSpec, get_solver
from repro.solvers.stats import DivergenceError
from repro.supervise.chaos import (
    ChaosPolicy,
    ChaosSystem,
    check_engine_invariants,
)
from repro.supervise.checkpoint import Checkpointer
from repro.strategies.registry import build_combine, escalation_ladder
from repro.supervise.escalate import escalation_router, escalation_targets
from repro.supervise.report import Attempt, Degradation, SupervisionReport
from repro.supervise.watchdog import (
    DeadlineWatchdog,
    EngineProbe,
    OscillationWatchdog,
)

def _compatible(spec: SolverSpec, system, x0, side_effecting: bool) -> Optional[str]:
    """Why ``spec`` cannot run on this workload, or ``None`` if it can."""
    if side_effecting and not spec.side_effecting:
        return "system is side-effecting"
    if not side_effecting and spec.side_effecting:
        return "system is not side-effecting"
    if spec.scope == "local" and x0 is None:
        return "local solver needs an interesting unknown x0"
    if spec.scope == "global" and not hasattr(system, "unknowns"):
        return "global solver needs a finite system"
    return None


def _invoke(spec, system, op, x0, order, max_evals, observers, extra):
    args = [system]
    if spec.takes_op:
        args.append(op)
    if spec.scope == "local":
        args.append(x0)
    kwargs = dict(max_evals=max_evals, observers=observers)
    if spec.takes_order and order is not None:
        kwargs["order"] = order
    kwargs.update(extra)
    return spec(*args, **kwargs)


def supervised_solve(
    system,
    op: Optional[Combine] = None,
    x0: Optional[Hashable] = None,
    *,
    solver: str = "slr",
    fallback: Iterable[str] = (),
    deadline: Optional[float] = None,
    max_evals: Optional[int] = 10_000_000,
    flag_after: int = 3,
    trip_after: Optional[int] = None,
    descent_cap: int = 1,
    escalate: bool = True,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
    fault_retries: int = 2,
    chaos: Optional[ChaosPolicy] = None,
    verify: bool = True,
    order: Optional[Sequence] = None,
    solver_args: Optional[dict] = None,
) -> SupervisionReport:
    """Solve ``system`` under full supervision; never lose work silently.

    :param system: the equation system (pure, finite, or side-effecting).
    :param op: base update operator for op-taking solvers (default: the
        paper's combined operator ⌴).
    :param x0: interesting unknown, required for local solvers.
    :param solver: registry name of the primary solver.
    :param fallback: solver cascade tried after the primary's escalation
        rungs are exhausted, in order.
    :param deadline: per-attempt wall-clock deadline in seconds.
    :param max_evals: per-attempt evaluation budget (the divergence
        guard; ``None`` disables it -- then set a deadline).
    :param flag_after: oscillation switches before an unknown is flagged.
    :param trip_after: oscillation switches that abort the attempt
        outright (``None``: leave aborting to budget/deadline).
    :param descent_cap: narrowing steps an escalated unknown may still
        take on the first escalation rung (the second rung is always
        pure widening).
    :param escalate: whether to use the escalation rungs at all (when
        ``False``, a trip falls straight through to the cascade).
    :param checkpoint_every: checkpoint interval in evaluations
        (``None``: no checkpoints).
    :param checkpoint_path: optional file for crash-safe persistence of
        each checkpoint.
    :param fault_retries: how many right-hand-side faults to absorb by
        resuming/restarting before falling through to the cascade.
    :param chaos: a :class:`ChaosPolicy` for deterministic fault
        injection (testing the stack itself).
    :param verify: gate every produced solution through the independent
        post-solution checker; unsound results are rejected like trips.
    :param order: linear unknown order for order-taking solvers.
    :param solver_args: extra keyword arguments for the solver call.
    """
    primary = get_solver(solver, supervisable=True)
    report = SupervisionReport(requested_solver=primary.name)
    side_effecting = isinstance(system, SideEffectingSystem)
    base_system = system
    if chaos is not None:
        system = ChaosSystem(system, chaos)
    lattice = base_system.lattice
    if op is None:
        op = WarrowCombine(lattice)
    extra = dict(solver_args or {})

    cascade = [primary.name]
    for name in fallback:
        spec = get_solver(name)
        if spec.name not in cascade:
            cascade.append(spec.name)

    state: Optional[SolverState] = None
    ladder = escalation_ladder(descent_cap)
    rungs = len(ladder) if escalate else 0
    max_attempts = len(cascade) * (1 + rungs) + fault_retries + 1

    rung = 0
    escalated: Set[Hashable] = set()
    esc: Optional[Combine] = None
    faults_left = fault_retries
    spec = primary
    cascade_pos = 0

    def advance_cascade() -> Optional[SolverSpec]:
        """The next compatible fallback solver, recording skips."""
        nonlocal cascade_pos, rung, escalated, esc, state, faults_left
        while cascade_pos + 1 < len(cascade):
            cascade_pos += 1
            candidate = get_solver(cascade[cascade_pos])
            why_not = _compatible(candidate, base_system, x0, side_effecting)
            if why_not is None:
                report.degradations.append(
                    Degradation(
                        "fallback",
                        f"cascading from {spec.name!r} to {candidate.name!r}",
                    )
                )
                # Fresh ladder for the new solver; its checkpoints are
                # not interchangeable with the previous solver's.
                rung = 0
                escalated = set()
                esc = None
                state = None
                return candidate
            report.degradations.append(
                Degradation(
                    "fallback",
                    f"skipping incompatible {candidate.name!r} ({why_not})",
                )
            )
        return None

    for _ in range(max_attempts):
        probe = EngineProbe()
        oscillation = OscillationWatchdog(
            flag_after=flag_after, trip_after=trip_after
        )
        observers = [probe, oscillation]
        if deadline is not None:
            observers.append(DeadlineWatchdog(deadline))
        checkpointer = None
        if checkpoint_every is not None and spec.supports_warm_start:
            checkpointer = Checkpointer(
                spec.name, every=checkpoint_every, path=checkpoint_path
            )
            observers.append(checkpointer)

        op_used = esc if (esc is not None and spec.takes_op) else op
        warm = (
            state is not None
            and spec.supports_warm_start
            and state.solver == spec.name
        )
        try:
            if warm:
                kwargs = dict(
                    max_evals=max_evals, observers=observers, **extra
                )
                if spec.name == "sw" and order is not None:
                    kwargs["order"] = order
                result = warm_solve(
                    system, op_used, state, resume_dirty(state), x0=x0, **kwargs
                )
            else:
                result = _invoke(
                    spec, system, op_used, x0, order, max_evals, observers, extra
                )
        except DivergenceError as err:
            evals = err.stats.evaluations if err.stats is not None else 0
            report.attempts.append(
                Attempt(
                    spec.name,
                    "trip",
                    repr(err),
                    evals,
                    warm=warm,
                    error_type=type(err).__name__,
                )
            )
            report.salvaged_sigma = dict(err.sigma)
            if checkpointer is not None:
                report.checkpoints_taken += checkpointer.taken
                report.checkpoints_written += checkpointer.written
                if checkpointer.latest is not None:
                    state = checkpointer.latest
            if spec.takes_op and rung < rungs:
                # Walk the strategy registry's escalation ladder: each
                # rung names the registered degraded strategy and the
                # scope of unknowns that switch to it.
                step = ladder[rung]
                rung += 1
                if step.scope == "targeted":
                    targets = escalation_targets(
                        oscillation.flagged, err, oscillation.update_counts
                    )
                    scope = f"{len(targets)} oscillating unknowns"
                    named = tuple(sorted(targets, key=repr))
                else:
                    targets = set(err.sigma)
                    scope, named = "every encountered unknown", ()
                escalated |= targets
                esc = escalation_router(
                    op, escalated, build_combine(step.spec, lattice)
                )
                report.degradations.append(
                    Degradation(
                        "escalate",
                        f"{step.label} for {scope} [{step.spec}]",
                        named,
                    )
                )
                report.escalated.update(escalated)
                continue
            spec_next = advance_cascade()
            if spec_next is None:
                report.fatal = repr(err)
                break
            spec = spec_next
            continue
        except Exception as err:
            engine = probe.engine
            evals = engine.stats.evaluations if engine is not None else 0
            report.attempts.append(
                Attempt(
                    spec.name,
                    "fault",
                    repr(err),
                    evals,
                    warm=warm,
                    error_type=type(err).__name__,
                )
            )
            if engine is not None:
                report.salvaged_sigma = dict(engine.sigma)
                report.consistency_problems.extend(
                    check_engine_invariants(engine)
                )
            if checkpointer is not None:
                report.checkpoints_taken += checkpointer.taken
                report.checkpoints_written += checkpointer.written
                if checkpointer.latest is not None:
                    state = checkpointer.latest
            if faults_left > 0:
                faults_left -= 1
                if state is not None and spec.supports_warm_start:
                    report.degradations.append(
                        Degradation(
                            "resume-checkpoint",
                            f"resuming {spec.name!r} from the checkpoint "
                            f"({len(state.stable)}/{len(state.dom)} unknowns "
                            f"already stable)",
                        )
                    )
                else:
                    report.degradations.append(
                        Degradation(
                            "restart", f"restarting {spec.name!r} cold"
                        )
                    )
                continue
            spec_next = advance_cascade()
            if spec_next is None:
                report.fatal = repr(err)
                break
            spec = spec_next
            continue

        # Success: account, verify, and either accept or keep degrading.
        if checkpointer is not None:
            report.checkpoints_taken += checkpointer.taken
            report.checkpoints_written += checkpointer.written
        if verify:
            if side_effecting:
                violations = check_post_solution(base_system, result.sigma)
            else:
                violations = check_post_solution_pure(
                    base_system, result.sigma
                )
            if violations:
                report.attempts.append(
                    Attempt(
                        spec.name,
                        "unsound",
                        f"{len(violations)} post-solution violations",
                        result.stats.evaluations,
                        warm=warm,
                    )
                )
                report.violations = violations
                report.salvaged_sigma = dict(result.sigma)
                spec_next = advance_cascade()
                if spec_next is None:
                    report.fatal = (
                        f"result failed verification with "
                        f"{len(violations)} violations"
                    )
                    break
                spec = spec_next
                continue
            report.verified = True
            report.violations = []
        report.attempts.append(
            Attempt(spec.name, "ok", "", result.stats.evaluations, warm=warm)
        )
        report.ok = True
        report.solver = spec.name
        report.result = result
        break
    else:
        if report.fatal is None:
            report.fatal = "attempt limit reached"

    if chaos is not None:
        report.faults = list(system.log)
    return report
