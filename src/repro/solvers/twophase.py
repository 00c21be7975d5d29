"""The classic two-phase widening/narrowing baseline (Cousot & Cousot).

Phase 1 runs an accelerated ascending iteration with ``op = widen`` until a
post solution is reached; phase 2 then tries to improve it by a descending
iteration with ``op = narrow``.  This is the approach the paper's combined
operator is measured against (Fig. 7).

Two well-known caveats, both of which the paper's Sections 1 and 3
emphasise, are surfaced by this implementation:

* the narrowing phase is only guaranteed to produce a (still sound)
  decreasing sequence when all right-hand sides are *monotonic*; for
  non-monotonic systems intermediate evaluations may grow again, in which
  case we clip against the phase-1 value (the standard engineering fix) --
  and record that the assumption was violated in the result statistics;
* precision lost in phase 1 may be unrecoverable no matter how long
  phase 2 runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.eqs.system import FiniteSystem
from repro.solvers.combine import NarrowCombine, WidenCombine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.stats import SolverResult
from repro.solvers.sw import sw_iterate


@dataclass
class TwoPhaseResult(SolverResult):
    """Result of two-phase solving, with phase-specific accounting."""

    widen_evaluations: int = 0
    narrow_evaluations: int = 0
    #: Whether some narrowing-phase evaluation produced a value that was
    #: not below the current one (a monotonicity violation).
    monotonicity_violated: bool = False


@register_solver(
    "twophase",
    scope="global",
    takes_op=False,
    generic=False,
    takes_order=True,
    aliases=("two-phase", "wn"),
    paper_ref="Fig. 7 baseline",
    summary="widening phase then narrowing phase (Cousot & Cousot)",
)
def solve_twophase(
    system: FiniteSystem,
    order: Optional[Sequence] = None,
    max_evals: Optional[int] = None,
    narrow_rounds: Optional[int] = None,
    *,
    observers=(),
) -> TwoPhaseResult:
    """Solve by a widening phase followed by a separate narrowing phase.

    Both phases use structured worklist iteration (so that the comparison
    against the combined operator in the benchmarks isolates the effect of
    the *operator*, not of the iteration strategy).

    :param system: a finite equation system.
    :param order: linear order for the priority queues.
    :param max_evals: total evaluation budget across both phases.
    :param narrow_rounds: optional bound on narrowing sweeps (descending
        iterations always stabilise for proper narrowing operators, but a
        bound is customary in production analyzers).
    """
    xs = list(order) if order is not None else list(system.unknowns)
    key = {x: i for i, x in enumerate(xs)}
    eng = SolverEngine(system, max_evals=max_evals, observers=observers)
    eng.seed_finite(system.unknowns)
    records = eng.records
    lat = eng.lattice

    # ---------------- Phase 1: ascending iteration with widening. -------- #
    queue = eng.make_queue(key.__getitem__)
    for x in xs:
        queue.add(x)
    sw_iterate(eng, WidenCombine(lat), queue, system.infl())
    widen_evals = eng.stats.evaluations

    # ---------------- Phase 2: descending iteration with narrowing. ------ #
    narrow_op = NarrowCombine(lat)
    violated = False
    rounds = 0
    changed = True
    while changed and (narrow_rounds is None or rounds < narrow_rounds):
        changed = False
        rounds += 1
        for x in xs:
            r = records[x]
            contribution = eng.eval_rhs(r, eng.value_of)
            if not lat.leq(contribution, r.value):
                violated = True
            if eng.commit(r, narrow_op(x, r.value, contribution)):
                changed = True

    stats = eng.finish(unknowns=len(records))
    return TwoPhaseResult(
        sigma=eng.sigma.copy(),
        stats=stats,
        widen_evaluations=widen_evals,
        narrow_evaluations=stats.evaluations - widen_evals,
        monotonicity_violated=violated,
    )
