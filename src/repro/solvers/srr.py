"""The structured round-robin solver SRR (Fig. 3 of the paper).

``solve i`` recursively solves the unknowns ``x_1 ... x_{i-1}`` before
every update of ``x_i`` and restarts itself whenever ``x_i`` changes.
Theorem 1: for monotonic systems, SRR instantiated with the combined
operator terminates for every initial mapping -- and on lattices of bounded
height ``h`` it needs at most ``n + h/2 * n * (n + 1)`` evaluations.

The implementation below is an exact iterative rendition of the recursion
(the recursive ``solve i`` performs the same evaluation sequence as
"restart the sweep from x_1 after every change"), which keeps Python's
recursion limit out of the picture for large systems.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.eqs.system import FiniteSystem
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.stats import SolverResult


@register_solver(
    "srr",
    scope="global",
    memoizable=True,
    takes_order=True,
    aliases=("structured-round-robin",),
    paper_ref="Fig. 3",
    summary="structured round robin; terminating with warrow (Theorem 1)",
)
def solve_srr(
    system: FiniteSystem,
    op: Combine,
    order: Optional[Sequence] = None,
    max_evals: Optional[int] = None,
    *,
    observers=(),
    memoize: bool = False,
) -> SolverResult:
    """Solve ``system`` by structured round-robin iteration.

    :param system: a finite equation system.
    :param op: the binary update operator.
    :param order: the linear order ``x_1 ... x_n`` (default: declaration
        order).  The order affects efficiency, not correctness; inner-loop
        unknowns should receive small indices (cf. Bourdoncle).
    :param max_evals: evaluation budget guarding against divergence.
    :param observers: extra event-bus observers for this run.
    :param memoize: skip re-evaluations whose dependencies are unchanged.
    """
    eng = SolverEngine(
        system, op, max_evals=max_evals, observers=observers, memoize=memoize
    )
    op = eng.op  # the engine's per-run fresh instance
    xs = list(order) if order is not None else list(system.unknowns)
    sweep = eng.seed_finite(xs)

    # Invariant at position i (0-based): all x_j with j < i satisfy their
    # equation.  A change at position i invalidates nothing below it, but
    # the recursive formulation nevertheless re-solves 1..i-1 before the
    # next update of x_i; restarting the climb from position 0 performs
    # exactly that evaluation sequence.
    i = 0
    while i < len(sweep):
        r = sweep[i]
        if eng.commit(r, op(r.x, r.value, eng.eval_rhs(r, eng.value_of))):
            i = 0
        else:
            i += 1
    eng.finish(unknowns=len(xs))
    return SolverResult(eng.sigma.copy(), eng.stats)
