"""Naive Kleene iteration: simultaneous (Jacobi-style) fixpoint computation.

Included as the textbook baseline.  All right-hand sides are evaluated
against the *previous* mapping and the whole mapping is replaced at once.
For monotone systems over finite-height lattices this converges to the
least solution; on domains with infinite ascending chains it need not
terminate -- precisely the problem widening solves.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.eqs.system import FiniteSystem
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.stats import SolverResult


@register_solver(
    "kleene",
    scope="global",
    takes_op=False,
    generic=False,
    takes_order=True,
    aliases=("jacobi",),
    paper_ref="textbook",
    summary="naive simultaneous (Jacobi) fixpoint iteration baseline",
)
def solve_kleene(
    system: FiniteSystem,
    order: Optional[Sequence] = None,
    max_evals: Optional[int] = None,
    *,
    observers=(),
) -> SolverResult:
    """Iterate ``sigma_{k+1}[x] = f_x(sigma_k)`` until a fixpoint is reached.

    :param system: a finite equation system.
    :param order: evaluation order (cosmetic for Jacobi iteration).
    :param max_evals: evaluation budget guarding against divergence.
    :param observers: extra event-bus observers for this run.
    """
    eng = SolverEngine(system, max_evals=max_evals, observers=observers)
    xs = list(order) if order is not None else list(system.unknowns)
    sweep = eng.seed_finite(xs)

    changed = True
    while changed:
        changed = False
        snapshot = eng.sigma.copy()

        def get(y):
            return snapshot[y]

        for r in sweep:
            if eng.commit(r, eng.eval_rhs(r, get)):
                changed = True
    eng.finish(unknowns=len(xs))
    return SolverResult(eng.sigma.copy(), eng.stats)
