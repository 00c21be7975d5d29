"""The generic round-robin solver RR (Fig. 1 of the paper).

Repeatedly sweeps over all unknowns in order, combining the old value with
the freshly evaluated right-hand side, until one full sweep changes
nothing.  RR treats right-hand sides as black boxes and is a *generic*
solver: upon termination the result is an ``op``-solution for any binary
update operator ``op``.

The paper's Example 1 shows that RR instantiated with the combined operator
may diverge even for finite monotonic systems; pass ``max_evals`` to bound
the run and observe the divergence as a :class:`DivergenceError`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.eqs.system import FiniteSystem
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.stats import SolverResult


@register_solver(
    "rr",
    scope="global",
    memoizable=True,
    takes_order=True,
    aliases=("round-robin",),
    paper_ref="Fig. 1",
    summary="round-robin sweeps until a full sweep changes nothing",
)
def solve_rr(
    system: FiniteSystem,
    op: Combine,
    order: Optional[Sequence] = None,
    max_evals: Optional[int] = None,
    *,
    observers=(),
    memoize: bool = False,
) -> SolverResult:
    """Solve ``system`` by round-robin iteration with update operator ``op``.

    :param system: a finite equation system.
    :param op: the binary update operator (e.g. :class:`WarrowCombine`).
    :param order: sweep order of the unknowns (default: declaration order).
    :param max_evals: evaluation budget; exceeding it raises
        :class:`~repro.solvers.stats.DivergenceError`.
    :param observers: extra event-bus observers for this run.
    :param memoize: skip re-evaluations whose dependencies are unchanged.
    :returns: the final mapping together with solver statistics.
    """
    eng = SolverEngine(
        system, op, max_evals=max_evals, observers=observers, memoize=memoize
    )
    op = eng.op  # the engine's per-run fresh instance
    xs = list(order) if order is not None else list(system.unknowns)
    sweep = eng.seed_finite(xs)

    dirty = True
    while dirty:
        dirty = False
        for r in sweep:
            if eng.commit(r, op(r.x, r.value, eng.eval_rhs(r, eng.value_of))):
                dirty = True
    eng.finish(unknowns=len(xs))
    return SolverResult(eng.sigma.copy(), eng.stats)
