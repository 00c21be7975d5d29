"""The local solver RLD of Hofmann, Karbyshev and Seidl (Fig. 5).

RLD is reproduced faithfully, including the property the paper criticises:
``eval`` recursively solves *every* looked-up unknown, so one evaluation of
a right-hand side may observe values from several different intermediate
mappings.  Right-hand sides are therefore not executed atomically, and RLD
enhanced with an arbitrary update operator is **not** a generic solver: it
may terminate with a mapping that is not an ``op``-solution.  The paper's
solver SLR (:mod:`repro.solvers.slr`) repairs exactly this; the test-suite
contains a side-by-side demonstration.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.eqs.system import PureSystem
from repro.solvers._deepcall import call_with_deep_stack
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.stats import SolverResult


@register_solver(
    "rld",
    scope="local",
    generic=False,
    aliases=("hofmann",),
    paper_ref="Fig. 5",
    summary="Hofmann et al. local solver; not generic (non-atomic evals)",
)
def solve_rld(
    system: PureSystem,
    op: Combine,
    x0: Hashable,
    max_evals: Optional[int] = None,
    *,
    observers=(),
) -> SolverResult:
    """Run RLD for the interesting unknown ``x0``.

    :param system: a system of pure equations (possibly infinite).
    :param op: the binary update operator.
    :param x0: the unknown whose value is queried.
    :param max_evals: evaluation budget guarding against divergence.
    :param observers: extra event-bus observers for this run.
    :returns: the mapping over all encountered unknowns.
    """
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    op = eng.op  # the engine's per-run fresh instance

    # Influence is recorded in insertion order, so destabilised unknowns
    # are re-solved in the order their dependencies were recorded --
    # keeping runs deterministic regardless of string-hash randomisation.
    def solve(r) -> None:
        if r.stable:
            return
        r.stable = True
        old = r.value
        tmp = op(r.x, old, eng.eval_rhs(r, eng.demand_solving_eval(r, solve)))
        if eng.commit(r, tmp):
            for y in eng.destabilize_ordered(r):
                solve(y)

    call_with_deep_stack(lambda: solve(eng.record(x0)))
    eng.finish(unknowns=len(eng.records))
    return SolverResult(eng.sigma.copy(), eng.stats)
