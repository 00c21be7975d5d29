"""The structured worklist solver SW (Fig. 4 of the paper).

Like the classic worklist solver W, but the pending unknowns live in a
*priority queue* ordered by a fixed linear order on the unknowns, and every
round extracts the unknown with the least index.  On a change of ``x``,
``x`` itself and all influenced unknowns are (re-)inserted.

Theorem 2: for monotonic systems over a complete lattice, SW instantiated
with the combined operator terminates for every initial mapping; with
``op = join`` on lattices of ascending-chain height ``h`` it performs at
most ``h * N`` evaluations where ``N = sum_i (2 + |deps(x_i)|)``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.eqs.system import FiniteSystem
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.engine.worklist import PriorityWorklist  # noqa: F401  (re-export)
from repro.solvers.registry import register_solver
from repro.solvers.stats import SolverResult


@register_solver(
    "sw",
    scope="global",
    memoizable=True,
    takes_order=True,
    aliases=("structured-worklist",),
    paper_ref="Fig. 4",
    summary="structured (priority-queue) worklist; Theorem 2 guarantees",
)
def solve_sw(
    system: FiniteSystem,
    op: Combine,
    order: Optional[Sequence] = None,
    max_evals: Optional[int] = None,
    *,
    observers=(),
    memoize: bool = False,
) -> SolverResult:
    """Solve ``system`` by structured (priority-queue) worklist iteration.

    :param system: a finite equation system with static dependency sets.
    :param op: the binary update operator.
    :param order: the linear order ``x_1 ... x_n`` defining priorities
        (default: declaration order).
    :param max_evals: evaluation budget guarding against divergence.
    :param observers: extra event-bus observers for this run.
    :param memoize: skip re-evaluations whose dependencies are unchanged.
    """
    eng = SolverEngine(
        system, op, max_evals=max_evals, observers=observers, memoize=memoize
    )
    op = eng.op  # the engine's per-run fresh instance
    xs = list(order) if order is not None else list(system.unknowns)
    key = {x: i for i, x in enumerate(xs)}
    eng.seed_finite(system.unknowns)
    queue = eng.make_queue(key.__getitem__)
    for x in xs:
        queue.add(x)
    sw_iterate(eng, op, queue, system.infl())
    eng.finish(unknowns=len(eng.records))
    return SolverResult(eng.sigma.copy(), eng.stats)


def sw_iterate(eng: SolverEngine, op, queue, infl) -> None:
    """Drain ``queue`` by SW's iteration: a change of ``x`` re-inserts
    ``x`` and its static influence set ``infl[x]``."""
    while queue:
        x = queue.extract_min()
        r = eng.records[x]
        if eng.commit(r, op(x, r.value, eng.eval_rhs(r, eng.value_of))):
            work = infl.get(x, [x])
            queue.add(x)
            for z in work:
                queue.add(z)
            eng.bus.emit_destabilize(x, work)
