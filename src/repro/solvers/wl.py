"""The generic worklist solver W (Fig. 2 of the paper).

Maintains a set of unknowns whose equations may be violated.  In contrast
to round-robin, W needs the static dependency sets ``deps(x)`` so that a
change of ``y`` can re-schedule the influenced set ``infl(y)``.  Note that
the paper's formulation re-schedules the updated unknown itself as well --
the precaution needed for update operators that are not right-idempotent,
such as the combined operator.

The paper's Example 2 shows that W with a LIFO discipline and the combined
operator may diverge on a finite monotonic system; SW (Fig. 4,
:mod:`repro.solvers.sw`) repairs this with a priority queue.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.eqs.system import FiniteSystem
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.stats import SolverResult


@register_solver(
    "wl",
    scope="global",
    memoizable=True,
    takes_order=True,
    aliases=("w", "worklist"),
    paper_ref="Fig. 2",
    summary="classic worklist iteration over static dependency sets",
)
def solve_wl(
    system: FiniteSystem,
    op: Combine,
    order: Optional[Sequence] = None,
    discipline: str = "lifo",
    max_evals: Optional[int] = None,
    *,
    observers=(),
    memoize: bool = False,
) -> SolverResult:
    """Solve ``system`` by worklist iteration with update operator ``op``.

    :param system: a finite equation system with static dependency sets.
    :param op: the binary update operator.
    :param order: initial worklist contents (default: declaration order).
    :param discipline: ``"lifo"`` (stack, the paper's Example 2 setting) or
        ``"fifo"`` (queue).
    :param max_evals: evaluation budget; exceeding it raises
        :class:`~repro.solvers.stats.DivergenceError`.
    :param observers: extra event-bus observers for this run.
    :param memoize: skip re-evaluations whose dependencies are unchanged.
    """
    if discipline not in ("lifo", "fifo"):
        raise ValueError(f"unknown worklist discipline {discipline!r}")
    eng = SolverEngine(
        system, op, max_evals=max_evals, observers=observers, memoize=memoize
    )
    op = eng.op  # the engine's per-run fresh instance
    xs = list(order) if order is not None else list(system.unknowns)
    eng.seed_finite(system.unknowns)
    records = eng.records
    infl = system.infl()

    work = deque(xs)
    member = set(xs)
    eng.observe_queue(len(work))
    while work:
        x = work.pop() if discipline == "lifo" else work.popleft()
        member.discard(x)
        r = records[x]
        if eng.commit(r, op(x, r.value, eng.eval_rhs(r, eng.value_of))):
            # Influenced unknowns are pushed so that under LIFO the updated
            # unknown itself is re-evaluated first (infl lists start with
            # the unknown itself, hence the reversal).  This matches the
            # discipline of the paper's Example 2.
            pushed = infl.get(x, [x])
            for z in reversed(pushed):
                if z not in member:
                    member.add(z)
                    work.append(z)
            eng.bus.emit_destabilize(x, pushed)
            eng.observe_queue(len(work))
    eng.finish(unknowns=len(records))
    return SolverResult(eng.sigma.copy(), eng.stats)
