"""The naive local solver sketched at the start of the paper's Section 5.

    "one such instance can be derived from the round-robin algorithm.
    For that, the evaluation of right-hand sides is instrumented in such
    a way that it keeps track of the set of accessed unknowns.  Each
    round then operates on a growing set of unknowns.  In the first
    round, just x0 alone is considered.  In any subsequent round all
    unknowns are added whose values have been newly accessed during the
    last iteration."

This solver exists as the simplest possible *generic local* solver: a
correctness baseline for SLR (which visits unknowns in a far better
order), and a demonstration that locality and genericity are orthogonal
to the structured-iteration ideas of Section 4.  Like plain round-robin,
it may diverge under the combined operator even for monotonic systems --
the guarantees of Theorem 3 belong to SLR alone.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.eqs.system import PureSystem
from repro.eqs.tracked import TracingGet
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.stats import SolverResult


@register_solver(
    "rr-local",
    scope="local",
    aliases=("local-round-robin",),
    paper_ref="Section 5 (sketch)",
    summary="round-robin sweeps over a growing unknown set; may diverge",
)
def solve_rr_local(
    system: PureSystem,
    op: Combine,
    x0: Hashable,
    max_evals: Optional[int] = None,
    *,
    observers=(),
) -> SolverResult:
    """Local solving by round-robin sweeps over a growing unknown set.

    :param system: a system of pure equations (possibly infinite).
    :param op: the binary update operator.
    :param x0: the unknown whose value is queried.
    :param max_evals: evaluation budget guarding against divergence.
    :param observers: extra event-bus observers for this run.
    :returns: a partial ``op``-solution whose domain contains ``x0`` and
        is closed under the dynamically discovered dependencies.
    """
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    op = eng.op  # the engine's per-run fresh instance
    worklist = [eng.record(x0)]  # insertion-ordered domain

    dirty = True
    while dirty:
        dirty = False
        discovered: list = []
        for r in worklist:
            # The tracer's lookups initialise what they read.
            tracer = TracingGet(eng.value_of)
            old = r.value
            value = eng.eval_rhs(r, tracer)
            if eng.commit(r, op(r.x, old, value)):
                dirty = True
            for y in tracer.accessed:
                target = eng.records[y]
                if target not in set(worklist) | set(discovered):
                    discovered.append(target)
                    dirty = True
        worklist.extend(discovered)
    eng.finish(unknowns=len(worklist))
    return SolverResult({r.x: r.value for r in worklist}, eng.stats)
