"""The top-down solver TD (Le Charlier & Van Hentenryck 1992).

The classical demand-driven solver the paper's related work builds on
(cited as [22]; Fecht & Seidl's faster solver [12] and RLD descend from
it).  TD solves an unknown by *iterating it locally to stabilisation*:
``solve x`` repeatedly evaluates ``f_x``, recursively solving every
unknown the evaluation looks up, until the value of ``x`` stops changing.
A set of "called" unknowns breaks recursive cycles: a lookup of an unknown
already on the call stack returns its current value, and dependency
book-keeping re-schedules the caller when such an unknown changes later.

Like RLD -- and unlike SLR -- evaluations are not atomic (nested solving
may update values mid-evaluation), so TD with a non-idempotent operator
such as the combined operator is *not* a generic solver in the paper's
sense; it is provided as the historical baseline, and the test-suite
demonstrates both its strengths (exactness for join on monotone systems)
and this weakness.
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
    "td",
    scope="local",
    generic=False,
    aliases=("top-down",),
    paper_ref="[22], related work",
    summary="Le Charlier & Van Hentenryck top-down baseline; not generic",
)
def solve_td(
    system: PureSystem,
    op: Combine,
    x0: Hashable,
    max_evals: Optional[int] = None,
    *,
    observers=(),
) -> SolverResult:
    """Run the top-down solver for the interesting unknown ``x0``.

    :param system: a system of pure equations (possibly infinite).
    :param op: the binary update operator.
    :param x0: the unknown whose value is queried.
    :param max_evals: evaluation budget guarding against divergence.
    :param observers: extra event-bus observers for this run.
    :returns: the mapping over all encountered unknowns.
    """
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    return td_loop(eng, x0)


def td_loop(eng: SolverEngine, x0: Hashable, restart: bool = False) -> SolverResult:
    """TD's iteration on ``eng``; with ``restart``, TDR's
    (:func:`repro.solvers.slr_restart.solve_tdr`): a lookup of an unknown
    on the call stack makes it a widening point, and a widening point's
    first downward reversal restarts its region."""
    op = eng.op  # the engine's per-run fresh instance
    leq = eng.lattice.leq
    #: Records whose local iteration is currently running (call stack).
    called: set = set()

    def solve(r) -> None:
        if r in called:
            if restart:  # the lookup closes a cycle at ``r``
                r.wpoint = True
            return
        if r.stable:
            return
        called.add(r)
        try:
            while True:
                old = r.value
                new = op(
                    r.x, old, eng.eval_rhs(r, eng.demand_solving_eval(r, solve))
                )
                grew_before = restart and r.direction is False
                if not eng.commit(r, new):
                    break
                if grew_before and r.wpoint and not r.restarted and leq(new, old):
                    r.restarted = True
                    eng.restart_region(r)
                else:
                    eng.destabilize_transitive(r)
        finally:
            called.discard(r)
        r.stable = True

    r0 = eng.record(x0)
    call_with_deep_stack(lambda: solve(r0))
    # Unknowns destabilised after the top-level iteration finished would
    # be re-solved on the next query; drain them now so the returned
    # mapping is as stable as TD can make it.
    rounds = 0
    while not r0.stable and rounds < 100:
        call_with_deep_stack(lambda: solve(r0))
        rounds += 1
    eng.finish(unknowns=len(eng.records))
    return SolverResult(eng.sigma.copy(), eng.stats)
