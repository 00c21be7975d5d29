"""The structured local recursive solver SLR (Fig. 6) -- the paper's main
algorithmic contribution.

SLR differs from RLD in exactly the ways needed to make it a *generic*
local solver with a termination guarantee:

* ``eval x y`` recursively solves ``y`` only when ``y`` is *fresh* (not yet
  in ``dom``), so one right-hand-side evaluation never changes the values
  of previously encountered unknowns -- evaluations are (conceptually)
  atomic;
* every unknown receives a priority ``key`` at initialisation, strictly
  smaller than all earlier keys (``key[y] = -count``), so the interesting
  unknown ``x0`` carries the largest key;
* destabilised unknowns are not re-solved immediately but collected in a
  global priority queue ``Q``; ``solve x`` drains ``Q`` of all unknowns
  with keys at most ``key[x]`` -- innermost (later-discovered) unknowns
  first;
* ``infl[x]`` always contains ``x`` itself, the precaution for
  non-right-idempotent operators such as the combined operator.

Theorem 3: SLR returns a partial ``op``-solution whenever it terminates,
and with the combined operator it terminates whenever the system is
monotonic and only finitely many unknowns are encountered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set

from repro.eqs.system import PureSystem
from repro.solvers._deepcall import call_with_deep_stack
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.stats import SolverResult


@dataclass
class LocalResult(SolverResult):
    """Result of a local solve: the partial mapping over ``dom``.

    ``infl`` and ``keys`` are exposed for inspection and for the
    partial-solution invariants checked by the test-suite.
    """

    infl: Dict[Hashable, Set[Hashable]] = field(default_factory=dict)
    keys: Dict[Hashable, int] = field(default_factory=dict)


@register_solver(
    "slr",
    scope="local",
    memoizable=True,
    aliases=("structured-local-recursive",),
    paper_ref="Fig. 6",
    summary="structured local recursive solving; Theorem 3 guarantees",
)
def solve_slr(
    system: PureSystem,
    op: Combine,
    x0: Hashable,
    max_evals: Optional[int] = None,
    *,
    observers=(),
    memoize: bool = False,
) -> LocalResult:
    """Run SLR for the interesting unknown ``x0``.

    :param system: a system of pure equations (possibly infinite).
    :param op: the binary update operator (typically
        :class:`~repro.solvers.combine.WarrowCombine`).
    :param x0: the unknown whose value is queried.
    :param max_evals: evaluation budget guarding against divergence (the
        guarantee of Theorem 3 only covers monotonic systems).
    :param observers: extra event-bus observers for this run.
    :param memoize: skip re-evaluations whose dependencies are unchanged
        (sound for SLR because evaluations are atomic).
    :returns: a partial ``op``-solution whose domain contains ``x0`` and is
        closed under dynamic dependencies.
    """
    eng = SolverEngine(
        system, op, max_evals=max_evals, observers=observers, memoize=memoize
    )
    solve = slr_solver(eng)
    call_with_deep_stack(lambda: solve(eng.init_unknown(x0)))
    eng.finish()
    return local_result(eng)


def slr_solver(eng: SolverEngine):
    """SLR's ``solve x`` over ``eng``'s records, for a cold run or a
    warm start (:func:`repro.incremental.warmstart.warm_solve_slr`)."""
    op = eng.op  # the engine's per-run fresh instance
    heap = eng.heap

    def solve(r) -> None:
        if r.stable:
            return
        r.stable = True
        old = r.value
        tmp = op(r.x, old, eng.eval_rhs(r, eng.fresh_solving_eval(r, solve)))
        if eng.commit(r, tmp):
            eng.destabilize(r)
        while heap and heap[0][0] <= r.key:
            solve(eng.dequeue())

    return solve


def local_result(eng: SolverEngine) -> LocalResult:
    """The :class:`LocalResult` of a finished SLR run on ``eng``."""
    return LocalResult(
        sigma=eng.sigma.copy(),
        stats=eng.stats,
        infl=eng.infl.copy(),
        keys=eng.keys.copy(),
    )
