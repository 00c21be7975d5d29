"""Restarting and localized structured solvers: SLR2, SLR3 and TDR.

The source paper's direct successor ("Efficiently intertwining widening
and narrowing", Amato, Scozzari, Seidl, Apinis, Vojdani) refines SLR in
two steps.  Both run in the side-effecting SLR loop
(:func:`repro.solvers.slr_side.slr_loop`) as modes of SLR+:

* **SLR2** applies the combined operator only at *widening points* and
  plain override everywhere else, so narrowing is localized: a non-point
  tracks its right-hand side exactly and all acceleration (and all
  precision loss) concentrates where cycles actually close.  Widening
  points are detected *dynamically*, exactly as in Goblint's ``TD3``: an
  unknown looked up while its own right-hand side is still being
  evaluated heads a dependency cycle.  Side-effect targets that receive
  a changed re-contribution are marked too -- side effects close the
  interprocedural cycles the ``infl`` recursion cannot see.
* **SLR3** adds *restarting*: when the value at a widening point takes a
  downward reversal (the first shrink after growth), every unknown that
  transitively read the over-widened value was computed against garbage
  that plain narrowing can never repair -- finite-but-too-large bounds
  survive descending iteration.  SLR3 discards that dependent region
  (:meth:`~repro.solvers.engine.SolverEngine.restart_region`, which
  reuses the incremental layer's destabilization closure) and re-solves
  it against the narrowed value.  Each widening point restarts at most
  once per run, so the extra work is bounded by one re-solve of each
  region.
* **TDR** is the restarting variant of the top-down baseline: plain TD
  iteration plus the same dynamic widening-point detection and the same
  restart-on-reversal rule.  Like TD it is *not* generic in the paper's
  sense (evaluations are not atomic).

Termination: localized solving relies on every dependency cycle passing
through a detected widening point.  Three detections cooperate: in-flight
lookups (a cycle closed through the recursive descent), accesses against
the priority order (priority keys strictly decrease along demand edges,
so every cycle contains at least one read of an older unknown -- this is
the successor paper's argument, and it catches cycles whose closing edge
only materializes during a later re-evaluation), and changed side-effect
re-contributions (interprocedural cycles the ``infl`` recursion cannot
see).  The engine's evaluation-budget guard stays on as a safety net,
the same discipline Goblint applies.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.eqs.side import SideEffectingSystem
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.slr_side import RestartResult, slr_loop
from repro.solvers.stats import SolverResult
from repro.solvers.td import td_loop


@register_solver(
    "slr2",
    scope="local",
    side_effecting=True,
    aliases=("slr-localized",),
    paper_ref="successor paper, SLR2",
    summary="SLR with ⌴ only at dynamic widening points; localized narrowing",
)
def solve_slr2(
    system: SideEffectingSystem,
    op: Combine,
    x0: Hashable,
    max_evals: Optional[int] = None,
    track_contributions: bool = True,
    protect: Optional[set] = None,
    *,
    observers=(),
) -> RestartResult:
    """Run SLR2 for the interesting unknown ``x0``.

    The signature mirrors :func:`~repro.solvers.slr_side.solve_slr_side`
    (SLR2 subsumes SLR+'s side-effect handling), so it is a drop-in
    through the registry for every caller of ``slr+``.

    :returns: a partial post solution over the encountered unknowns: at
        quiescence a non-point satisfies ``sigma[x] = f_x(sigma)``
        exactly, a widening point ``sigma[x] ⊒ f_x(sigma)``.
    """
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    return slr_loop(eng, x0, "slr2", track_contributions, accumulated=protect or ())


@register_solver(
    "slr3",
    scope="local",
    side_effecting=True,
    restarting=True,
    aliases=("slr-restart",),
    paper_ref="successor paper, SLR3",
    summary="SLR2 plus restarting of over-widened regions on reversal",
)
def solve_slr3(
    system: SideEffectingSystem,
    op: Combine,
    x0: Hashable,
    max_evals: Optional[int] = None,
    track_contributions: bool = True,
    protect: Optional[set] = None,
    *,
    observers=(),
) -> RestartResult:
    """Run SLR3 (restarting SLR2) for the interesting unknown ``x0``.

    On the first downward reversal at each widening point the dependent
    region -- everything that transitively read the over-widened value,
    computed by the same influence closure the incremental layer uses
    for destabilization -- is reset to its initial values and re-solved
    against the narrowed value.  ``result.stats.restarts`` counts the
    fired restarts; ``result.restarted`` names the points.
    """
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    return slr_loop(eng, x0, "slr3", track_contributions, accumulated=protect or ())


@register_solver(
    "tdr",
    scope="local",
    generic=False,
    restarting=True,
    aliases=("td-restart",),
    paper_ref="successor paper applied to [22]",
    summary="restarting top-down baseline; not generic",
)
def solve_tdr(
    system,
    op: Combine,
    x0: Hashable,
    max_evals: Optional[int] = None,
    *,
    observers=(),
) -> SolverResult:
    """Run the restarting top-down solver for the interesting unknown ``x0``.

    TD iteration (local iteration to stabilisation, recursive demand
    solving) with the restart rule of SLR3 grafted on: a downward
    reversal at a dynamically detected widening point discards and
    destabilizes the dependent region once per point and run.  Inherits
    TD's non-genericity -- evaluations are not atomic.
    """
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    return td_loop(eng, x0, restart=True)
