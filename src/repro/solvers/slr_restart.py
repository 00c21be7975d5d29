"""Restarting and localized structured solvers: SLR2, SLR3 and TDR.

The source paper's direct successor ("Efficiently intertwining widening
and narrowing", Amato, Scozzari, Seidl, Apinis, Vojdani) refines SLR in
two steps, both reproduced here on top of the shared engine:

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

from dataclasses import dataclass, field
from typing import Hashable, Optional, Set

from repro.eqs.side import SideEffectingSystem
from repro.solvers._deepcall import call_with_deep_stack
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.slr_side import SideEffectError, SideResult
from repro.solvers.stats import SolverResult


@dataclass
class RestartResult(SideResult):
    """Result of an SLR2/SLR3 run.

    Extends :class:`~repro.solvers.slr_side.SideResult` with the
    dynamically detected widening points (``wpoints``) and, for SLR3,
    the points whose downward reversal triggered a region restart
    (``restarted``).  ``stats.restarts`` counts the restarts.
    """

    wpoints: Set[Hashable] = field(default_factory=set)
    restarted: Set[Hashable] = field(default_factory=set)


def _solve_localized(
    system: SideEffectingSystem,
    op: Combine,
    x0: Hashable,
    max_evals: Optional[int],
    track_contributions: bool,
    protect: Optional[set],
    observers,
    *,
    restart: bool,
) -> RestartResult:
    """The shared SLR2/SLR3 loop; ``restart`` switches SLR3 behaviour on."""
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    op = eng.op  # the engine's per-run fresh instance
    lat = eng.lattice
    sigma, keys, dom, stable = eng.sigma, eng.keys, eng.dom, eng.stable
    infl = eng.infl
    contribs: dict = {}
    contributors: dict = {}
    accumulated: set = set(protect) if protect else set()
    #: Dynamically detected widening points -- the only unknowns combined
    #: through ``op``; everything else is plain override.
    wpoints: Set[Hashable] = set()
    #: Widening points already restarted this run (SLR3 restarts once).
    restarted: Set[Hashable] = set()
    #: Unknowns whose right-hand side is being evaluated right now; a
    #: lookup that hits this set closes a cycle at the looked-up unknown.
    #: Solver-local (a set, not the engine's in-flight *list*) so the
    #: membership test on the lookup hot path is O(1).
    evaluating: Set[Hashable] = set()
    # Expose the resumable bookkeeping for mid-run snapshots
    # (repro.incremental.state.capture_engine reads these) and for the
    # engine's restart primitive (which drops stale contributions).
    eng.aux.update(
        contribs=contribs,
        contributors=contributors,
        accumulated=accumulated,
        wpoints=wpoints,
    )
    queue = eng.make_queue(keys.__getitem__)
    heap = queue.heap
    #: Per-unknown ``(eval, effected, thunk)``, built on its first
    #: evaluation and reused by every later one (see ``callbacks_of``).
    callbacks: dict = {}

    def init(y) -> None:
        eng.init_unknown(y)
        contributors.setdefault(y, set())

    def destabilize_and_queue(y) -> None:
        stable.discard(y)
        queue.add(y)

    def solve(x) -> None:
        if x in stable:
            return
        stable.add(x)
        get, effected, thunk = callbacks.get(x) or callbacks_of(x)
        effected.clear()
        evaluating.add(x)
        try:
            own = eng.eval_rhs(x, get, thunk)
        finally:
            evaluating.discard(x)
        total = own
        if track_contributions:
            for z in contributors.get(x, ()):
                total = lat.join(total, contribs[(z, x)])
        elif x in accumulated:
            total = lat.join(total, sigma[x])
        old = sigma[x]
        # The localization: ⌴ at widening points, plain override
        # elsewhere -- a non-point simply tracks its right-hand side.
        new = op(x, old, total) if x in wpoints else total
        # The direction *before* this commit: a downward reversal is a
        # shrink whose predecessor move grew (False = grew).
        grew_before = eng._direction.get(x) is False
        if eng.commit(x, new):
            if (
                restart
                and x in wpoints
                and x not in restarted
                and grew_before
                and lat.leq(new, old)
            ):
                restarted.add(x)
                eng.restart_region(x, queue)
            else:
                eng.destabilize(x, queue)
        key = keys[x]
        while heap and heap[0][0] <= key:
            solve(queue.extract_min())

    def callbacks_of(x) -> tuple:
        """Build ``x``'s lookup and side-effect callbacks for this run.

        ``effected`` holds the targets of the current evaluation; the
        solver clears it before each one.  ``x`` is never re-solved while
        its own right-hand side runs (nested solves only reach younger
        unknowns), so one set per unknown suffices.
        """
        rhs = system.rhs(x)
        side, effected = make_side(x)
        entry = callbacks[x] = (
            make_eval(x),
            effected,
            lambda get: rhs(get, side),
        )
        return entry

    def make_eval(x):
        key = keys[x]

        def eval_(y):
            if y not in dom:
                init(y)
                solve(y)
            elif y in evaluating or keys[y] >= key:
                # ``y`` heads a dependency cycle: either its own
                # evaluation (transitively) looked itself up, or the
                # access runs against the priority order (``y`` was
                # initialized before ``x``, yet ``x`` reads it).  Keys
                # strictly decrease along demand edges, so every cycle
                # contains at least one against-order access -- marking
                # those is what guarantees each cycle a widening point
                # even when its closing edge only materializes during a
                # later re-evaluation (e.g. a call edge whose source
                # environment was still bottom on the first descent).
                wpoints.add(y)
            infl[y].add(x)
            return sigma[y]

        return eval_

    def _side_accumulate(x, y, d) -> None:
        """Classical side-effect handling: fold ``d`` into the target."""
        fresh = y not in dom
        if fresh:
            init(y)
        else:
            # An accumulated target only ever grows; without acceleration
            # a side-effect cycle through it would diverge.
            wpoints.add(y)
        accumulated.add(y)
        joined = lat.join(sigma[y], d)
        new = op(y, sigma[y], joined) if y in wpoints else joined
        if eng.commit(y, new):
            if fresh:
                solve(y)
            else:
                eng.destabilize(y, queue)

    def make_side(x):
        effected: set = set()

        def side(y, d) -> None:
            if y == x:
                raise SideEffectError(
                    f"right-hand side of {x!r} side-effects itself"
                )
            if y in effected:
                raise SideEffectError(
                    f"right-hand side of {x!r} side-effects {y!r} twice "
                    f"in one evaluation"
                )
            effected.add(y)
            if not track_contributions:
                _side_accumulate(x, y, d)
                return
            pair = (x, y)
            old = contribs.get(pair, lat.bottom)
            changed = not lat.equal(old, d)
            if changed:
                contribs[pair] = d
            if y not in dom:
                init(y)
                contributors[y] = {x}
                solve(y)
            else:
                contributors.setdefault(y, set()).add(x)
                if changed:
                    # A changed re-contribution closes a cycle through
                    # the side effect (the ``infl`` recursion cannot see
                    # it); accelerate the target from now on.
                    wpoints.add(y)
                    destabilize_and_queue(y)

        return side, effected

    def run() -> None:
        init(x0)
        solve(x0)
        # Drain any work the final evaluation may have left behind (side
        # effects can enqueue unknowns while the top-level value is stable).
        while queue:
            solve(queue.extract_min())

    call_with_deep_stack(run)
    eng.finish()
    return RestartResult(
        sigma=sigma,
        stats=eng.stats,
        infl=infl,
        keys=keys,
        contribs=contribs,
        contributors=contributors,
        accumulated=accumulated,
        wpoints=wpoints,
        restarted=restarted,
    )


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
    return _solve_localized(
        system,
        op,
        x0,
        max_evals,
        track_contributions,
        protect,
        observers,
        restart=False,
    )


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
    return _solve_localized(
        system,
        op,
        x0,
        max_evals,
        track_contributions,
        protect,
        observers,
        restart=True,
    )


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
    op = eng.op  # the engine's per-run fresh instance
    lat = eng.lattice
    sigma, infl, stable = eng.sigma, eng.infl, eng.stable
    called: Set[Hashable] = set()
    wpoints: Set[Hashable] = set()
    restarted: Set[Hashable] = set()
    eng.aux.update(wpoints=wpoints)

    def destabilize(y) -> None:
        work = list(infl.get(y, ()))
        infl[y] = {}
        eng.bus.emit_destabilize(y, work)
        for z in work:
            if z in stable:
                stable.discard(z)
                destabilize(z)

    def make_eval(x):
        def eval_(y):
            if y in called:
                # ``y`` is on the call stack: the lookup closes a cycle.
                wpoints.add(y)
            else:
                solve(y)
            infl.setdefault(y, {})[x] = None
            return eng.value_of(y)

        return eval_

    def solve(x) -> None:
        if x in stable or x in called:
            return
        called.add(x)
        try:
            while True:
                eng.value_of(x)
                old = sigma[x]
                new = op(x, old, eng.eval_rhs(x, make_eval(x)))
                grew_before = eng._direction.get(x) is False
                if not eng.commit(x, new):
                    break
                if (
                    x in wpoints
                    and x not in restarted
                    and grew_before
                    and lat.leq(new, old)
                ):
                    restarted.add(x)
                    eng.restart_region(x)
                else:
                    destabilize(x)
        finally:
            called.discard(x)
        stable.add(x)

    call_with_deep_stack(lambda: solve(x0))
    rounds = 0
    while x0 not in stable and rounds < 100:
        call_with_deep_stack(lambda: solve(x0))
        rounds += 1
    eng.finish(unknowns=len(sigma))
    return SolverResult(sigma, eng.stats)
