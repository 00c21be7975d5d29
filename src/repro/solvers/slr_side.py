"""The side-effecting SLR loop: SLR+ (Section 6), SLR2 and SLR3.

SLR+ extends SLR to systems whose right-hand sides may *contribute* values
to other unknowns via a ``side`` callback.  Conceptually each side effect of
the right-hand side of ``x`` onto ``z`` flows through a fresh unknown
``(x, z)`` that holds the latest contribution, and the right-hand side of
``z`` is extended with the join of all contributions
``join { sigma[(x, z)] | x in set[z] }``.  Combining the contributions
through the *combined* operator (rather than widening each contribution
individually into the global) is what keeps narrowing of globals sound --
Example 8 of the paper.

Theorem 4: SLR+ returns a partial post solution whenever it terminates, and
terminates for monotonic systems whenever only finitely many unknowns are
encountered.

The successor paper's SLR2 and SLR3 (:mod:`repro.solvers.slr_restart`)
are small increments of SLR+, so :func:`slr_loop` runs all three, cold or
resumed from a restored engine (:mod:`repro.incremental.warmstart`).  The
solver's registry name is the loop's mode:

* ``slr+`` -- every unknown is combined through ⌴ and nothing restarts;
* ``slr2`` -- ⌴ applies only at dynamically detected widening points,
  plain override everywhere else (localized narrowing);
* ``slr3`` -- SLR2, plus a widening point's dependent region restarts on
  that point's first downward reversal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, Optional, Set, Tuple

from repro.eqs.side import SideEffectingSystem
from repro.solvers._deepcall import call_with_deep_stack
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.registry import register_solver
from repro.solvers.slr import LocalResult


class SideEffectError(Exception):
    """Raised when a right-hand side violates the side-effect discipline.

    The paper assumes each right-hand side ``f_x`` performs no side effect
    to ``x`` itself and at most one side effect per other unknown and
    evaluation; SLR+ checks both.
    """


@dataclass
class SideResult(LocalResult):
    """Result of an SLR+ run.

    ``contribs`` maps ``(x, z)`` pairs to the latest value the right-hand
    side of ``x`` contributed to ``z``; ``contributors`` is the final
    ``set`` map of the algorithm.
    """

    contribs: Dict[Tuple[Hashable, Hashable], object] = field(
        default_factory=dict
    )
    contributors: Dict[Hashable, Set[Hashable]] = field(default_factory=dict)
    #: In classical (non-tracked) mode: the unknowns that received
    #: accumulated side effects.  Their values live only in ``sigma`` and
    #: must be protected across a subsequent narrowing pass.
    accumulated: Set[Hashable] = field(default_factory=set)


@dataclass
class RestartResult(SideResult):
    """Result of an SLR2/SLR3 run.

    Extends :class:`SideResult` with the dynamically detected widening
    points (``wpoints``) and, for SLR3, the points whose downward
    reversal triggered a region restart (``restarted``).
    ``stats.restarts`` counts the restarts.
    """

    wpoints: Set[Hashable] = field(default_factory=set)
    restarted: Set[Hashable] = field(default_factory=set)


#: The loop's modes: the registry names of the solvers it runs.
MODES = ("slr+", "slr2", "slr3")


@register_solver(
    "slr+",
    scope="local",
    side_effecting=True,
    aliases=("slr-side", "slrside"),
    paper_ref="Section 6",
    summary="side-effecting SLR; drives the interprocedural analyses",
)
def solve_slr_side(
    system: SideEffectingSystem,
    op: Combine,
    x0: Hashable,
    max_evals: Optional[int] = None,
    track_contributions: bool = True,
    protect: Optional[set] = None,
    *,
    observers=(),
) -> SideResult:
    """Run SLR+ for the interesting unknown ``x0``.

    :param system: a system of pure side-effecting equations.
    :param op: the binary update operator (typically
        :class:`~repro.solvers.combine.WarrowCombine`).
    :param x0: the unknown whose value is queried.
    :param max_evals: evaluation budget guarding against divergence.
    :param track_contributions: when ``True`` (the paper's SLR+), each
        side effect flows through a per-origin unknown ``(x, z)`` and the
        right-hand side of ``z`` joins the *current* contributions -- which
        is what makes narrowing of side-effected unknowns sound
        (Example 8).  When ``False``, side effects are *accumulated*
        directly into the target (``sigma[z] <- sigma[z] op
        (sigma[z] join d)``), the classical treatment in which
        side-effected unknowns can never shrink again.  The classical mode
        exists as the baseline for the precision experiments.
    :param protect: unknowns to treat as already-accumulated from the
        start (their current value always joins their right-hand side).
        A narrowing pass over a classical phase-1 result must pass the
        phase-1 ``accumulated`` set here, otherwise side-effected unknowns
        would collapse before their contributors re-run.
    :returns: a partial ``op``-solution over the encountered unknowns,
        including all side-effect targets.
    """
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    return slr_loop(eng, x0, "slr+", track_contributions, accumulated=protect or ())


def slr_loop(
    eng: SolverEngine,
    x0: Hashable,
    mode: str,
    track_contributions: bool = True,
    *,
    contribs: Optional[Dict[Tuple[Hashable, Hashable], object]] = None,
    contributors: Optional[Dict[Hashable, Set[Hashable]]] = None,
    accumulated: Iterable[Hashable] = (),
    wpoints: Iterable[Hashable] = (),
    seeds: Iterable[Hashable] = (),
) -> SideResult:
    """Run SLR+, SLR2 or SLR3 (``mode``, see :data:`MODES`) on ``eng``.

    A cold run passes a fresh engine and nothing else.  A warm start
    passes an engine restored from a snapshot, the restored
    ``contribs``/``contributors``/``accumulated`` bookkeeping (the loop
    updates the two maps in place), the restored widening points, and
    the destabilized ``seeds``, which are enqueued before ``x0`` is
    solved; ``x0`` is initialised only when it was not restored.

    :returns: a :class:`SideResult` for ``slr+``, a
        :class:`RestartResult` for ``slr2`` and ``slr3``.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    localized = mode != "slr+"
    restart = mode == "slr3"
    system = eng.system
    op = eng.op  # the engine's per-run fresh instance
    lat = eng.lattice
    sigma, keys, dom, stable = eng.sigma, eng.keys, eng.dom, eng.stable
    infl = eng.infl
    if contribs is None:
        contribs = {}
    if contributors is None:
        contributors = {}
    accumulated = set(accumulated)
    #: SLR2/SLR3: the dynamically detected widening points -- the only
    #: unknowns combined through ``op``; everything else is plain override.
    wpoints = set(wpoints)
    #: SLR3: widening points already restarted this run (once each).
    restarted: Set[Hashable] = set()
    #: SLR2/SLR3: unknowns whose right-hand side is being evaluated right
    #: now; a lookup that hits this set closes a cycle at the looked-up
    #: unknown.  A set, not the engine's in-flight *list*, so the
    #: membership test on the lookup hot path is O(1).
    evaluating: Set[Hashable] = set()
    # Expose the side-effect bookkeeping for mid-run snapshots
    # (repro.incremental.state.capture_engine reads these) and for the
    # engine's restart primitive (which drops stale contributions).  SLR+
    # registers no widening points, so its snapshots carry none.
    eng.aux.update(
        contribs=contribs, contributors=contributors, accumulated=accumulated
    )
    if localized:
        eng.aux["wpoints"] = wpoints
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
        if localized:
            evaluating.add(x)
            try:
                total = eng.eval_rhs(x, get, thunk)
            finally:
                evaluating.discard(x)
        else:
            total = eng.eval_rhs(x, get, thunk)
        # Join the return value with all recorded side contributions to x.
        if track_contributions:
            for z in contributors.get(x, ()):
                total = lat.join(total, contribs[(z, x)])
        elif x in accumulated:
            # Classical accumulation keeps past side effects in sigma[x]
            # itself, so they must survive the combine with the own value.
            total = lat.join(total, sigma[x])
        old = sigma[x]
        # The localization: ⌴ at widening points, plain override
        # elsewhere -- a non-point simply tracks its right-hand side.
        new = total if localized and x not in wpoints else op(x, old, total)
        # The direction *before* this commit: a downward reversal is a
        # shrink whose predecessor move grew (False = grew).
        grew_before = restart and eng._direction.get(x) is False
        if eng.commit(x, new):
            if (
                grew_before
                and x in wpoints
                and x not in restarted
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
            make_eval(x) if localized else eng.fresh_solving_eval(x, solve),
            effected,
            lambda get: rhs(get, side),
        )
        return entry

    def make_eval(x):
        """SLR2/SLR3 ``eval x``: SLR+'s lookup plus widening-point detection.

        Unlike the engine's lookup, a fresh unknown goes through ``init``
        and so gets an (empty) contributor set.
        """
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
        elif localized:
            # An accumulated target only ever grows; without acceleration
            # a side-effect cycle through it would diverge.
            wpoints.add(y)
        accumulated.add(y)
        joined = lat.join(sigma[y], d)
        new = joined if localized and y not in wpoints else op(y, sigma[y], joined)
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
                # ``y`` may have been discovered through ``eval`` (which
                # does not touch the contributor map), so default here.
                contributors.setdefault(y, set()).add(x)
                if changed:
                    if localized:
                        # A changed re-contribution closes a cycle through
                        # the side effect (the ``infl`` recursion cannot
                        # see it); accelerate the target from now on.
                        wpoints.add(y)
                    destabilize_and_queue(y)

        return side, effected

    def run() -> None:
        if x0 not in dom:
            init(x0)
        for x in seeds:
            queue.add(x)
        solve(x0)
        # Drain any work the final evaluation may have left behind (side
        # effects can enqueue unknowns while the top-level value is stable).
        while queue:
            solve(queue.extract_min())

    call_with_deep_stack(run)
    eng.finish()
    fields = dict(
        sigma=sigma,
        stats=eng.stats,
        infl=infl,
        keys=keys,
        contribs=contribs,
        contributors=contributors,
        accumulated=accumulated,
    )
    if localized:
        return RestartResult(**fields, wpoints=wpoints, restarted=restarted)
    return SideResult(**fields)
