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
    accumulated: Iterable[Hashable] = (),
    wpoints: Iterable[Hashable] = (),
    seeds: Iterable[Hashable] = (),
) -> SideResult:
    """Run SLR+, SLR2 or SLR3 (``mode``, see :data:`MODES`) on ``eng``.

    A cold run passes a fresh engine and nothing else.  A warm start
    passes an engine restored from a snapshot, contributions included,
    the restored ``accumulated`` targets and widening points, and the
    destabilized ``seeds``, which are enqueued before ``x0`` is solved;
    ``x0`` is initialised only when it was not restored.  Unknowns in
    ``accumulated`` count as accumulated targets whenever they are met.

    The loop runs on the engine's records: a lookup or side effect makes
    one dict lookup, everything else reads record fields.

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
    join, equal, bottom = lat.join, lat.equal, lat.bottom
    records, heap = eng.records, eng.heap
    eval_rhs, commit, destabilize = eng.eval_rhs, eng.commit, eng.destabilize
    enqueue, dequeue = eng.enqueue, eng.dequeue
    protect = frozenset(accumulated)
    for x in protect:
        if x in records:
            records[x].accumulated = True
    if localized:
        # SLR2/SLR3: the dynamically detected widening points are the
        # only unknowns combined through ``op``; everything else is plain
        # override.
        for x in wpoints:
            if x in records:
                records[x].wpoint = True

    def init(y, contributed: bool = True):
        """First encounter of ``y``.  Every unknown gets a contributor set
        except one that SLR+ meets through a lookup."""
        record = eng.init_unknown(y)
        if protect and y in protect:
            record.accumulated = True
        if contributed:
            record.contribs = {}
        return record

    def solve(r) -> None:
        if r.stable:
            return
        r.stable = True
        get = r.get or callbacks_of(r)
        r.effected.clear()
        total = eval_rhs(r, get, r.side)
        # Join the return value with all recorded side contributions.
        if track_contributions:
            if r.contribs:
                for d in r.contribs.values():
                    total = join(total, d)
        elif r.accumulated:
            # Classical accumulation keeps past side effects in the value
            # itself, so they must survive the combine with the own value.
            total = join(total, r.value)
        old = r.value
        # The localization: ⌴ at widening points, plain override
        # elsewhere -- a non-point simply tracks its right-hand side.
        new = total if localized and not r.wpoint else op(r.x, old, total)
        # The direction *before* this commit: a downward reversal is a
        # shrink whose predecessor move grew (False = grew).
        grew_before = restart and r.direction is False
        if commit(r, new):
            if grew_before and r.wpoint and not r.restarted and lat.leq(new, old):
                r.restarted = True
                eng.restart_region(r, requeue=True)
            else:
                destabilize(r)
        key = r.key
        while heap and heap[0][0] <= key:
            solve(dequeue())

    def callbacks_of(r):
        """Build ``r``'s lookup and side-effect callbacks for this run.

        One ``r.effected`` set, cleared before each evaluation, suffices:
        an unknown is never re-solved while its own right-hand side runs.
        """
        r.rhs = system.rhs(r.x)
        r.side = make_side(r)
        r.get = make_eval(r)
        return r.get

    def make_eval(r):
        """``eval x``: read known unknowns, solve fresh ones.

        SLR2 and SLR3 also detect widening points, and a fresh unknown
        gets a contributor set; under SLR+ it gets none.
        """
        key = r.key

        def eval_(y):
            target = records.get(y)
            if target is None:
                target = init(y, localized)
                solve(target)
            elif localized and (target.evaluating or target.key >= key):
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
                target.wpoint = True
            target.infl[r] = None
            return target.value

        return eval_

    def accumulate(target, d, fresh: bool) -> None:
        """Classical side-effect handling: fold ``d`` into the target."""
        if localized and not fresh:
            # An accumulated target only ever grows; without acceleration
            # a side-effect cycle through it would diverge.
            target.wpoint = True
        target.accumulated = True
        old = target.value
        joined = join(old, d)
        new = joined if localized and not target.wpoint else op(target.x, old, joined)
        if commit(target, new):
            if fresh:
                solve(target)
            else:
                destabilize(target)

    def make_side(r):
        effected = r.effected = set()

        def side(y, d) -> None:
            target = records.get(y)
            fresh = target is None
            if fresh:
                target = init(y)
            elif target is r:
                raise SideEffectError(
                    f"right-hand side of {r.x!r} side-effects itself"
                )
            elif target in effected:
                raise SideEffectError(
                    f"right-hand side of {r.x!r} side-effects {y!r} twice "
                    f"in one evaluation"
                )
            effected.add(target)
            if not track_contributions:
                accumulate(target, d, fresh)
                return
            contribs = target.contribs
            if fresh:
                contribs[r] = d
                solve(target)
                return
            # ``y`` may have been discovered through ``eval`` (which under
            # SLR+ gives it no contributor set), so default here.
            if contribs is None:
                contribs = target.contribs = {}
            changed = not equal(contribs.get(r, bottom), d)
            contribs[r] = d
            if changed:
                if localized:
                    # A changed re-contribution closes a cycle through the
                    # side effect (the ``infl`` recursion cannot see it);
                    # accelerate the target from now on.
                    target.wpoint = True
                target.stable = False
                enqueue((target,))

        return side

    def run() -> None:
        r0 = records.get(x0)
        if r0 is None:
            r0 = init(x0)
        enqueue(records[x] for x in seeds)
        solve(r0)
        # Drain any work the final evaluation may have left behind (side
        # effects can enqueue unknowns while the top-level value is stable).
        while heap:
            solve(dequeue())

    call_with_deep_stack(run)
    eng.finish()
    contribs, contributors = eng.contributions()
    fields = dict(
        sigma=eng.sigma.copy(),
        stats=eng.stats,
        infl=eng.infl.copy(),
        keys=eng.keys.copy(),
        contribs=contribs,
        contributors=contributors,
        accumulated=set(protect) | eng.flagged("accumulated"),
    )
    if localized:
        return RestartResult(
            **fields,
            wpoints=eng.flagged("wpoint"),
            restarted=eng.flagged("restarted"),
        )
    return SideResult(**fields)
