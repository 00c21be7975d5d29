"""The side-effecting local solver SLR+ (Section 6) -- the paper's flagship.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Optional, Set, Tuple

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
    op = eng.op  # the engine's per-run fresh instance
    lat = eng.lattice
    sigma, keys, dom, stable = eng.sigma, eng.keys, eng.dom, eng.stable
    contribs: Dict[Tuple[Hashable, Hashable], object] = {}
    contributors: Dict[Hashable, Set[Hashable]] = {}
    accumulated: set = set(protect) if protect else set()
    # Expose the side-effect bookkeeping for mid-run snapshots
    # (repro.incremental.state.capture_engine reads these).
    eng.aux.update(
        contribs=contribs, contributors=contributors, accumulated=accumulated
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
        own = eng.eval_rhs(x, get, thunk)
        # Join the return value with all recorded side contributions to x.
        total = own
        if track_contributions:
            for z in contributors.get(x, ()):
                total = lat.join(total, contribs[(z, x)])
        elif x in accumulated:
            # Classical accumulation keeps past side effects in sigma[x]
            # itself, so they must survive the combine with the own value.
            total = lat.join(total, sigma[x])
        if eng.commit(x, op(x, sigma[x], total)):
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
            eng.fresh_solving_eval(x, solve),
            effected,
            lambda get: rhs(get, side),
        )
        return entry

    def _side_accumulate(x, y, d) -> None:
        """Classical side-effect handling: fold ``d`` into the target."""
        fresh = y not in dom
        if fresh:
            init(y)
        accumulated.add(y)
        new = op(y, sigma[y], lat.join(sigma[y], d))
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
    return SideResult(
        sigma=sigma,
        stats=eng.stats,
        infl=eng.infl,
        keys=keys,
        contribs=contribs,
        contributors=contributors,
        accumulated=accumulated,
    )
