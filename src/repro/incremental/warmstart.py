"""Warm-started solving: resume SW/SLR/SLR+ from a restored state.

The idea follows directly from the structure of the paper's local solvers
(Fig. 6, Section 6): at termination every encountered unknown is *stable*
and the recorded influence sets describe exactly who reads whom.  After an
edit, therefore, it suffices to

1. restore ``sigma``/``infl``/``keys``/``stable`` into a fresh
   :class:`~repro.solvers.engine.SolverEngine`,
2. *destabilize* the unknowns whose right-hand side changed (the *dirty*
   set) plus their transitive influence closure
   (:func:`influence_closure`), and
3. resume priority-queue iteration until quiescence.

Because the engine resets the update operator at construction, every
destabilized unknown re-enters ⌴-iteration with **fresh widening state**
-- exactly the condition under which the combined operator's termination
arguments (Theorems 2-4) apply to the re-solve, even though the edit may
have moved values non-monotonically in either direction.

Soundness of the resumed solution rests on the paper's partial
post-solution invariant: an unknown that stays stable throughout the warm
run satisfies ``sigma[x] ⊒ f_x(sigma)`` *before* the run (it did at the
previous quiescence) and keeps satisfying it, since neither its
right-hand side (it is not dirty) nor the values it reads (all its
dependencies that change get destabilized through the influence edges,
and a change of a non-destabilized unknown destabilizes its readers via
the engine as usual) moved under it.

Dirty-set contract: the caller must include **every** unknown whose
right-hand-side function differs between the two system versions; new
unknowns need no entry (local solvers discover them through ``eval``, SW
treats unknowns without restored values as dirty).  For SLR+, the stored
contributions whose *origin* is dirty are cleared, so a re-run origin
re-establishes (or drops) them from scratch; targets are destabilized by
the solver when the re-contribution differs, which mirrors the solver's
own no-retraction treatment of side effects within a single run.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Sequence, Set, Tuple

from repro.incremental.state import SolverState
from repro.solvers._deepcall import call_with_deep_stack
from repro.solvers.combine import Combine
from repro.solvers.engine import SolverEngine
from repro.solvers.slr import LocalResult
from repro.solvers.slr_side import SideEffectError, SideResult
from repro.solvers.stats import SolverResult


def influence_closure(
    dirty: Iterable[Hashable],
    infl: Dict[Hashable, Set[Hashable]],
    contribs: Iterable[Tuple[Hashable, Hashable]] = (),
) -> Set[Hashable]:
    """Transitive closure of ``dirty`` under recorded influence edges.

    Edges are ``x -> infl[x]`` (the readers of ``x``) plus, when SLR+
    contribution pairs are supplied, ``x -> z`` for every stored
    contribution ``(x, z)`` -- a side effect is an influence the ``infl``
    sets do not record.
    """
    extra: Dict[Hashable, Set[Hashable]] = {}
    for x, z in contribs:
        extra.setdefault(x, set()).add(z)
    seen: Set[Hashable] = set()
    work = list(dirty)
    while work:
        x = work.pop()
        if x in seen:
            continue
        seen.add(x)
        work.extend(y for y in infl.get(x, ()) if y not in seen)
        work.extend(y for y in extra.get(x, ()) if y not in seen)
    return seen


def _restore_engine(eng: SolverEngine, state: SolverState) -> None:
    """Load a snapshot into a freshly constructed engine."""
    eng.sigma.update(state.sigma)
    eng.dom.update(state.dom)
    eng.keys.update(state.keys)
    for x, influenced in state.infl.items():
        eng.infl[x] = set(influenced)
    eng.stable.update(state.stable)
    eng._counter = state.counter


def _seeds(
    state: SolverState,
    dirty: Iterable[Hashable],
    closure: str,
    contribs: Iterable[Tuple[Hashable, Hashable]] = (),
) -> Set[Hashable]:
    """The unknowns to destabilize at warm-start time."""
    if closure not in ("transitive", "direct"):
        raise ValueError(f"closure must be 'transitive' or 'direct', got {closure!r}")
    dirty_known = {x for x in dirty if x in state.dom}
    if closure == "direct":
        return dirty_known
    return influence_closure(dirty_known, state.infl, contribs)


def _check_reset(reset: str, closure: str) -> None:
    if reset not in ("none", "destabilized"):
        raise ValueError(f"reset must be 'none' or 'destabilized', got {reset!r}")
    if reset == "destabilized" and closure != "transitive":
        # Resetting is only sound when every (transitive) reader of a
        # reset unknown is itself destabilized -- which is exactly what
        # the transitive closure guarantees.
        raise ValueError("reset='destabilized' requires closure='transitive'")


# --------------------------------------------------------------------- #
# SW.                                                                   #
# --------------------------------------------------------------------- #

def warm_solve_sw(
    system,
    op: Combine,
    state: SolverState,
    dirty: Iterable[Hashable],
    order: Optional[Sequence] = None,
    max_evals: Optional[int] = None,
    *,
    observers=(),
    memoize: bool = False,
    closure: str = "transitive",
    reset: str = "none",
) -> SolverResult:
    """Warm-started structured worklist iteration over a finite system.

    ``sigma`` is seeded from the snapshot where the snapshot covers the
    (new) unknown set; unknowns without a restored value are initialised
    fresh and treated as dirty.  Only the destabilized unknowns enter the
    initial queue -- a change during re-iteration propagates through the
    system's static influence map exactly as in a cold SW run.

    With ``reset='destabilized'`` the destabilized unknowns restart from
    their initial values instead of their stale ones; see
    :func:`warm_solve_slr` for the trade-off.
    """
    if closure not in ("transitive", "direct"):
        raise ValueError(f"closure must be 'transitive' or 'direct', got {closure!r}")
    _check_reset(reset, closure)
    eng = SolverEngine(
        system, op, max_evals=max_evals, observers=observers, memoize=memoize
    )
    op = eng.op  # the engine's per-run fresh instance
    xs = list(order) if order is not None else list(system.unknowns)
    key = {x: i for i, x in enumerate(xs)}
    sigma = eng.sigma
    fresh = set()
    for x in xs:
        if x in state.sigma:
            sigma[x] = state.sigma[x]
        else:
            sigma[x] = system.init(x)
            fresh.add(x)
    eng.stats.unknowns = len(sigma)
    infl = system.infl()
    if closure == "transitive":
        seeds = influence_closure(
            {x for x in dirty if x in key} | fresh, infl
        )
    else:
        seeds = ({x for x in dirty if x in key} | fresh)
    if reset == "destabilized":
        for x in seeds:
            sigma[x] = system.init(x)
    queue = eng.make_queue(key.__getitem__)
    for x in sorted(seeds, key=key.__getitem__):
        queue.add(x)

    def get(y):
        return sigma[y]

    while queue:
        x = queue.extract_min()
        old = sigma[x]
        if eng.commit(x, op(x, old, eng.eval_rhs(x, get))):
            work = infl.get(x, [x])
            queue.add(x)
            for z in work:
                queue.add(z)
            eng.bus.emit_destabilize(x, work)
    eng.finish(unknowns=len(sigma))
    return SolverResult(sigma, eng.stats)


# --------------------------------------------------------------------- #
# SLR.                                                                  #
# --------------------------------------------------------------------- #

def warm_solve_slr(
    system,
    op: Combine,
    x0: Hashable,
    state: SolverState,
    dirty: Iterable[Hashable],
    max_evals: Optional[int] = None,
    *,
    observers=(),
    memoize: bool = False,
    closure: str = "transitive",
    reset: str = "none",
) -> LocalResult:
    """Warm-started SLR from a restored snapshot.

    The restored priority keys order the work exactly as the discovery
    order of the original run did; unknowns discovered during the warm
    run (reachable only through edited right-hand sides) continue the key
    sequence below the restored minimum.

    ``reset`` picks what the destabilized unknowns resume *from*:

    * ``'none'`` (default) -- their stale values.  Fewest re-evaluations,
      but finite stale bounds survive (narrowing only improves infinite
      ones), so the result can be less precise than from-scratch.
    * ``'destabilized'`` -- their initial values, recomputed by a fresh
      ⌴-iteration against the untouched fringe.  Matches from-scratch
      precision at the cost of re-iterating the destabilized region; only
      sound with the transitive closure, which guarantees that every
      reader of a reset unknown is itself reset.
    """
    _check_reset(reset, closure)
    eng = SolverEngine(
        system, op, max_evals=max_evals, observers=observers, memoize=memoize
    )
    op = eng.op  # the engine's per-run fresh instance
    _restore_engine(eng, state)
    sigma, keys = eng.sigma, eng.keys
    queue = eng.make_queue(lambda x: keys[x])

    def solve(x) -> None:
        if x in eng.stable:
            return
        eng.stable.add(x)
        old = sigma[x]
        tmp = op(x, old, eng.eval_rhs(x, eng.fresh_solving_eval(x, solve)))
        if eng.commit(x, tmp):
            eng.destabilize(x, queue)
        while queue and queue.min_key() <= keys[x]:
            solve(queue.extract_min())

    seeds = _seeds(state, dirty, closure)
    eng.stable.difference_update(seeds)
    if reset == "destabilized":
        for x in seeds:
            sigma[x] = system.init(x)

    def run() -> None:
        if x0 not in eng.dom:
            eng.init_unknown(x0)
        for x in seeds:
            queue.add(x)
        solve(x0)
        while queue:
            solve(queue.extract_min())

    call_with_deep_stack(run)
    eng.finish()
    return LocalResult(sigma=sigma, stats=eng.stats, infl=eng.infl, keys=keys)


# --------------------------------------------------------------------- #
# SLR+.                                                                 #
# --------------------------------------------------------------------- #

def warm_solve_slr_side(
    system,
    op: Combine,
    x0: Hashable,
    state: SolverState,
    dirty: Iterable[Hashable],
    max_evals: Optional[int] = None,
    track_contributions: bool = True,
    *,
    observers=(),
    closure: str = "transitive",
    reset: str = "none",
) -> SideResult:
    """Warm-started SLR+ from a restored snapshot.

    Contributions whose origin is dirty are dropped before iteration: the
    origin's new right-hand side re-establishes whatever side effects it
    still performs, and since the cleared slot reads as bottom, any
    re-contribution registers as a change and destabilizes the target.
    (An origin that stops contributing leaves the target at its old,
    larger value -- sound, and the same no-retraction treatment the
    solver applies within a single run.)  Contributions from clean
    origins are restored, so a destabilized target re-joins them without
    re-running their origins.  See :func:`warm_solve_slr` for ``reset``.
    """
    _check_reset(reset, closure)
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    op = eng.op  # the engine's per-run fresh instance
    _restore_engine(eng, state)
    lat = eng.lattice
    sigma, keys, dom, stable = eng.sigma, eng.keys, eng.dom, eng.stable
    contribs: Dict[Tuple[Hashable, Hashable], object] = dict(state.contribs)
    contributors: Dict[Hashable, Set[Hashable]] = {
        z: set(s) for z, s in state.contributors.items()
    }
    accumulated: set = set(state.accumulated)
    eng.aux.update(
        contribs=contribs, contributors=contributors, accumulated=accumulated
    )
    queue = eng.make_queue(keys.__getitem__)

    dirty_known = {x for x in dirty if x in dom}
    for pair in [p for p in contribs if p[0] in dirty_known]:
        del contribs[pair]
        contributors.get(pair[1], set()).discard(pair[0])
    heap = queue.heap
    #: Per-unknown ``(eval, effected, thunk)``, as in SLR+.
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
        total = own
        if track_contributions:
            for z in contributors.get(x, ()):
                total = lat.join(total, contribs[(z, x)])
        elif x in accumulated:
            total = lat.join(total, sigma[x])
        if eng.commit(x, op(x, sigma[x], total)):
            eng.destabilize(x, queue)
        key = keys[x]
        while heap and heap[0][0] <= key:
            solve(queue.extract_min())

    def callbacks_of(x) -> tuple:
        rhs = system.rhs(x)
        side, effected = make_side(x)
        entry = callbacks[x] = (
            eng.fresh_solving_eval(x, solve),
            effected,
            lambda get: rhs(get, side),
        )
        return entry

    def _side_accumulate(x, y, d) -> None:
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
                contributors.setdefault(y, set()).add(x)
                if changed:
                    destabilize_and_queue(y)

        return side, effected

    seeds = _seeds(state, dirty, closure, state.contribs)
    stable.difference_update(seeds)
    if reset == "destabilized":
        for x in seeds:
            sigma[x] = system.init(x)
        # Every seed origin re-runs from its initial value and
        # re-establishes its side effects; its stored contributions are
        # stale by definition and would re-enter reset targets through
        # the join below.  Dropping them is sound because the transitive
        # closure also reset every target they fed.
        for pair in [p for p in contribs if p[0] in seeds]:
            del contribs[pair]
            contributors.get(pair[1], set()).discard(pair[0])

    def run() -> None:
        if x0 not in dom:
            init(x0)
        for x in seeds:
            queue.add(x)
        solve(x0)
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


# --------------------------------------------------------------------- #
# SLR2 / SLR3.                                                          #
# --------------------------------------------------------------------- #

def warm_solve_slr_restart(
    system,
    op: Combine,
    x0: Hashable,
    state: SolverState,
    dirty: Iterable[Hashable],
    max_evals: Optional[int] = None,
    track_contributions: bool = True,
    *,
    observers=(),
    closure: str = "transitive",
    reset: str = "none",
    restart: bool = True,
):
    """Warm-started SLR2/SLR3 from a restored snapshot.

    Identical to :func:`warm_solve_slr_side` in its treatment of dirty
    origins and contributions, except that the localized discipline of
    the restarting family applies: the combined operator fires only at
    the widening points restored from ``state.wpoints`` (new points are
    still detected dynamically during the warm run), and with
    ``restart=True`` (SLR3) a downward reversal at a point restarts its
    dependent region afresh -- the restart budget does not carry over
    from the original run.
    """
    from repro.solvers.slr_restart import RestartResult

    _check_reset(reset, closure)
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    op = eng.op  # the engine's per-run fresh instance
    _restore_engine(eng, state)
    lat = eng.lattice
    sigma, keys, dom, stable = eng.sigma, eng.keys, eng.dom, eng.stable
    infl = eng.infl
    contribs: Dict[Tuple[Hashable, Hashable], object] = dict(state.contribs)
    contributors: Dict[Hashable, Set[Hashable]] = {
        z: set(s) for z, s in state.contributors.items()
    }
    accumulated: set = set(state.accumulated)
    wpoints: Set[Hashable] = set(state.wpoints)
    restarted: Set[Hashable] = set()
    evaluating: Set[Hashable] = set()
    eng.aux.update(
        contribs=contribs,
        contributors=contributors,
        accumulated=accumulated,
        wpoints=wpoints,
    )
    queue = eng.make_queue(keys.__getitem__)

    dirty_known = {x for x in dirty if x in dom}
    for pair in [p for p in contribs if p[0] in dirty_known]:
        del contribs[pair]
        contributors.get(pair[1], set()).discard(pair[0])
    heap = queue.heap
    #: Per-unknown ``(eval, effected, thunk)``, as in SLR2/SLR3.
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
        new = op(x, old, total) if x in wpoints else total
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
                # In-flight lookup or access against priority order:
                # ``y`` heads a cycle (see repro.solvers.slr_restart).
                wpoints.add(y)
            infl[y].add(x)
            return sigma[y]

        return eval_

    def _side_accumulate(x, y, d) -> None:
        fresh = y not in dom
        if fresh:
            init(y)
        else:
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
                    wpoints.add(y)
                    destabilize_and_queue(y)

        return side, effected

    seeds = _seeds(state, dirty, closure, state.contribs)
    stable.difference_update(seeds)
    if reset == "destabilized":
        for x in seeds:
            sigma[x] = system.init(x)
        # Same soundness argument as warm_solve_slr_side: the transitive
        # closure reset every target a dropped contribution fed.
        for pair in [p for p in contribs if p[0] in seeds]:
            del contribs[pair]
            contributors.get(pair[1], set()).discard(pair[0])

    def run() -> None:
        if x0 not in dom:
            init(x0)
        for x in seeds:
            queue.add(x)
        solve(x0)
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


def warm_solve_slr2(system, op, x0, state, dirty, **kwargs):
    """Warm-started SLR2 (localized, non-restarting); see
    :func:`warm_solve_slr_restart`."""
    return warm_solve_slr_restart(
        system, op, x0, state, dirty, restart=False, **kwargs
    )


def warm_solve_slr3(system, op, x0, state, dirty, **kwargs):
    """Warm-started SLR3 (localized, restarting); see
    :func:`warm_solve_slr_restart`."""
    return warm_solve_slr_restart(
        system, op, x0, state, dirty, restart=True, **kwargs
    )


# --------------------------------------------------------------------- #
# Dispatch.                                                             #
# --------------------------------------------------------------------- #

def warm_solve(
    system,
    op: Combine,
    state: SolverState,
    dirty: Iterable[Hashable],
    x0: Hashable = None,
    **kwargs,
):
    """Dispatch a warm start on the solver recorded in the snapshot."""
    name = state.solver
    if name == "sw":
        return warm_solve_sw(system, op, state, dirty, **kwargs)
    if name == "slr":
        return warm_solve_slr(system, op, x0, state, dirty, **kwargs)
    if name in ("slr+", "slr-side", "slrside"):
        return warm_solve_slr_side(system, op, x0, state, dirty, **kwargs)
    if name in ("slr2", "slr-localized"):
        return warm_solve_slr2(system, op, x0, state, dirty, **kwargs)
    if name in ("slr3", "slr-restart"):
        return warm_solve_slr3(system, op, x0, state, dirty, **kwargs)
    raise ValueError(f"no warm-start strategy for solver {name!r}")
