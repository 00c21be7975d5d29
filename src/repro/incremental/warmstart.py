"""Warm-started solving: resume SW, SLR, SLR+, SLR2 or SLR3 from a snapshot.

The idea follows directly from the structure of the paper's local solvers
(Fig. 6, Section 6): at termination every encountered unknown is *stable*
and the recorded influence sets describe exactly who reads whom.  After an
edit, therefore, it suffices to

1. restore ``sigma``/``infl``/``keys``/``stable`` into the records of a
   fresh :class:`~repro.solvers.engine.SolverEngine`,
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
from repro.solvers.registry import UnknownSolverError, get_solver, get_warm_start
from repro.solvers.slr import LocalResult, local_result, slr_solver
from repro.solvers.slr_side import SideResult, slr_loop
from repro.solvers.stats import SolverResult
from repro.solvers.sw import sw_iterate


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
    """Load a snapshot straight into a freshly constructed engine's
    records, contributions included."""
    records = eng.records
    for x, value in state.sigma.items():
        eng.load(x, value)
    for x, key in state.keys.items():
        records[x].key = key
    for x, influenced in state.infl.items():
        records[x].infl = {records[y]: None for y in influenced}
    for x in state.stable:
        records[x].stable = True
    for z in state.contributors:
        records[z].contribs = {}
    for (x, z), d in state.contribs.items():
        target = records[z]
        if target.contribs is None:
            target.contribs = {}
        target.contribs[records[x]] = d
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
    records = eng.records
    fresh = set()
    for x in xs:
        if x in state.sigma:
            eng.load(x, state.sigma[x])
        else:
            eng.load(x, system.init(x))
            fresh.add(x)
    eng.stats.unknowns = len(records)
    infl = system.infl()
    if closure == "transitive":
        seeds = influence_closure(
            {x for x in dirty if x in key} | fresh, infl
        )
    else:
        seeds = ({x for x in dirty if x in key} | fresh)
    if reset == "destabilized":
        for x in seeds:
            records[x].value = system.init(x)
    queue = eng.make_queue(key.__getitem__)
    for x in sorted(seeds, key=key.__getitem__):
        queue.add(x)
    sw_iterate(eng, op, queue, infl)
    eng.finish(unknowns=len(records))
    return SolverResult(eng.sigma.copy(), eng.stats)


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
    _restore_engine(eng, state)
    records = eng.records
    solve = slr_solver(eng)
    seeds = _seeds(state, dirty, closure)
    for x in seeds:
        records[x].stable = False
        if reset == "destabilized":
            records[x].value = system.init(x)

    def run() -> None:
        r0 = records.get(x0) or eng.init_unknown(x0)
        eng.enqueue(records[x] for x in seeds)
        solve(r0)
        while eng.heap:
            solve(eng.dequeue())

    call_with_deep_stack(run)
    eng.finish()
    return local_result(eng)


# --------------------------------------------------------------------- #
# SLR+, SLR2 and SLR3.                                                  #
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
    """Warm-started SLR+, SLR2 or SLR3 from a restored snapshot.

    The snapshot's solver (``state.solver``) is the mode the side-effecting
    SLR loop (:func:`~repro.solvers.slr_side.slr_loop`) resumes in, so a
    snapshot always resumes the solver that took it.

    Contributions whose origin is dirty are dropped before iteration: the
    origin's new right-hand side re-establishes whatever side effects it
    still performs, and since the cleared slot reads as bottom, any
    re-contribution registers as a change and destabilizes the target.
    (An origin that stops contributing leaves the target at its old,
    larger value -- sound, and the same no-retraction treatment the
    solver applies within a single run.)  Contributions from clean
    origins are restored, so a destabilized target re-joins them without
    re-running their origins.  See :func:`warm_solve_slr` for ``reset``.

    SLR2 and SLR3 resume with the widening points of ``state.wpoints``
    and still detect new ones during the warm run; SLR3's restart budget
    does not carry over from the original run.
    """
    mode = get_solver(state.solver).name
    _check_reset(reset, closure)
    eng = SolverEngine(system, op, max_evals=max_evals, observers=observers)
    _restore_engine(eng, state)
    records = eng.records
    eng.drop_contributions({records[x] for x in dirty if x in eng.dom})
    seeds = _seeds(state, dirty, closure, state.contribs)
    for x in seeds:
        records[x].stable = False
    if reset == "destabilized":
        for x in seeds:
            records[x].value = system.init(x)
        # Every seed origin re-runs from its initial value and
        # re-establishes its side effects; its stored contributions are
        # stale by definition and would re-enter reset targets through
        # the join below.  Dropping them is sound because the transitive
        # closure also reset every target they fed.
        eng.drop_contributions({records[x] for x in seeds})
    return slr_loop(
        eng,
        x0,
        mode,
        track_contributions,
        accumulated=state.accumulated,
        wpoints=state.wpoints,
        seeds=seeds,
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
    """Dispatch a warm start on the solver recorded in the snapshot.

    The strategy comes from the registry's warm-start table
    (:func:`~repro.solvers.registry.get_warm_start`); ``x0`` goes to
    local solvers only.

    :raises ValueError: when the solver is unknown or has no warm start.
    """
    try:
        spec = get_solver(state.solver)
    except UnknownSolverError as err:
        raise ValueError(
            f"no warm-start strategy for solver {state.solver!r}"
        ) from err
    warm = get_warm_start(spec.name)
    if spec.scope == "local":
        return warm(system, op, x0, state, dirty, **kwargs)
    return warm(system, op, state, dirty, **kwargs)
