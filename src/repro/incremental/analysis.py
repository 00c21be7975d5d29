"""Incremental interprocedural analysis: diff, transfer, warm re-solve.

This module glues the pieces of the incremental subsystem together for
the mini-C analyses:

1. :func:`analyze_and_snapshot` runs the ordinary interprocedural
   analysis and captures its solver state;
2. :func:`reanalyze_program` diffs the old and new CFGs
   (:func:`repro.lang.diff.diff_cfg`), transfers the snapshot across the
   node matching, derives the dirty unknowns, and resumes the snapshot's
   solver (SLR+, SLR2 or SLR3) warm;
3. :func:`check_post_solution` / :func:`check_post_solution_pure`
   independently re-verify that a (warm or cold) solution is a partial
   post solution -- ``sigma[x] ⊒ f_x(sigma)`` joined with all recorded
   side contributions -- which is the paper's soundness notion for
   ⌴-solutions (Theorem 4).

The dirty-unknown derivation mirrors the equation structure of
:class:`repro.analysis.inter.InterAnalysis`: a ``PP(fn, ctx, v)`` unknown
is dirty exactly when the diff marks ``v`` dirty (its in-edge equation
changed), and the program entry point is additionally dirty when a global
initialiser changed, because its right-hand side performs the seeding
side effects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set

from repro.analysis.compare import PrecisionComparison, compare_results
from repro.analysis.inter import (
    GV,
    PP,
    AnalysisResult,
    ContextPolicy,
    InterAnalysis,
    _collect,
    analyze_program,
)
from repro.incremental.state import SolverState, capture
from repro.incremental.warmstart import warm_solve_slr_side
from repro.lang.cfg import ControlFlowGraph
from repro.lang.diff import CfgDiff, diff_cfg
from repro.solvers.combine import Combine, WarrowCombine


# --------------------------------------------------------------------- #
# Post-solution checking.                                               #
# --------------------------------------------------------------------- #

@dataclass
class PostViolation:
    """One unknown whose value fails the post-solution inequality."""

    unknown: Hashable
    actual: object
    required: object

    def __repr__(self) -> str:
        return (
            f"PostViolation({self.unknown!r}: {self.actual!r} "
            f"!⊒ {self.required!r})"
        )


def check_post_solution_pure(system, sigma) -> List[PostViolation]:
    """Check ``sigma[x] ⊒ f_x(sigma)`` for every unknown of ``sigma``.

    Unknowns read outside ``sigma`` evaluate to their initial value; for
    a solver-produced solution the domain is closed under dependencies,
    so this never weakens the check.
    """
    lat = system.lattice

    def get(y):
        return sigma[y] if y in sigma else system.init(y)

    violations = []
    for x in sigma:
        required = system.rhs(x)(get)
        if not lat.leq(required, sigma[x]):
            violations.append(PostViolation(x, sigma[x], required))
    return violations


def check_post_solution(system, sigma) -> List[PostViolation]:
    """Post-solution check for a side-effecting system.

    Every right-hand side is evaluated once against ``sigma``; the side
    effects of *all* evaluations are collected and joined per target, and
    each unknown must dominate its own value joined with the collected
    contributions -- the defining inequality of the paper's side-effecting
    post solutions (Section 6).
    """
    lat = system.lattice

    def get(y):
        return sigma[y] if y in sigma else system.init(y)

    own: Dict[Hashable, object] = {}
    contributions: Dict[Hashable, object] = {}
    for x in sigma:

        def side(z, d):
            contributions[z] = lat.join(contributions.get(z, lat.bottom), d)

        own[x] = system.rhs(x)(get, side)
    violations = []
    for x in sigma:
        required = lat.join(own[x], contributions.get(x, lat.bottom))
        if not lat.leq(required, sigma[x]):
            violations.append(PostViolation(x, sigma[x], required))
    return violations


# --------------------------------------------------------------------- #
# Equation-system diffing (for the toy/random systems).                 #
# --------------------------------------------------------------------- #

def diff_finite_systems(old, new) -> Set[Hashable]:
    """Dirty set between two versions of a finite system.

    An unknown is dirty when its right-hand side *callable* is a
    different object or its static dependency list changed; unknowns
    only present in the new version are dirty by definition.  Building
    the edited version by copying the equation dict and replacing the
    changed entries -- the natural way to express an edit -- therefore
    yields exactly the edited unknowns.
    """
    dirty: Set[Hashable] = set()
    old_unknowns = set(old.unknowns)
    for x in new.unknowns:
        if x not in old_unknowns:
            dirty.add(x)
        elif old.rhs(x) is not new.rhs(x) or list(old.deps(x)) != list(
            new.deps(x)
        ):
            dirty.add(x)
    return dirty


# --------------------------------------------------------------------- #
# Program-level incremental analysis.                                   #
# --------------------------------------------------------------------- #

def analyze_and_snapshot(
    cfg: ControlFlowGraph,
    domain,
    policy: Optional[ContextPolicy] = None,
    entry_fn: str = "main",
    max_evals: Optional[int] = None,
    widen_delay: int = 1,
    op_spec: Optional[str] = None,
):
    """Cold analysis plus a resumable snapshot of its solver state.

    :param op_spec: optional combine-strategy spec (see
        :mod:`repro.strategies`) driving the cold solve; the default is
        the combined operator.  Phased specs are rejected -- the
        snapshot must come from a single resumable solver pass.
    :returns: ``(AnalysisResult, SolverState)``.
    """
    result = analyze_program(
        cfg,
        domain,
        policy=policy,
        entry_fn=entry_fn,
        max_evals=max_evals,
        widen_delay=widen_delay,
        solver="slr+",
        op_spec=op_spec,
    )
    return result, capture(result.solver_result, "slr+")


@dataclass
class IncrementalReport:
    """Outcome of one warm re-analysis after a program edit."""

    #: The warm-started analysis of the new program version.
    result: AnalysisResult
    #: The CFG diff the destabilization was derived from.
    diff: CfgDiff
    #: The dirty unknowns (changed right-hand sides) that seeded it.
    dirty: Set[Hashable] = field(default_factory=set)
    #: How many unknowns of the snapshot survived the transfer.
    transferred: int = 0
    #: Snapshot of the warm run, for chaining further edits.
    state: Optional[SolverState] = None
    #: Post-solution violations of the warm solution (must be empty).
    violations: List[PostViolation] = field(default_factory=list)
    #: Per-point precision of warm vs from-scratch, when requested.
    precision: Optional[PrecisionComparison] = None
    #: The from-scratch result, when requested.
    scratch: Optional[AnalysisResult] = None

    @property
    def warm_evaluations(self) -> int:
        return self.result.solver_result.stats.evaluations

    @property
    def scratch_evaluations(self) -> Optional[int]:
        if self.scratch is None:
            return None
        return self.scratch.solver_result.stats.evaluations

    @property
    def sound(self) -> bool:
        return not self.violations


def transfer_state(
    state: SolverState,
    diff: CfgDiff,
    new_cfg: ControlFlowGraph,
    entry_fn: str = "main",
):
    """Carry a snapshot across a CFG diff.

    :returns: ``(transferred_state, dirty_unknowns)`` in new-version
        terms.  Program points of dropped functions and deleted nodes are
        pruned; the dirty set contains every transferred ``PP`` whose
        node the diff marks dirty, plus the program entry when a global
        initialiser changed (its equation performs the seeding).
    """
    new_globals = set(new_cfg.global_scalars) | set(new_cfg.global_arrays)

    def rename(u):
        if isinstance(u, PP):
            if u.fn in diff.dropped_functions or u.fn not in new_cfg.functions:
                return None
            node = diff.node_map.get(u.node)
            if node is None:
                return None
            return PP(u.fn, u.ctx, node)
        if isinstance(u, GV):
            return u if u.name in new_globals else None
        return None

    transferred = state.transfer(rename)
    dirty: Set[Hashable] = {
        u
        for u in transferred.dom
        if isinstance(u, PP) and u.node in diff.dirty_nodes
    }
    # A contribution whose origin did not survive the transfer is gone
    # from the restored state, but its value is still folded into the
    # target: the target's effective inputs changed, so it is dirty.
    for x, z in state.contribs:
        if rename(x) is None:
            zn = rename(z)
            if zn is not None and zn in transferred.dom:
                dirty.add(zn)
    if diff.changed_globals and entry_fn in new_cfg.functions:
        entry_node = new_cfg.functions[entry_fn].entry
        dirty.update(
            u
            for u in transferred.dom
            if isinstance(u, PP) and u.fn == entry_fn and u.node == entry_node
        )
    return transferred, dirty


def reanalyze_program(
    old_cfg: ControlFlowGraph,
    new_cfg: ControlFlowGraph,
    state: SolverState,
    domain,
    policy: Optional[ContextPolicy] = None,
    op: Optional[Combine] = None,
    entry_fn: str = "main",
    max_evals: Optional[int] = None,
    widen_delay: int = 1,
    closure: str = "transitive",
    reset: str = "none",
    compare_scratch: bool = False,
    op_spec: Optional[str] = None,
) -> IncrementalReport:
    """Warm re-analysis of ``new_cfg`` from a snapshot taken on ``old_cfg``.

    The snapshot must come from an SLR+, SLR2 or SLR3 run with the *same*
    domain, policy and entry function (e.g. via
    :func:`analyze_and_snapshot`); that solver resumes it.
    The update operator may be given directly (``op``) or as a strategy
    spec string (``op_spec``, resolved against the new program's
    analysis lattice and CFG); the warm re-solve and the optional
    from-scratch comparison run the same strategy, so the comparison
    isolates warm-starting, not the operator.
    With ``compare_scratch`` the new version is additionally analysed
    from scratch and the report carries the per-point precision
    comparison -- the correctness bar of the paper's robustness claim for
    ⌴-iteration under non-monotonic restarts.  ``reset='destabilized'``
    trades re-evaluations of the destabilized region for from-scratch
    precision (see :func:`repro.incremental.warmstart.warm_solve_slr`).
    """
    if op is not None and op_spec is not None:
        raise ValueError("pass either op or op_spec, not both")
    diff = diff_cfg(old_cfg, new_cfg)
    analysis = InterAnalysis(new_cfg, domain, policy, entry_fn)
    if op_spec is not None:
        from repro.strategies.registry import BuildContext, build_combine

        op = build_combine(
            op_spec,
            analysis.lattice,
            ctx=BuildContext(cfg=new_cfg),
            widen_delay=widen_delay,
        )
    if op is None:
        op = WarrowCombine(analysis.lattice, delay=widen_delay)
    transferred, dirty = transfer_state(state, diff, new_cfg, entry_fn)
    system = analysis.system()
    solver_result = warm_solve_slr_side(
        system,
        op,
        analysis.root(),
        transferred,
        dirty,
        max_evals=max_evals,
        closure=closure,
        reset=reset,
    )
    report = IncrementalReport(
        result=_collect(analysis, solver_result),
        diff=diff,
        dirty=dirty,
        transferred=len(transferred.dom),
        state=capture(solver_result, state.solver),
        violations=check_post_solution(system, solver_result.sigma),
    )
    if compare_scratch:
        scratch = analyze_program(
            new_cfg,
            domain,
            policy=policy,
            entry_fn=entry_fn,
            max_evals=max_evals,
            widen_delay=widen_delay,
            solver=state.solver,
            op_spec=op_spec,
        )
        report.scratch = scratch
        report.precision = compare_results(report.result, scratch)
    return report
