"""Intraprocedural flow-sensitive analysis of a single function.

Program points become the unknowns of a finite equation system: for every
node ``v``, ``env(v) = join over incoming edges (u, instr, v) of
transfer(instr)(env(u))``, with the entry node pinned to the initial
environment.  Globals are folded *into* the local state (flow-sensitive),
which is sound exactly because the analysed function performs no calls --
the builder rejects call edges.

This is the workhorse of the solver-precision unit tests; the paper-scale
experiments use the interprocedural analysis in
:mod:`repro.analysis.inter`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.transfer import (
    GlobalsAccess,
    TransferContext,
    TransferError,
    apply_instr,
)
from repro.analysis.values import NumericDomain
from repro.eqs.system import DictSystem
from repro.lang.cfg import CallInstr, ControlFlowGraph, Node
from repro.lattices.lifted import Lifted, LiftedBottom
from repro.lattices.envlat import ArrayEnv, ArrayEnvLattice
from repro.solvers import Combine, SolverResult, WarrowCombine
from repro.solvers.ordering import dfs_priority_order
from repro.solvers.registry import resolve_solver


@dataclass
class IntraResult:
    """Result of an intraprocedural analysis."""

    envs: Dict[Node, object]
    solver_result: SolverResult
    system: DictSystem
    env_lattice: Lifted

    def env_at(self, node: Node):
        """The abstract state at ``node`` (``LiftedBottom`` if unreachable).

        Unreachable program points come in two shapes and both answer
        bottom: nodes the solver visited and mapped to ``LiftedBottom``,
        and unknowns a demand-driven solver never evaluated at all (so
        they have no ``envs`` entry, but are still points of the
        system).  A node that is *not* an unknown of the analysed system
        -- a node of some other function, or a stale reference after
        recompilation -- is a caller bug, and claiming "unreachable" for
        it would silently mask that; it raises :class:`KeyError` naming
        the node instead.
        """
        try:
            return self.envs[node]
        except KeyError:
            pass
        if node in set(self.system.unknowns):
            return LiftedBottom
        raise KeyError(
            f"node {node!r} is not a program point of the analysed system"
        )


def build_intra_system(
    cfg: ControlFlowGraph,
    fn_name: str,
    domain: NumericDomain,
    entry_env: Optional[ArrayEnv] = None,
) -> tuple:
    """Build the finite equation system of one call-free function.

    :returns: ``(system, env_lattice, fn)``.
    """
    fn = cfg.functions[fn_name]
    for edge in fn.edges:
        if isinstance(edge.instr, CallInstr):
            raise TransferError(
                f"{fn_name!r} performs calls; use the interprocedural "
                f"analysis instead"
            )
    scalars = set(fn.locals) | set(cfg.global_scalars)
    arrays = set(fn.arrays) | set(cfg.global_arrays)
    keys = sorted(scalars) + sorted(arrays)
    env_lat = Lifted(ArrayEnvLattice(keys, domain))

    def fail_global(name: str):
        raise TransferError(f"unexpected global access {name!r}")

    tc = TransferContext(
        domain=domain,
        scalars=frozenset(scalars),
        arrays=frozenset(arrays),
        globals=GlobalsAccess(read=fail_global, write=fail_global),
    )

    if entry_env is None:
        bindings = {k: domain.from_const(0) for k in keys}
        for g, init in cfg.global_scalars.items():
            bindings[g] = domain.from_const(init)
        for p in fn.params:
            bindings[p] = domain.top
        entry_env = env_lat.inner.make(bindings)

    equations = {}
    for node in fn.nodes:
        if node == fn.entry:
            equations[node] = ((lambda get: entry_env), [])
            continue
        in_edges = fn.in_edges(node)

        def rhs(get, in_edges=tuple(in_edges)):
            total = LiftedBottom
            for edge in in_edges:
                out = apply_instr(tc, get(edge.src), edge.instr)
                total = env_lat.join(total, out)
            return total

        equations[node] = (rhs, [edge.src for edge in in_edges])
    system = DictSystem(env_lat, equations)
    return system, env_lat, fn


def analyze_function(
    cfg: ControlFlowGraph,
    fn_name: str,
    domain: NumericDomain,
    op: Optional[Combine] = None,
    solve="sw",
    entry_env: Optional[ArrayEnv] = None,
    max_evals: Optional[int] = None,
) -> IntraResult:
    """Analyse one call-free function flow-sensitively.

    :param cfg: the program's control-flow graphs.
    :param fn_name: the function to analyse.
    :param domain: the numeric value domain (e.g. :class:`IntervalDomain`).
    :param op: the update operator (default: the combined operator).
    :param solve: a generic solver taking ``(system, op, order, max_evals)``
        -- either a callable or a registry name such as ``"sw"``.
    :param entry_env: the abstract state at function entry (default: all
        locals 0, parameters unconstrained, globals at their initialisers).
    :param max_evals: evaluation budget.
    """
    solve = resolve_solver(solve, scope="global", generic=True)
    system, env_lat, fn = build_intra_system(cfg, fn_name, domain, entry_env)
    if op is None:
        op = WarrowCombine(env_lat)
    # The reversed-DFS order (deepest program points first, as SLR's keys
    # induce dynamically) lets the combined operator narrow a loop only
    # after its body has caught up; a heads-first order can trigger
    # premature narrowing and a slow widen/narrow ping-pong.
    order = dfs_priority_order([fn.exit], system.deps)
    result = solve(system, op, order=order, max_evals=max_evals)
    return IntraResult(
        envs=dict(result.sigma),
        solver_result=result,
        system=system,
        env_lattice=env_lat,
    )
