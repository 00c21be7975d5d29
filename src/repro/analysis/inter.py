"""Interprocedural analysis as a side-effecting equation system.

This reproduces the analysis architecture of the paper's evaluation
(Goblint's): *context-sensitive* propagation of local states along
control-flow edges, combined with *flow-insensitive* global variables that
receive their values through side effects (Section 6, Example 7).

Unknowns
--------

* ``PP(fn, ctx, node)`` -- the abstract local state of function ``fn`` at
  program point ``node``, analysed in calling context ``ctx``.  The value
  is either ``LiftedBottom`` (unreachable) or a map binding the function's
  locals and smashed arrays.
* ``GV(name)`` -- the flow-insensitive value of global ``name``.

The two kinds of unknowns carry different lattices, glued together by a
:class:`~repro.lattices.union.TaggedUnionLattice` so that a single generic
solver (SLR+) drives the whole analysis.

Right-hand sides
----------------

The right-hand side of ``PP(fn, ctx, v)`` joins, over all incoming edges
``(u, instr, v)``, the abstract effect of ``instr`` applied to
``get(PP(fn, ctx, u))``.  Three situations create the interactions the
paper studies:

* reading a global evaluates ``get(GV(g))`` -- a dynamic dependency;
* writing a global emits ``side(GV(g), value)`` -- a side effect whose
  contributions the solver combines per-origin (Example 8);
* a call edge computes the callee's entry state, derives the context
  ``ctx'`` via the :class:`ContextPolicy`, *side-effects* the callee's
  entry unknown ``PP(callee, ctx', entry)``, and reads the exit unknown
  ``PP(callee, ctx', exit)`` for the return value.

Because the context is computed from solved *values*, the system is
non-monotonic and its unknown space is discovered dynamically -- exactly
the regime for which the paper designed SLR+ with the combined operator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional

from repro.analysis.transfer import TransferCompiler
from repro.analysis.values import NumericDomain
from repro.eqs.side import FunSideSystem
from repro.lang.cfg import (
    CallInstr,
    ControlFlowGraph,
    FunctionCFG,
    Node,
    RETURN_SLOT,
)
from repro.lattices.lifted import Lifted, LiftedBottom
from repro.lattices.envlat import ArrayEnvLattice
from repro.lattices.maplat import FrozenMap
from repro.lattices.union import TaggedUnionLattice, UNION_BOT
from repro.solvers import Combine, NarrowCombine, WarrowCombine, WidenCombine
from repro.solvers.registry import resolve_solver
from repro.solvers.slr_side import SideResult


# --------------------------------------------------------------------- #
# Unknowns.                                                             #
# --------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class PP:
    """A program point in a calling context.

    Every solver dict and set is keyed by unknowns, so the hash is
    computed once, at construction: it is the hash of the field tuple.
    """

    fn: str
    ctx: Hashable
    node: Node
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.fn, self.ctx, self.node)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild from the fields: string hashes differ between processes.
        return (PP, (self.fn, self.ctx, self.node))

    def __repr__(self) -> str:
        return f"PP({self.fn}@{self.node.index}, ctx={self.ctx!r})"


@dataclass(frozen=True, slots=True)
class GV:
    """A flow-insensitive global variable (hashed once, like :class:`PP`)."""

    name: str
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (GV, (self.name,))

    def __repr__(self) -> str:
        return f"GV({self.name})"


class _GlobalKeys(dict):
    """Global name -> its :class:`GV`, made on first lookup."""

    def __missing__(self, name: str) -> GV:
        key = self[name] = GV(name)
        return key


#: Union tags.
_VAL = "val"


def _env_tag(fn: str) -> tuple:
    return ("env", fn)


# --------------------------------------------------------------------- #
# Context policies.                                                     #
# --------------------------------------------------------------------- #

class ContextPolicy(ABC):
    """Maps a callee and its abstract entry state to a context value.

    Contexts must be hashable; they become part of the unknowns.
    """

    name = "policy"

    @abstractmethod
    def context(self, fn: FunctionCFG, entry_env: FrozenMap) -> Hashable:
        """The context under which to analyse ``fn`` for this entry state."""


class InsensitiveContext(ContextPolicy):
    """One context per function: classic context-insensitive analysis."""

    name = "insensitive"

    def context(self, fn: FunctionCFG, entry_env: FrozenMap) -> Hashable:
        return None


class FullValueContext(ContextPolicy):
    """Full value contexts: the tuple of abstract parameter values.

    The number of contexts is *a priori* unbounded -- termination rests on
    the solver and the operator (Theorem 4 for monotone systems; the
    paper's experiments explore exactly this regime).
    """

    name = "full-value"

    def context(self, fn: FunctionCFG, entry_env: FrozenMap) -> Hashable:
        return tuple((p, entry_env[p]) for p in fn.params)


class FiniteProjectionContext(ContextPolicy):
    """Contexts drawn from a finite abstraction of the parameter values.

    This mirrors the paper's "context which includes all non-interval
    values of locals": the context distinguishes calls by a coarse,
    finite projection (e.g. signs or parities) while the interval part
    stays context-local.
    """

    def __init__(
        self, project: Callable[[object], Hashable], name: str = "projected"
    ) -> None:
        self.project = project
        self.name = name

    def context(self, fn: FunctionCFG, entry_env: FrozenMap) -> Hashable:
        return tuple((p, self.project(entry_env[p])) for p in fn.params)


def sign_context(domain: NumericDomain) -> FiniteProjectionContext:
    """The sign-projection policy over an interval domain."""
    from repro.lattices.sign import Sign

    sign = Sign()
    return FiniteProjectionContext(sign.from_interval, name="sign")


# --------------------------------------------------------------------- #
# The analysis.                                                         #
# --------------------------------------------------------------------- #

@dataclass
class AnalysisResult:
    """The outcome of an interprocedural analysis run."""

    #: Abstract local state per (function, context, node).
    point_envs: Dict[PP, object]
    #: Final flow-insensitive global values.
    globals: Dict[str, object]
    #: The raw solver result (stats, contribs, keys, ...).
    solver_result: SideResult
    #: The union lattice the system was solved over.
    lattice: TaggedUnionLattice
    #: The analysed CFGs.
    cfg: ControlFlowGraph
    domain: NumericDomain

    @property
    def contexts_per_function(self) -> Dict[str, int]:
        """Number of distinct contexts discovered per function."""
        seen: Dict[str, set] = {}
        for pp in self.point_envs:
            seen.setdefault(pp.fn, set()).add(pp.ctx)
        return {fn: len(ctxs) for fn, ctxs in seen.items()}

    @property
    def unknown_count(self) -> int:
        """Total unknowns encountered by the solver (paper's 'Unknowns')."""
        return self.solver_result.stats.unknowns

    def env_at(self, fn: str, node: Node):
        """Join of the abstract state at ``node`` over all contexts."""
        env_lat = self.lattice.branch(_env_tag(fn))
        total = LiftedBottom
        for pp, env in self.point_envs.items():
            if pp.fn == fn and pp.node == node:
                total = env_lat.join(total, env)
        return total


class InterAnalysis:
    """Builder/driver for the interprocedural side-effecting system."""

    def __init__(
        self,
        cfg: ControlFlowGraph,
        domain: NumericDomain,
        policy: Optional[ContextPolicy] = None,
        entry_fn: str = "main",
    ) -> None:
        """Prepare the analysis of ``cfg`` over ``domain``.

        :param policy: the context policy (default: context-insensitive).
        :param entry_fn: the program entry point.
        """
        self.cfg = cfg
        self.domain = domain
        self.policy = policy if policy is not None else InsensitiveContext()
        self.entry_fn = entry_fn
        if entry_fn not in cfg.functions:
            raise ValueError(f"no entry function {entry_fn!r}")
        branches: Dict[Hashable, object] = {_VAL: domain}
        self._env_lats: Dict[str, Lifted] = {}
        for name, fn in cfg.functions.items():
            keys = sorted(fn.locals) + sorted(fn.arrays)
            env_lat = Lifted(ArrayEnvLattice(keys, domain))
            self._env_lats[name] = env_lat
            branches[_env_tag(name)] = env_lat
        self.lattice = TaggedUnionLattice(branches)
        self._global_arrays = frozenset(cfg.global_arrays)
        #: One key object per global, shared by every right-hand side.
        self._gvs = _GlobalKeys()
        #: Per node: ``(source node, staged step)`` for each in-edge,
        #: staged on first use and shared by every context.
        self._staged: Dict[Node, list] = {}
        #: Per function: the compiler that stages its edges.
        self._compilers: Dict[str, TransferCompiler] = {}
        #: Per function: every local and array bound to 0, the base of
        #: each initial environment.
        self._zeros: Dict[str, dict] = {}

    # ------------------------------------------------------------- #
    # System construction.                                          #
    # ------------------------------------------------------------- #

    def root(self) -> PP:
        """The unknown to query: the entry function's exit point."""
        fn = self.cfg.functions[self.entry_fn]
        ctx = self.policy.context(fn, self._initial_env(fn, None))
        return PP(self.entry_fn, ctx, fn.exit)

    def system(self) -> FunSideSystem:
        """The side-effecting equation system of the whole program.

        The system builds each unknown's right-hand side once, on first
        request, and keeps it for its own lifetime: one solve, its
        escalation retries and its post-solution check share the
        closures.  A closure keeps no state between evaluations.
        """
        built: Dict[Hashable, Callable] = {}

        def rhs_of(unknown):
            rhs = built.get(unknown)
            if rhs is None:
                rhs = built[unknown] = self._rhs_of(unknown)
            return rhs

        return FunSideSystem(self.lattice, rhs_of)

    def _initial_env(self, fn: FunctionCFG, args: Optional[List[object]]) -> FrozenMap:
        zeros = self._zeros.get(fn.name)
        if zeros is None:
            zero = self.domain.from_const(0)
            zeros = self._zeros[fn.name] = dict.fromkeys(
                [*fn.locals, *fn.arrays], zero
            )
        bindings = dict(zeros)
        if args is None:
            # Entry function: parameters unconstrained.
            top = self.domain.top
            for p in fn.params:
                bindings[p] = top
        else:
            for p, v in zip(fn.params, args):
                bindings[p] = v
        return self._env_lats[fn.name].inner.make(bindings)

    def _rhs_of(self, unknown):
        if isinstance(unknown, GV):
            # Globals receive their value purely through side effects.
            return lambda get, side: UNION_BOT
        if isinstance(unknown, PP):
            return self._pp_rhs(unknown)
        raise KeyError(unknown)

    def _pp_rhs(self, pp: PP):
        fn = self.cfg.functions[pp.fn]
        env_lat = self._env_lats[pp.fn]
        tag = _env_tag(pp.fn)
        dom = self.domain
        lattice = self.lattice
        payload = lattice.payload
        inject = lattice.inject
        is_program_entry = pp.fn == self.entry_fn and pp.node == fn.entry
        # Built once per closure, so every evaluation hands the solver
        # the same key objects.
        in_edges = [
            (PP(pp.fn, pp.ctx, src), step)
            for src, step in self._in_steps(fn, pp.node)
        ]
        if is_program_entry:
            # The program entry seeds the globals with their static
            # initialisers (the paper's Example 9: "the initialization
            # g = 0 is detected first").
            zero = dom.from_const(0)
            seeds = [
                (self._write_global(g), dom.from_const(init))
                for g, init in self.cfg.global_scalars.items()
            ] + [(self._write_global(g), zero) for g in self.cfg.global_arrays]

        def rhs(get, side):
            # Side effects are buffered and joined per target: one rhs
            # evaluation may write the same global on several in-edges,
            # but SLR+ accepts at most one side effect per target.
            buffer: Dict[object, object] = {}
            if is_program_entry:
                for write, value in seeds:
                    write(buffer, value)
                total = self._initial_env(fn, None)
            else:
                total = LiftedBottom
                for src, step in in_edges:
                    wrapped = get(src)
                    if wrapped == UNION_BOT:
                        continue
                    env = payload(wrapped)
                    if env is LiftedBottom:
                        continue
                    total = env_lat.join(total, step(env, get, buffer))

            # Entry nodes of non-entry functions receive their states via
            # side effects from call edges; their own rhs contributes
            # nothing beyond those (handled by the solver's contribution
            # joining).
            for key, value in buffer.items():
                if isinstance(key, GV):
                    side(key, inject(_VAL, value))
                else:
                    # A callee entry state from a call edge.
                    side(key, inject(_env_tag(key.fn), value))
            if total is LiftedBottom:
                return UNION_BOT
            return inject(tag, total)

        return rhs

    # ------------------------------------------------------------- #
    # Staged edges.                                                 #
    # ------------------------------------------------------------- #

    def _in_steps(self, fn: FunctionCFG, node: Node) -> list:
        """``(source node, step)`` for each in-edge of ``node``.

        A step is the edge's transfer function staged once:
        ``step(env, get, buffer)`` maps a reachable source state to the
        target state, reads globals and callee exits through ``get`` and
        buffers global writes and callee entry states in ``buffer``.
        Staging happens on first use, during the solve, so building the
        analysis stays cheap.
        """
        steps = self._staged.get(node)
        if steps is None:
            compiler = self._compilers.get(fn.name)
            if compiler is None:
                compiler = self._compilers[fn.name] = TransferCompiler(
                    self.domain,
                    frozenset(fn.locals),
                    frozenset(fn.arrays),
                    self._read_global,
                    self._write_global,
                )
            steps = self._staged[node] = [
                (
                    edge.src,
                    self._stage_call(compiler, edge.instr)
                    if isinstance(edge.instr, CallInstr)
                    else compiler.instr(edge.instr),
                )
                for edge in fn.in_edges(node)
            ]
        return steps

    def _read_global(self, name: str):
        """Staged read of global ``name``: its flow-insensitive unknown."""
        key = self._gvs[name]
        bottom = self.domain.bottom
        payload = self.lattice.payload

        def read(env, get):
            wrapped = get(key)
            if wrapped == UNION_BOT:
                return bottom
            return payload(wrapped)

        return read

    def _write_global(self, name: str):
        """Staged write of global ``name``: joined into the buffer."""
        key = self._gvs[name]
        dom = self.domain
        weak = name in self._global_arrays
        zero = dom.from_const(0)

        def write(buffer, value) -> None:
            if weak:
                # Weak update: global arrays keep their zero init.
                value = dom.join(value, zero)
            buffer[key] = dom.join(buffer.get(key, dom.bottom), value)

        return write

    def _stage_call(self, compiler: TransferCompiler, instr: CallInstr):
        """Stage a call edge: bind the arguments, side-effect the callee's
        entry state into its context, read the return value from the
        callee's exit."""
        dom = self.domain
        is_bottom = dom.is_bottom
        lattice = self.lattice
        callee = self.cfg.functions[instr.func]
        callee_env_lat = self._env_lats[instr.func]
        args = [compiler.expr(a) for a in instr.args]
        if instr.target is None:
            store = None
        else:
            store = compiler.store(instr.target, array=False)

        def call(env, get, buffer):
            values = [arg(env, get) for arg in args]
            if any(is_bottom(a) for a in values):
                return LiftedBottom
            entry_env = self._initial_env(callee, values)
            ctx = self.policy.context(callee, entry_env)
            entry_pp = PP(instr.func, ctx, callee.entry)
            # The callee's entry unknown is an env-typed side-effect
            # target; multiple call edges in one rhs evaluation
            # buffer-join just like globals do.
            old = buffer.get(entry_pp)
            if old is None:
                buffer[entry_pp] = entry_env
            else:
                buffer[entry_pp] = callee_env_lat.join(old, entry_env)
            wrapped_exit = get(PP(instr.func, ctx, callee.exit))
            if wrapped_exit == UNION_BOT:
                return LiftedBottom
            exit_env = lattice.payload(wrapped_exit)
            if exit_env is LiftedBottom:
                return LiftedBottom
            if store is None:
                return env
            ret = exit_env[RETURN_SLOT]
            if is_bottom(ret):
                return LiftedBottom
            return store(env, buffer, ret)

        return call


# --------------------------------------------------------------------- #
# Driver functions.                                                     #
# --------------------------------------------------------------------- #

def collect_analysis(
    analysis: InterAnalysis, result: SideResult
) -> AnalysisResult:
    """Package a raw solver result as an :class:`AnalysisResult`.

    Public so callers that drive the solver themselves (the supervision
    layer, the batch farm) can still use the assertion checker and the
    precision comparators, which consume :class:`AnalysisResult`.
    """
    return _collect(analysis, result)


def _collect(analysis: InterAnalysis, result: SideResult) -> AnalysisResult:
    point_envs: Dict[PP, object] = {}
    global_values: Dict[str, object] = {}
    lat = analysis.lattice
    for unknown, wrapped in result.sigma.items():
        if isinstance(unknown, PP):
            point_envs[unknown] = (
                LiftedBottom if wrapped == UNION_BOT else lat.payload(wrapped)
            )
        elif isinstance(unknown, GV):
            global_values[unknown.name] = (
                analysis.domain.bottom
                if wrapped == UNION_BOT
                else lat.payload(wrapped)
            )
    return AnalysisResult(
        point_envs=point_envs,
        globals=global_values,
        solver_result=result,
        lattice=lat,
        cfg=analysis.cfg,
        domain=analysis.domain,
    )


def analyze_program(
    cfg: ControlFlowGraph,
    domain: NumericDomain,
    policy: Optional[ContextPolicy] = None,
    op: Optional[Combine] = None,
    entry_fn: str = "main",
    max_evals: Optional[int] = None,
    widen_delay: int = 1,
    solver="slr+",
    op_spec: Optional[str] = None,
    observers=(),
) -> AnalysisResult:
    """Run the interprocedural analysis with a single solver pass.

    :param op: the update operator (default: the combined operator over
        the analysis' union lattice -- the paper's recommended setup).
    :param op_spec: alternatively, a strategy spec string
        (:mod:`repro.strategies`) resolved against the analysis' own
        lattice and CFG, e.g. ``"warrow:delay=2"`` or ``"wpoint"``.
        Mutually exclusive with ``op``; phased specs are rejected here
        (use :func:`analyze_program_twophase`).
    :param widen_delay: how many growing updates per unknown use plain
        join before widening kicks in (applies to the default operator
        and to specs that take a ``delay`` the spec itself does not
        set; matched by :func:`analyze_program_twophase` so that
        precision comparisons isolate the *operator*, not the widening
        schedule).
    :param solver: a side-effecting local solver, as a callable or a
        registry name (default: ``"slr+"``).
    :param observers: extra engine observers threaded into the solve.
    """
    solve = resolve_solver(solver, side_effecting=True, scope="local")
    analysis = InterAnalysis(cfg, domain, policy, entry_fn)
    if op_spec is not None:
        if op is not None:
            raise ValueError("pass either op or op_spec, not both")
        from repro.strategies.registry import BuildContext, build_combine

        op = build_combine(
            op_spec,
            analysis.lattice,
            ctx=BuildContext(cfg=cfg),
            widen_delay=widen_delay,
        )
    if op is None:
        op = WarrowCombine(analysis.lattice, delay=widen_delay)
    result = solve(
        analysis.system(),
        op,
        analysis.root(),
        max_evals=max_evals,
        observers=observers,
    )
    return _collect(analysis, result)


def analyze_program_twophase(
    cfg: ControlFlowGraph,
    domain: NumericDomain,
    policy: Optional[ContextPolicy] = None,
    entry_fn: str = "main",
    max_evals: Optional[int] = None,
    track_contributions: bool = False,
    widen_delay: int = 1,
    solver="slr+",
    observers=(),
) -> AnalysisResult:
    """The classic baseline on a fresh analysis; see :func:`solve_twophase`."""
    analysis = InterAnalysis(cfg, domain, policy, entry_fn)
    result = solve_twophase(
        analysis,
        max_evals=max_evals,
        track_contributions=track_contributions,
        widen_delay=widen_delay,
        solver=solver,
        observers=observers,
    )
    return _collect(analysis, result)


def solve_twophase(
    analysis: InterAnalysis,
    max_evals: Optional[int] = None,
    track_contributions: bool = False,
    widen_delay: int = 1,
    solver="slr+",
    observers=(),
) -> SideResult:
    """The classic baseline: a complete widening pass, then a narrowing pass.

    Phase 1 solves the side-effecting system with ``op = widen``.  Phase 2
    re-solves it with ``op = narrow``, *starting from the phase-1
    solution* (every unknown is initialised to its phase-1 value).

    By default the baseline also uses the *classical* side-effect
    treatment (``track_contributions=False``): contributions to globals
    are accumulated irreversibly, so the narrowing phase cannot improve
    them -- this is exactly the situation the paper's Example 8 fixes with
    per-origin contribution sets.  Pass ``track_contributions=True`` for a
    stronger baseline that separates phases but keeps the new side-effect
    machinery.

    :returns: the narrowing pass's result, its statistics covering both
        passes.
    """
    solve = resolve_solver(solver, side_effecting=True, scope="local")
    system = analysis.system()
    root = analysis.root()
    phase1 = solve(
        system,
        WidenCombine(analysis.lattice, delay=widen_delay),
        root,
        max_evals=max_evals,
        track_contributions=track_contributions,
        observers=observers,
    )

    frozen = dict(phase1.sigma)

    def init_of(x):
        return frozen.get(x, analysis.lattice.bottom)

    system2 = FunSideSystem(analysis.lattice, system.rhs, init_of=init_of)
    phase2 = solve(
        system2,
        NarrowCombine(analysis.lattice),
        root,
        max_evals=max_evals,
        track_contributions=track_contributions,
        protect=phase1.accumulated,
        observers=observers,
    )
    # Merge statistics so reported evaluation counts cover both phases.
    phase2.stats.evaluations += phase1.stats.evaluations
    phase2.stats.updates += phase1.stats.updates
    return phase2
