"""Abstract transformers for CFG edge instructions.

The abstract state of a function is either ``LiftedBottom`` (program point
unreachable) or a :class:`~repro.lattices.envlat.ArrayEnv` binding every
scalar local and every (smashed) array to a value of the chosen numeric
domain.  Arrays are *smashed*: one abstract value covers all cells, updated
weakly; this matches the paper's setting where the interesting precision
questions live in the scalar loop counters.

Globals are not part of the local state: reads and writes go through the
:class:`GlobalsAccess` callbacks, which the interprocedural analysis wires
to flow-insensitive unknowns (side effects), and the intraprocedural
analysis wires back into the local state.

Transfer functions are *staged*: :class:`TransferCompiler` turns an
expression, guard or instruction into closures once -- each variable
resolved as local or global, each operator bound to the domain's method,
each literal abstracted -- and the closures then run per evaluation
without walking the AST.  The interprocedural analysis stages every CFG
edge once and shares the step across contexts; :func:`eval_expr`,
:func:`refine` and :func:`apply_instr` stage on each call and serve the
intraprocedural analysis, the assertion verifier and the checkers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, FrozenSet

from repro.analysis.values import NumericDomain
from repro.lang import astnodes as ast
from repro.lang.cfg import (
    AssertInstr,
    CallInstr,
    Guard,
    Nop,
    SetLocal,
    StoreArray,
)
from repro.lattices.envlat import ArrayEnv
from repro.lattices.lifted import LiftedBottom


class TransferError(Exception):
    """Raised when an instruction cannot be handled (e.g. a call edge in a
    purely intraprocedural transfer)."""


@dataclass
class GlobalsAccess:
    """How the transfer reaches global variables."""

    read: Callable[[str], object]
    write: Callable[[str, object], None]
    #: Names of global arrays (reads/writes are weak for these too).
    array_names: FrozenSet[str] = frozenset()


@dataclass
class TransferContext:
    """Everything an edge transformer needs besides the state itself."""

    domain: NumericDomain
    #: Scalar keys of the local state.
    scalars: FrozenSet[str]
    #: Array keys of the local state.
    arrays: FrozenSet[str]
    globals: GlobalsAccess


# --------------------------------------------------------------------- #
# Staging.                                                              #
# --------------------------------------------------------------------- #

#: A staged expression: ``(env, get) -> value``.
#: A staged guard or instruction: ``(env, get, buffer) -> env'``.
#: ``env`` is a reachable state (never ``LiftedBottom``); ``get`` and
#: ``buffer`` are whatever the compiler's global readers and writers
#: expect -- the solver lookup and the side-effect buffer in the
#: interprocedural analysis, :class:`GlobalsAccess` callbacks here.

_COMPARISONS = ("<", "<=", ">", ">=", "==", "!=")


class TransferCompiler:
    """Stages transfer functions over one function's variables.

    :param domain: the numeric domain.
    :param scalars: local scalar names (read from / written to ``env``).
    :param arrays: local array names.
    :param read_global: ``name -> (env, get) -> value``, the staged read
        of a global.
    :param write_global: ``name -> (buffer, value) -> None``, the staged
        write of a global.

    Staged closures make exactly the reads the interpreting transfer
    made, in the same order: a guard evaluates its condition once for
    its truthiness and its operands once more to refine them.  They keep
    no state between calls, and an instruction the transfer cannot
    handle raises :class:`TransferError` only when it is evaluated.
    """

    def __init__(
        self,
        domain: NumericDomain,
        scalars: Collection[str],
        arrays: Collection[str],
        read_global: Callable,
        write_global: Callable,
    ) -> None:
        self.domain = domain
        self.scalars = scalars
        self.arrays = arrays
        self.read_global = read_global
        self.write_global = write_global
        #: Literal -> its abstraction, shared by every staged closure.
        self._constants: dict = {}

    # -- expressions ---------------------------------------------------- #

    def expr(self, expr: ast.Expr):
        """Stage a call-free expression."""
        dom = self.domain
        if isinstance(expr, ast.IntLit):
            value = self._constant(expr.value)
            if value is _FAILED:
                return lambda env, get: dom.from_const(expr.value)
            return lambda env, get: value
        if isinstance(expr, ast.Var):
            name = expr.name
            if name in self.scalars:
                return lambda env, get: env[name]
            return self.read_global(name)
        if isinstance(expr, ast.ArrayRef):
            return self._array_ref(expr)
        if isinstance(expr, ast.Unary):
            fn = dom.unop_fn(expr.op)
            operand = self.expr(expr.operand)
            return lambda env, get: fn(operand(env, get))
        if isinstance(expr, ast.Binary):
            return self._binary(expr)
        if isinstance(expr, ast.Call):
            return _raiser("call in expression position")
        return _raiser(f"unexpected expression {expr!r}")

    def _constant(self, n: int):
        """The abstraction of literal ``n``, or ``_FAILED`` when the
        domain rejects it (a bound too large for a float, say): such a
        literal then fails each time it is evaluated, as before staging."""
        value = self._constants.get(n, _FAILED)
        if value is _FAILED:
            try:
                value = self._constants[n] = self.domain.from_const(n)
            except Exception:  # noqa: BLE001 - re-raised when evaluated
                pass
        return value

    def _array_ref(self, expr: ast.ArrayRef):
        index = self.expr(expr.index)
        is_bottom = self.domain.is_bottom
        bottom = self.domain.bottom
        name = expr.name
        if name in self.arrays:
            read = lambda env, get: env[name]  # noqa: E731
        else:
            read = self.read_global(name)

        def array_ref(env, get):
            if is_bottom(index(env, get)):
                return bottom
            return read(env, get)

        return array_ref

    def _binary(self, expr: ast.Binary):
        fn = self.domain.binop_fn(expr.op)
        left = self.expr(expr.left)
        if isinstance(expr.right, ast.IntLit):
            value = self._constant(expr.right.value)
            if value is not _FAILED:
                # The commonest shape (``i < 10``, ``x + 1``): one frame
                # less per evaluation.
                return lambda env, get: fn(left(env, get), value)
        right = self.expr(expr.right)
        return lambda env, get: fn(left(env, get), right(env, get))

    # -- guards --------------------------------------------------------- #

    def refine(self, cond: ast.Expr, assume: bool):
        """Stage the restriction of ``env`` to states where ``cond`` is
        ``assume``: the refined state, or ``LiftedBottom`` when the guard
        is definitely not satisfiable.  Refinement only ever *shrinks*
        local scalar values (globals are flow-insensitive and cannot be
        refined)."""
        value = self.expr(cond)
        truthiness = self.domain.truthiness
        structural = self._structural(cond, assume)
        index = 0 if assume else 1

        def refine(env, get, buffer=None):
            if not truthiness(value(env, get))[index]:
                return LiftedBottom
            return structural(env, get)

        return refine

    def _structural(self, cond: ast.Expr, assume: bool):
        dom = self.domain
        if isinstance(cond, ast.Unary) and cond.op == "!":
            return self._structural(cond.operand, not assume)
        if isinstance(cond, ast.Binary) and cond.op in ("&&", "||"):
            if (cond.op == "&&") is not assume:
                # Disjunctive information: no refinement (sound).
                return _keep
            # (a && b) true, or (a || b) false: both constraints apply.
            first = self.refine(cond.left, assume)
            second = self.refine(cond.right, assume)

            def both(env, get):
                env = first(env, get)
                if env is LiftedBottom:
                    return LiftedBottom
                return second(env, get)

            return both
        if isinstance(cond, ast.Binary) and cond.op in _COMPARISONS:
            left = self.expr(cond.left)
            right = self.expr(cond.right)
            refine_cmp = dom.refine_fn(cond.op, assume)
            bind_left = self._bind(cond.left)
            bind_right = self._bind(cond.right)

            def compare(env, get):
                new_left, new_right = refine_cmp(left(env, get), right(env, get))
                env = bind_left(env, new_left)
                if env is LiftedBottom:
                    return LiftedBottom
                return bind_right(env, new_right)

            return compare
        if isinstance(cond, (ast.Var, ast.ArrayRef)):
            value = self.expr(cond)
            zero = dom.from_const(0)
            refine_zero = dom.refine_fn("!=" if assume else "==", True)
            bind = self._bind(cond)
            return lambda env, get: bind(env, refine_zero(value(env, get), zero)[0])
        # Literals and arithmetic conditions: the truthiness pre-check
        # already handled definite outcomes.
        return _keep

    def _bind(self, target: ast.Expr):
        """Stage writing a refined value back to the expression it came
        from, when that is a local scalar (the only refinable storage)."""
        is_bottom = self.domain.is_bottom
        if isinstance(target, ast.Var) and target.name in self.scalars:
            name = target.name

            def bind_local(env, value):
                if is_bottom(value):
                    return LiftedBottom
                return env.set(name, value)

            return bind_local

        def check(env, value):
            return LiftedBottom if is_bottom(value) else env

        return check

    # -- instructions --------------------------------------------------- #

    def instr(self, instr):
        """Stage the abstract effect of one (non-call) edge instruction."""
        if isinstance(instr, Nop):
            return _keep
        if isinstance(instr, Guard):
            return self.refine(instr.cond, instr.assume)
        if isinstance(instr, AssertInstr):
            # Executions only continue past a passing assertion; the
            # verification client separately reports whether the
            # condition is provably true.
            return self.refine(instr.cond, True)
        if isinstance(instr, SetLocal):
            return self._set_local(instr)
        if isinstance(instr, StoreArray):
            return self._store_array(instr)
        if isinstance(instr, CallInstr):
            return _raiser(
                "call edges must be handled by the interprocedural analysis"
            )
        return _raiser(f"unexpected instruction {instr!r}")

    def _set_local(self, instr: SetLocal):
        value = self.expr(instr.expr)
        is_bottom = self.domain.is_bottom
        store = self.store(instr.target, array=False)

        def set_local(env, get, buffer):
            v = value(env, get)
            if is_bottom(v):
                return LiftedBottom
            return store(env, buffer, v)

        return set_local

    def _store_array(self, instr: StoreArray):
        index = self.expr(instr.index)
        value = self.expr(instr.value)
        is_bottom = self.domain.is_bottom
        store = self.store(instr.name, array=True)

        def store_array(env, get, buffer):
            i = index(env, get)
            v = value(env, get)
            if is_bottom(i) or is_bottom(v):
                return LiftedBottom
            return store(env, buffer, v)

        return store_array

    def store(self, name: str, array: bool):
        """Stage storing a value into scalar or array ``name``:
        ``(env, buffer, value) -> env'``.  A local scalar is rebound, a
        local array joins the value into its smashed contents (a weak
        update: the array may retain old contents), and a global goes
        through ``write_global``."""
        if not array and name in self.scalars:
            return lambda env, buffer, value: env.set(name, value)
        if array and name in self.arrays:
            join = self.domain.join
            return lambda env, buffer, value: env.set(name, join(env[name], value))
        write = self.write_global(name)

        def store_global(env, buffer, value):
            write(buffer, value)
            return env

        return store_global


#: Marks a literal the domain could not abstract at staging time.
_FAILED = object()


def _keep(env, get, buffer=None):
    return env


def _raiser(message: str):
    """A staged closure that raises ``TransferError(message)`` when run."""

    def fail(*args):
        raise TransferError(message)

    return fail


# --------------------------------------------------------------------- #
# Entry points over a TransferContext.                                  #
# --------------------------------------------------------------------- #

def _compiler(tc: TransferContext) -> TransferCompiler:
    """A compiler whose staged closures take ``get = tc.globals.read``
    and ``buffer = tc.globals.write``."""

    def read_global(name):
        return lambda env, get: get(name)

    def write_global(name):
        return lambda buffer, value: buffer(name, value)

    return TransferCompiler(
        tc.domain, tc.scalars, tc.arrays, read_global, write_global
    )


def eval_expr(tc: TransferContext, env: ArrayEnv, expr: ast.Expr):
    """Evaluate a call-free expression to an abstract value."""
    return _compiler(tc).expr(expr)(env, tc.globals.read)


def refine(tc: TransferContext, env, cond: ast.Expr, assume: bool):
    """Restrict ``env`` to states where ``cond`` is ``assume``.

    Returns the refined environment, or ``LiftedBottom`` when the guard is
    definitely not satisfiable.  Refinement only ever *shrinks* local
    scalar values (globals are flow-insensitive and cannot be refined).
    """
    if env is LiftedBottom:
        return LiftedBottom
    return _compiler(tc).refine(cond, assume)(env, tc.globals.read)


def apply_instr(tc: TransferContext, env, instr):
    """The abstract effect of one edge instruction.

    ``env`` may be ``LiftedBottom``; transformers are strict in it.
    :class:`CallInstr` is *not* handled here -- the interprocedural
    analysis treats call edges itself.
    """
    if env is LiftedBottom:
        return LiftedBottom
    step = _compiler(tc).instr(instr)
    return step(env, tc.globals.read, tc.globals.write)
