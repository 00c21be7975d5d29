"""The interpreted transfer functions, kept as the reference.

``repro.analysis.transfer`` stages each expression, guard and
instruction into closures once (per CFG edge in the interprocedural
analysis).  These are the interpreting bodies it replaced: they walk the
AST on every call.  ``test_staged_transfer.py`` checks that staged and
interpreted transfer agree -- values, the exact sequence of global reads,
and the buffered writes.
"""

from __future__ import annotations

from repro.analysis.transfer import TransferContext, TransferError
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


# --------------------------------------------------------------------- #
# Expression evaluation.                                                #
# --------------------------------------------------------------------- #

def eval_expr(tc: TransferContext, env: ArrayEnv, expr: ast.Expr):
    """Evaluate a call-free expression to an abstract value."""
    dom = tc.domain
    if isinstance(expr, ast.IntLit):
        return dom.from_const(expr.value)
    if isinstance(expr, ast.Var):
        if expr.name in tc.scalars:
            return env[expr.name]
        return tc.globals.read(expr.name)
    if isinstance(expr, ast.ArrayRef):
        index = eval_expr(tc, env, expr.index)
        if dom.is_bottom(index):
            return dom.bottom
        if expr.name in tc.arrays:
            return env[expr.name]
        return tc.globals.read(expr.name)
    if isinstance(expr, ast.Unary):
        return dom.unop(expr.op, eval_expr(tc, env, expr.operand))
    if isinstance(expr, ast.Binary):
        left = eval_expr(tc, env, expr.left)
        right = eval_expr(tc, env, expr.right)
        return dom.binop(expr.op, left, right)
    if isinstance(expr, ast.Call):
        raise TransferError("call in expression position")
    raise TransferError(f"unexpected expression {expr!r}")


# --------------------------------------------------------------------- #
# Guard refinement.                                                     #
# --------------------------------------------------------------------- #

def refine(tc: TransferContext, env, cond: ast.Expr, assume: bool):
    """Restrict ``env`` to states where ``cond`` is ``assume``.

    Returns the refined environment, or ``LiftedBottom`` when the guard is
    definitely not satisfiable.  Refinement only ever *shrinks* local
    scalar values (globals are flow-insensitive and cannot be refined).
    """
    if env is LiftedBottom:
        return LiftedBottom
    dom = tc.domain
    value = eval_expr(tc, env, cond)
    may_true, may_false = dom.truthiness(value)
    if assume and not may_true:
        return LiftedBottom
    if not assume and not may_false:
        return LiftedBottom
    return _refine_structural(tc, env, cond, assume)


def _refine_structural(
    tc: TransferContext, env: ArrayEnv, cond: ast.Expr, assume: bool
):
    dom = tc.domain
    if isinstance(cond, ast.Unary) and cond.op == "!":
        return _refine_structural(tc, env, cond.operand, not assume)
    if isinstance(cond, ast.Binary) and cond.op in ("&&", "||"):
        both = (cond.op == "&&") is assume
        if both:
            # (a && b) true, or (a || b) false: both constraints apply.
            env = refine(tc, env, cond.left, assume)
            if env is LiftedBottom:
                return LiftedBottom
            return refine(tc, env, cond.right, assume)
        # Disjunctive information: no refinement (sound).
        return env
    if isinstance(cond, ast.Binary) and cond.op in ("<", "<=", ">", ">=", "==", "!="):
        left_v = eval_expr(tc, env, cond.left)
        right_v = eval_expr(tc, env, cond.right)
        new_left, new_right = dom.refine_cmp(cond.op, left_v, right_v, assume)
        env = _bind_refined(tc, env, cond.left, new_left)
        if env is LiftedBottom:
            return LiftedBottom
        return _bind_refined(tc, env, cond.right, new_right)
    if isinstance(cond, (ast.Var, ast.ArrayRef)):
        value = eval_expr(tc, env, cond)
        zero = dom.from_const(0)
        op = "!=" if assume else "=="
        refined, _ = dom.refine_cmp(op, value, zero, True)
        return _bind_refined(tc, env, cond, refined)
    # Literals and arithmetic conditions: the truthiness pre-check above
    # already handled definite outcomes.
    return env


def _bind_refined(tc: TransferContext, env, target: ast.Expr, value):
    """Write a refined value back to the expression it came from, when the
    expression is a local scalar (the only refinable storage)."""
    if env is LiftedBottom:
        return LiftedBottom
    if tc.domain.is_bottom(value):
        return LiftedBottom
    if isinstance(target, ast.Var) and target.name in tc.scalars:
        return env.set(target.name, value)
    return env


# --------------------------------------------------------------------- #
# Instruction transfer.                                                 #
# --------------------------------------------------------------------- #

def apply_instr(tc: TransferContext, env, instr):
    """The abstract effect of one edge instruction.

    ``env`` may be ``LiftedBottom``; transformers are strict in it.
    :class:`CallInstr` is *not* handled here -- the interprocedural
    analysis treats call edges itself.
    """
    if env is LiftedBottom:
        return LiftedBottom
    if isinstance(instr, Nop):
        return env
    if isinstance(instr, Guard):
        return refine(tc, env, instr.cond, instr.assume)
    if isinstance(instr, AssertInstr):
        # Executions only continue past a passing assertion; the
        # verification client separately reports whether the condition is
        # provably true.
        return refine(tc, env, instr.cond, True)
    if isinstance(instr, SetLocal):
        value = eval_expr(tc, env, instr.expr)
        if tc.domain.is_bottom(value):
            return LiftedBottom
        if instr.target in tc.scalars:
            return env.set(instr.target, value)
        tc.globals.write(instr.target, value)
        return env
    if isinstance(instr, StoreArray):
        index = eval_expr(tc, env, instr.index)
        value = eval_expr(tc, env, instr.value)
        if tc.domain.is_bottom(index) or tc.domain.is_bottom(value):
            return LiftedBottom
        if instr.name in tc.arrays:
            # Smashed weak update: the array may retain old contents.
            return env.set(instr.name, tc.domain.join(env[instr.name], value))
        tc.globals.write(instr.name, value)
        return env
    if isinstance(instr, CallInstr):
        raise TransferError(
            "call edges must be handled by the interprocedural analysis"
        )
    raise TransferError(f"unexpected instruction {instr!r}")


# --------------------------------------------------------------------- #
# The interprocedural edge transfer, as InterAnalysis interpreted it.   #
# --------------------------------------------------------------------- #

def reference_step(analysis, fn, instr, env, get, buffer):
    """One in-edge of ``fn`` applied to ``env``: the interpreting
    counterpart of a step from ``InterAnalysis._in_steps``.

    Globals are read through ``get(GV)`` and written by joining into
    ``buffer``, exactly as the analysis' right-hand sides did per
    evaluation before staging.
    """
    from repro.analysis.transfer import GlobalsAccess
    from repro.lattices.union import UNION_BOT

    dom = analysis.domain
    lattice = analysis.lattice
    gvs = analysis._gvs

    def write_global(name, value):
        key = gvs[name]
        old = buffer.get(key, dom.bottom)
        if name in analysis._global_arrays:
            value = dom.join(value, dom.from_const(0))
        buffer[key] = dom.join(old, value)

    def read_global(name):
        wrapped = get(gvs[name])
        if wrapped == UNION_BOT:
            return dom.bottom
        return lattice.payload(wrapped)

    tc = TransferContext(
        domain=dom,
        scalars=frozenset(fn.locals),
        arrays=frozenset(fn.arrays),
        globals=GlobalsAccess(read=read_global, write=write_global),
    )
    if isinstance(instr, CallInstr):
        return _transfer_call(analysis, tc, env, instr, get, buffer)
    return apply_instr(tc, env, instr)


def _transfer_call(analysis, tc, env, instr, get, buffer):
    from repro.analysis.inter import PP
    from repro.lang.cfg import RETURN_SLOT
    from repro.lattices.union import UNION_BOT

    dom = analysis.domain
    callee = analysis.cfg.functions[instr.func]
    args = [eval_expr(tc, env, a) for a in instr.args]
    if any(dom.is_bottom(a) for a in args):
        return LiftedBottom
    entry_env = analysis._initial_env(callee, args)
    ctx = analysis.policy.context(callee, entry_env)
    entry_pp = PP(instr.func, ctx, callee.entry)
    callee_env_lat = analysis._env_lats[instr.func]
    old = buffer.get(entry_pp)
    if old is None:
        buffer[entry_pp] = entry_env
    else:
        buffer[entry_pp] = callee_env_lat.join(old, entry_env)
    wrapped_exit = get(PP(instr.func, ctx, callee.exit))
    if wrapped_exit == UNION_BOT:
        return LiftedBottom
    exit_env = analysis.lattice.payload(wrapped_exit)
    if exit_env is LiftedBottom:
        return LiftedBottom
    if instr.target is None:
        return env
    ret = exit_env[RETURN_SLOT]
    if dom.is_bottom(ret):
        return LiftedBottom
    if instr.target in tc.scalars:
        return env.set(instr.target, ret)
    tc.globals.write(instr.target, ret)
    return env
