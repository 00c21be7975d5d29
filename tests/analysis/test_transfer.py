"""Unit tests for expression evaluation, guard refinement and instruction
transfer."""

from __future__ import annotations

import pytest

from repro.analysis.transfer import (
    GlobalsAccess,
    TransferContext,
    TransferError,
    apply_instr,
    eval_expr,
    refine,
)
from repro.analysis.values import IntervalDomain
from repro.lang.cfg import CallInstr, Guard, Nop, SetLocal, StoreArray
from repro.lang.parser import parse_expr
from repro.lattices.envlat import ArrayEnvLattice
from repro.lattices.interval import Interval, const
from repro.lattices.lifted import LiftedBottom

dom = IntervalDomain()
env_lat = ArrayEnvLattice(("x", "y", "a"), dom)


def make_tc(globals_map=None):
    store = dict(globals_map or {})

    def read(name):
        return store[name]

    def write(name, value):
        store[name] = value

    tc = TransferContext(
        domain=dom,
        scalars=frozenset({"x", "y"}),
        arrays=frozenset({"a"}),
        globals=GlobalsAccess(read=read, write=write),
    )
    return tc, store


def env_of(**values):
    base = {"x": const(0), "y": const(0), "a": const(0)}
    base.update(values)
    return env_lat.make(base)


class TestEvalExpr:
    def test_literals_and_vars(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(1, 5))
        assert eval_expr(tc, env, parse_expr("42")) == const(42)
        assert eval_expr(tc, env, parse_expr("x")) == Interval(1, 5)

    def test_arithmetic(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(1, 5), y=Interval(10, 10))
        assert eval_expr(tc, env, parse_expr("x + y")) == Interval(11, 15)
        assert eval_expr(tc, env, parse_expr("-x")) == Interval(-5, -1)

    def test_array_read_is_smashed(self):
        tc, _ = make_tc()
        env = env_of(a=Interval(0, 9), x=const(3))
        assert eval_expr(tc, env, parse_expr("a[x]")) == Interval(0, 9)

    def test_global_read(self):
        tc, store = make_tc({"g": Interval(7, 8)})
        env = env_of()
        assert eval_expr(tc, env, parse_expr("g")) == Interval(7, 8)

    def test_comparison_produces_abstract_boolean(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 1), y=Interval(5, 5))
        assert eval_expr(tc, env, parse_expr("x < y")) == const(1)

    def test_call_rejected(self):
        tc, _ = make_tc()
        with pytest.raises(TransferError):
            eval_expr(tc, env_of(), parse_expr("f(1)"))


class TestRefine:
    def test_simple_upper_bound(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 100))
        out = refine(tc, env, parse_expr("x < 10"), True)
        assert out["x"] == Interval(0, 9)

    def test_negated_guard(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 100))
        out = refine(tc, env, parse_expr("x < 10"), False)
        assert out["x"] == Interval(10, 100)

    def test_var_var_refines_both(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 100), y=Interval(50, 60))
        out = refine(tc, env, parse_expr("x < y"), True)
        assert out["x"] == Interval(0, 59)
        assert out["y"] == Interval(50, 60)

    def test_unsatisfiable_guard_is_bottom(self):
        tc, _ = make_tc()
        env = env_of(x=const(5))
        assert refine(tc, env, parse_expr("x < 3"), True) is LiftedBottom

    def test_conjunction_refines_both_sides(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 100), y=Interval(0, 100))
        out = refine(tc, env, parse_expr("x < 10 && y > 90"), True)
        assert out["x"] == Interval(0, 9)
        assert out["y"] == Interval(91, 100)

    def test_false_disjunction_refines_both_sides(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 100), y=Interval(0, 100))
        out = refine(tc, env, parse_expr("x < 10 || y > 90"), False)
        assert out["x"] == Interval(10, 100)
        assert out["y"] == Interval(0, 90)

    def test_not_guard(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 100))
        out = refine(tc, env, parse_expr("!(x < 10)"), True)
        assert out["x"] == Interval(10, 100)

    def test_plain_variable_condition(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 100))
        out_false = refine(tc, env, parse_expr("x"), False)
        assert out_false["x"] == const(0)
        out_true = refine(tc, env, parse_expr("x"), True)
        assert out_true["x"] == Interval(1, 100)  # boundary trim

    def test_equality_pins_value(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 100))
        out = refine(tc, env, parse_expr("x == 42"), True)
        assert out["x"] == const(42)

    def test_globals_not_refined(self):
        tc, store = make_tc({"g": Interval(0, 100)})
        env = env_of()
        out = refine(tc, env, parse_expr("g < 10"), True)
        assert out is not LiftedBottom
        assert store["g"] == Interval(0, 100)

    def test_bottom_env_stays_bottom(self):
        tc, _ = make_tc()
        assert refine(tc, LiftedBottom, parse_expr("1"), True) is LiftedBottom


class TestApplyInstr:
    def test_nop_and_guard(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 5))
        assert apply_instr(tc, env, Nop()) == env
        out = apply_instr(tc, env, Guard(parse_expr("x < 3"), True))
        assert out["x"] == Interval(0, 2)

    def test_set_local(self):
        tc, _ = make_tc()
        env = env_of(x=Interval(0, 5))
        out = apply_instr(tc, env, SetLocal("y", parse_expr("x + 1")))
        assert out["y"] == Interval(1, 6)

    def test_set_global_goes_through_callback(self):
        tc, store = make_tc({"g": None})
        env = env_of(x=const(3))
        out = apply_instr(tc, env, SetLocal("g", parse_expr("x")))
        assert out == env
        assert store["g"] == const(3)

    def test_array_store_is_weak(self):
        tc, _ = make_tc()
        env = env_of(a=const(0), x=const(7))
        out = apply_instr(
            tc, env, StoreArray("a", parse_expr("0"), parse_expr("x"))
        )
        assert out["a"] == Interval(0, 7)  # old zero contents retained

    def test_bottom_value_kills_state(self):
        tc, _ = make_tc()
        env = env_of(x=const(1))
        # Division by exactly zero yields no successor state.
        out = apply_instr(tc, env, SetLocal("y", parse_expr("x / 0")))
        assert out is LiftedBottom

    def test_call_instr_rejected(self):
        tc, _ = make_tc()
        with pytest.raises(TransferError):
            apply_instr(tc, env_of(), CallInstr("x", "f", ()))

    def test_strict_in_bottom(self):
        tc, _ = make_tc()
        assert apply_instr(tc, LiftedBottom, Nop()) is LiftedBottom
