"""Tests for the interprocedural side-effecting analysis."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

import pytest

from repro.analysis import (
    FullValueContext,
    InsensitiveContext,
    IntervalDomain,
    analyze_program,
)
from repro.analysis.inter import (
    GV,
    PP,
    InterAnalysis,
    analyze_program_twophase,
    sign_context,
)
from repro.incremental import check_post_solution
from repro.lang import compile_program
from repro.lang.cfg import Node
from repro.lattices.interval import Interval, POS_INF, const
from repro.lattices.lifted import LiftedBottom
from repro.solvers import WarrowCombine
from repro.solvers.slr_side import solve_slr_side
from repro.solvers.stats import DivergenceError

dom = IntervalDomain()

EXAMPLE7 = """
int g = 0;
void f(int b) {
    if (b) { g = b + 1; } else { g = -b - 1; }
}
int main() {
    f(1);
    f(2);
    return 0;
}
"""


class TestExample7:
    """The paper's running interprocedural example (Examples 7--9)."""

    def test_global_is_0_3_with_combined_operator(self):
        cfg = compile_program(EXAMPLE7)
        result = analyze_program(cfg, dom, policy=FullValueContext())
        assert result.globals["g"] == Interval(0, 3)

    def test_two_contexts_for_f(self):
        cfg = compile_program(EXAMPLE7)
        result = analyze_program(cfg, dom, policy=FullValueContext())
        assert result.contexts_per_function["f"] == 2

    def test_insensitive_merges_contexts(self):
        cfg = compile_program(EXAMPLE7)
        result = analyze_program(cfg, dom, policy=InsensitiveContext())
        assert result.contexts_per_function["f"] == 1
        # b is [1,2] merged; contributions 2..3 and -3..-2 -- but the
        # branch on b is decided (b in [1,2] is truthy), so g stays [0,3].
        assert result.globals["g"] == Interval(0, 3)

    def test_classical_two_phase_cannot_narrow_global(self):
        cfg = compile_program(EXAMPLE7)
        result = analyze_program_twophase(cfg, dom, policy=FullValueContext())
        assert result.globals["g"] == Interval(0, POS_INF)

    def test_per_origin_contributions(self):
        cfg = compile_program(EXAMPLE7)
        result = analyze_program(cfg, dom, policy=FullValueContext())
        g_origins = {
            origin
            for (origin, target) in result.solver_result.contribs
            if target == GV("g")
        }
        # Three writers: main's entry (initialisation) and the assignment
        # nodes in the two contexts of f.
        assert len(g_origins) == 3


class TestCallsAndReturns:
    def test_return_value_binds(self):
        cfg = compile_program(
            "int add(int a, int b) { return a + b; }"
            "int main() { int r = add(2, 3); return r; }"
        )
        result = analyze_program(cfg, dom, policy=FullValueContext())
        fn = cfg.functions["main"]
        env = result.env_at("main", fn.exit)
        assert env["r"] == const(5)

    def test_recursion_terminates_and_is_sound(self):
        cfg = compile_program(
            "int down(int n) { if (n <= 0) { return 0; }"
            " int r = down(n - 1); return r; }"
            "int main() { int r = down(7); return r; }"
        )
        result = analyze_program(cfg, dom, policy=InsensitiveContext())
        env = result.env_at("main", cfg.functions["main"].exit)
        assert dom.contains(env["r"], 0)

    def test_recursive_full_context_with_budget(self):
        """Full value contexts on recursion may blow up the context space;
        the divergence guard must catch it rather than hanging."""
        cfg = compile_program(
            "int down(int n) { if (n <= 0) { return 0; }"
            " int r = down(n - 1); return r; }"
            "int main(int k) { int r = down(k); return r; }"
        )
        from repro.solvers import DivergenceError

        try:
            result = analyze_program(
                cfg, dom, policy=FullValueContext(), max_evals=20_000
            )
        except DivergenceError:
            return  # acceptable: unbounded context space
        env = result.env_at("main", cfg.functions["main"].exit)
        assert dom.contains(env["r"], 0)

    def test_unreachable_function_not_analysed(self):
        cfg = compile_program(
            "int unused(int x) { return x; }"
            "int main() { return 1; }"
        )
        result = analyze_program(cfg, dom)
        assert all(pp.fn != "unused" for pp in result.point_envs)

    def test_sign_context_separates_signs(self):
        cfg = compile_program(
            "int absval(int x) { if (x < 0) { return -x; } return x; }"
            "int main() { int a = absval(5); int b = absval(-5); return a + b; }"
        )
        result = analyze_program(cfg, dom, policy=sign_context(dom))
        assert result.contexts_per_function["absval"] == 2
        env = result.env_at("main", cfg.functions["main"].exit)
        assert env["a"] == const(5)
        assert env["b"] == const(5)

    def test_void_call_preserves_caller_state(self):
        cfg = compile_program(
            "int g = 0;"
            "void poke() { g = 5; }"
            "int main() { int x = 3; poke(); return x; }"
        )
        result = analyze_program(cfg, dom)
        env = result.env_at("main", cfg.functions["main"].exit)
        assert env["x"] == const(3)
        assert result.globals["g"] == Interval(0, 5)


class TestGlobals:
    def test_initialisers_seed_globals(self):
        cfg = compile_program("int a = 7; int b; int main() { return 0; }")
        result = analyze_program(cfg, dom)
        assert result.globals["a"] == const(7)
        assert result.globals["b"] == const(0)

    def test_flow_insensitive_join_of_writes(self):
        cfg = compile_program(
            "int g = 0; int main(int c) {"
            " if (c) { g = 10; } else { g = -10; } return g; }"
        )
        result = analyze_program(cfg, dom)
        assert result.globals["g"] == Interval(-10, 10)

    def test_post_loop_global_write_narrows(self):
        """The headline Figure 7 scenario: a global receives a value that
        is only tight after narrowing -- the combined operator keeps it
        tight, classical two-phase does not."""
        src = (
            "int g = 0; int main() { int i = 0;"
            " while (i < 10) { i = i + 1; } g = i; return g; }"
        )
        cfg = compile_program(src)
        combined = analyze_program(cfg, dom)
        classical = analyze_program_twophase(cfg, dom)
        assert combined.globals["g"] == Interval(0, 10)
        assert classical.globals["g"] == Interval(0, POS_INF)

    def test_global_arrays_weakly_updated(self):
        cfg = compile_program(
            "int buf[4]; int main() { buf[0] = 9; return buf[1]; }"
        )
        result = analyze_program(cfg, dom)
        assert result.globals["buf"] == Interval(0, 9)


class TestResultProjections:
    def test_env_at_joins_contexts(self):
        cfg = compile_program(EXAMPLE7)
        result = analyze_program(cfg, dom, policy=FullValueContext())
        fn = cfg.functions["f"]
        env = result.env_at("f", fn.entry)
        assert env is not LiftedBottom
        assert env["b"] == Interval(1, 2)  # join of the two contexts

    def test_unknown_count_matches_sigma(self):
        cfg = compile_program(EXAMPLE7)
        result = analyze_program(cfg, dom)
        assert result.unknown_count == len(result.solver_result.dom)

    def test_root_is_main_exit(self):
        cfg = compile_program(EXAMPLE7)
        analysis = InterAnalysis(cfg, dom)
        root = analysis.root()
        assert isinstance(root, PP)
        assert root.fn == "main"
        assert root.node == cfg.functions["main"].exit


#: Builds the same two unknowns in any interpreter and pickles them.
_UNKNOWNS = (
    "from repro.analysis.inter import GV, PP\n"
    "from repro.lang.cfg import Node\n"
    "from repro.lattices.interval import Interval\n"
    "ctx = (('b', Interval(1, 2)), ('tag', 'left'))\n"
    "unknowns = (PP('f', ctx, Node('f', 3)), GV('g'))\n"
)


class TestUnknownKeys:
    """PP and GV hash once, at construction; pickles carry no hash."""

    def test_hash_is_the_field_tuple_hash(self):
        ctx = (("b", Interval(1, 2)),)
        node = Node("f", 3)
        assert hash(PP("f", ctx, node)) == hash(("f", ctx, node))
        assert hash(GV("g")) == hash(("g",))

    def test_pickles_from_another_hash_seed_are_found_as_keys(self):
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        child = subprocess.run(
            [
                sys.executable,
                "-c",
                _UNKNOWNS + "import pickle, sys\n"
                "sys.stdout.buffer.write(pickle.dumps((hash('f'), unknowns)))\n",
            ],
            env=env,
            capture_output=True,
            check=True,
            timeout=60,
        )
        child_str_hash, (pp, gv) = pickle.loads(child.stdout)
        # Precondition: the child really hashed strings differently.
        assert child_str_hash != hash("f")
        local: dict = {}
        exec(_UNKNOWNS, local)
        local_pp, local_gv = local["unknowns"]
        assert (pp, gv) == (local_pp, local_gv)
        table = {local_pp: "pp", local_gv: "gv"}
        assert table[pp] == "pp"
        assert table[gv] == "gv"
        assert {pp, gv} == set(table)


class TestSystemClosures:
    """One system builds each right-hand side once, and it stays pure."""

    def test_equal_unknowns_share_one_closure_per_system(self):
        cfg = compile_program(EXAMPLE7)
        analysis = InterAnalysis(cfg, dom, FullValueContext())
        system = analysis.system()
        root = analysis.root()
        again = PP(root.fn, root.ctx, root.node)
        assert again is not root
        assert system.rhs(again) is system.rhs(root)
        assert system.rhs(GV("g")) is system.rhs(GV("g"))
        assert analysis.system().rhs(root) is not system.rhs(root)

    def test_repeated_post_solution_checks_agree(self):
        source = """
        int g = 0;
        int main() {
            int i = 0;
            while (i < 10) { g = i; i = i + 1; }
            return i;
        }
        """
        analysis = InterAnalysis(compile_program(source), dom)
        system = analysis.system()
        op = WarrowCombine(analysis.lattice)
        with pytest.raises(DivergenceError) as stopped:
            solve_slr_side(system, op, analysis.root(), max_evals=16)
        partial = stopped.value.sigma
        result = solve_slr_side(system, op, analysis.root())
        assert check_post_solution(system, result.sigma) == []
        assert check_post_solution(system, result.sigma) == []
        # The closures both solves and both checks used evaluate the
        # stopped run's values exactly as fresh closures do.
        assert _evaluate_all(system, partial) == _evaluate_all(
            analysis.system(), partial
        )


def _evaluate_all(system, sigma) -> dict:
    """Each right-hand side of ``sigma``'s unknowns against ``sigma``:
    its own value and the side effects it emits, in order."""

    def get(y):
        return sigma[y] if y in sigma else system.init(y)

    out = {}
    for x in sigma:
        effects: list = []
        own = system.rhs(x)(get, lambda z, d: effects.append((z, d)))
        out[x] = (own, effects)
    return out
