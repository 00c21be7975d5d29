"""Tests for widening-point selection and selective acceleration."""

from __future__ import annotations

import pytest

from repro.analysis import IntervalDomain
from repro.analysis.intra import build_intra_system
from repro.bench.randsys import RandomSystemConfig, random_monotone_system
from repro.lang import compile_program
from repro.lattices import NatInf
from repro.lattices.interval import Interval, POS_INF, const
from repro.solvers import (
    WarrowCombine,
    selective_combine,
    selective_warrow_combine,
    solve_sw,
    widening_points,
)

nat = NatInf()


class TestWideningPoints:
    def test_acyclic_graph_has_no_points(self):
        deps = {"a": [], "b": ["a"], "c": ["b"]}
        assert widening_points(["c"], lambda x: deps[x]) == set()

    def test_self_loop(self):
        deps = {"a": ["a"]}
        assert widening_points(["a"], lambda x: deps[x]) == {"a"}

    def test_simple_cycle_cut_once(self):
        deps = {"a": ["b"], "b": ["c"], "c": ["a"]}
        points = widening_points(["a"], lambda x: deps[x])
        assert len(points) == 1

    def test_every_cycle_is_cut(self):
        """Random graphs: removing the points leaves an acyclic graph."""
        import random

        for seed in range(20):
            rng = random.Random(seed)
            nodes = [f"n{i}" for i in range(12)]
            deps = {
                n: [rng.choice(nodes) for _ in range(rng.randrange(0, 3))]
                for n in nodes
            }
            points = widening_points(nodes, lambda x: deps[x])
            # Check acyclicity of the remaining graph by DFS.
            remaining = {
                n: [d for d in deps[n] if d not in points]
                for n in nodes
                if n not in points
            }
            state: dict = {}

            def acyclic(n) -> bool:
                if state.get(n) == "done":
                    return True
                if state.get(n) == "active":
                    return False
                state[n] = "active"
                ok = all(acyclic(d) for d in remaining.get(n, []) if d in remaining)
                state[n] = "done"
                return ok

            assert all(acyclic(n) for n in remaining)


class TestSelectiveCombine:
    def test_dispatch(self):
        op = selective_combine(nat, points={"w"})
        # At the point: widening jumps to infinity.
        assert op("w", 3, 5) == float("inf")
        # Elsewhere: plain join.
        assert op("x", 3, 5) == 5

    def test_fresh_restores_member_budgets(self):
        inner = WarrowCombine(nat, delay=1)
        op = selective_combine(nat, points={"w"}, accelerated=inner)
        assert op("w", 0, 1) == 1  # delayed: join
        clone = op.fresh()
        assert clone("w", 0, 1) == 1  # budget restored in the clone
        assert op("w", 1, 2) == float("inf")  # the original's is spent


class TestPrecisionOnPrograms:
    dom = IntervalDomain()

    def loop_system(self):
        cfg = compile_program(
            "int main(int c) { int i = 0; int x = 0;"
            " if (c) { x = 1; } else { x = 5; }"
            " while (i < 10) { i = i + 1; }"
            " return x + i; }"
        )
        return build_intra_system(cfg, "main", self.dom)

    def order_of(self, system, fn):
        from repro.solvers.ordering import dfs_priority_order

        return dfs_priority_order([fn.exit], system.deps)

    def test_selective_no_less_precise_than_global_warrow(self):
        system, env_lat, fn = self.loop_system()
        points = widening_points(list(system.unknowns), system.deps)
        order = self.order_of(system, fn)
        everywhere = solve_sw(system, WarrowCombine(env_lat), order=order)
        selective = solve_sw(
            system,
            selective_warrow_combine(env_lat, points),
            order=order,
            max_evals=500_000,
        )
        for node in system.unknowns:
            assert env_lat.leq(selective.sigma[node], everywhere.sigma[node])

    def test_same_loop_bound(self):
        system, env_lat, fn = self.loop_system()
        points = widening_points(list(system.unknowns), system.deps)
        selective = solve_sw(
            system,
            selective_warrow_combine(env_lat, points),
            order=self.order_of(system, fn),
            max_evals=500_000,
        )
        exit_env = selective.sigma[fn.exit]
        assert exit_env["i"] == const(10)
        assert exit_env["x"] == Interval(1, 5)

    def test_heads_first_order_triggers_premature_narrowing(self):
        """The ping-pong pathology documented in intra.py: with a
        heads-first (WTO) order, selective acceleration narrows the loop
        head before the body catches up and the switch bound freezes the
        over-approximation.  The deepest-first order avoids it."""
        from repro.solvers.ordering import weak_topological_order

        system, env_lat, fn = self.loop_system()
        points = widening_points(list(system.unknowns), system.deps)
        wto = weak_topological_order(list(system.unknowns), system.deps)
        heads_first = solve_sw(
            system,
            selective_warrow_combine(env_lat, points),
            order=wto,
            max_evals=500_000,
        )
        deepest_first = solve_sw(
            system,
            selective_warrow_combine(env_lat, points),
            order=self.order_of(system, fn),
            max_evals=500_000,
        )
        assert deepest_first.sigma[fn.exit]["i"] == const(10)
        assert heads_first.sigma[fn.exit]["i"] == Interval(10, POS_INF)


class TestTermination:
    @pytest.mark.parametrize("seed", range(15))
    def test_terminates_on_monotone_systems(self, seed):
        system = random_monotone_system(
            RandomSystemConfig(size=8, max_deps=3, seed=seed)
        )
        points = widening_points(list(system.unknowns), system.deps)
        result = solve_sw(
            system,
            selective_warrow_combine(nat, points),
            max_evals=500_000,
        )
        # Post-solution property still holds.
        from repro.eqs.tracked import trace_rhs

        for x in system.unknowns:
            value, _ = trace_rhs(system.rhs(x), lambda y: result.sigma[y])
            assert nat.leq(value, result.sigma[x])
