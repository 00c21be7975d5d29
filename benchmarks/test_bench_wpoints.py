"""Ablation: widening-point selection combined with the paper's operator.

The paper positions its contribution as complementary to techniques that
reduce the number of widening points.  This ablation runs the WCET
intraprocedural systems with (a) the combined operator at every unknown
and (b) the combined operator only at loop heads (join-or-narrow with the
Section 4 switch bound elsewhere), comparing precision and evaluation
counts.
"""

from __future__ import annotations

from repro.analysis import IntervalDomain
from repro.analysis.intra import build_intra_system
from repro.bench.wcet import PROGRAMS
from repro.lang import compile_program
from repro.lattices.lifted import LiftedBottom
from repro.solvers import (
    WarrowCombine,
    selective_warrow_combine,
    solve_sw,
    widening_points,
)
from repro.solvers.ordering import dfs_priority_order

#: (benchmark, call-free function) pairs for the intra analysis.
CANDIDATES = [
    ("janne_complex", "complex_loops"),
    ("prime", "is_prime"),
    ("expint", "expint"),
    ("isqrt", "isqrt"),
    ("fibcall", "fib"),
]


def informative(env_lat, sigma, dom) -> int:
    count = 0
    for env in sigma.values():
        if env is LiftedBottom:
            continue
        for value in env.values():
            if value is not None and not dom.is_top(value):
                count += 1
    return count


def run_ablation():
    dom = IntervalDomain()
    rows = []
    for prog_name, fn_name in CANDIDATES:
        cfg = compile_program(PROGRAMS[prog_name].source)
        system, env_lat, fn = build_intra_system(cfg, fn_name, dom)
        order = dfs_priority_order([fn.exit], system.deps)
        points = widening_points(list(system.unknowns), system.deps)
        everywhere = solve_sw(
            system, WarrowCombine(env_lat), order=order, max_evals=2_000_000
        )
        selective = solve_sw(
            system,
            selective_warrow_combine(env_lat, points),
            order=order,
            max_evals=2_000_000,
        )
        rows.append(
            (
                fn_name,
                len(points),
                len(list(system.unknowns)),
                everywhere.stats.evaluations,
                selective.stats.evaluations,
                informative(env_lat, everywhere.sigma, dom),
                informative(env_lat, selective.sigma, dom),
            )
        )
    return rows


def test_selective_widening_ablation(benchmark):
    rows = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    print(
        "\nfunction: widening points / unknowns | evals all/selective "
        "| informative all/selective"
    )
    for fn_name, n_points, n_unknowns, e_all, e_sel, i_all, i_sel in rows:
        print(
            f"  {fn_name:>13s}: {n_points:2d}/{n_unknowns:3d} | "
            f"{e_all:5d}/{e_sel:5d} | {i_all:4d}/{i_sel:4d}"
        )
        # Loop heads are a small fraction of the unknowns ...
        assert n_points < n_unknowns / 2
        # ... and selective acceleration never loses information here.
        assert i_sel >= i_all
