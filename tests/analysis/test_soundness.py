"""End-to-end soundness: abstract results must cover every concrete run.

Programs are drawn from the seeded random generator; every program point
the interpreter passes is checked against the interval analysis (joined
over contexts), including global values.  This is the strongest property
in the suite -- it transitively exercises the lexer, parser, CFG builder,
transfer functions, the union lattice, SLR+ and the combined operator.
The concrete oracle also covers every registered side-effecting local
solver under every solve-ready combine strategy, cold and warm-started;
both lists are read from the registries.
"""

from __future__ import annotations

import functools

import pytest

from repro.analysis import (
    FullValueContext,
    InsensitiveContext,
    IntervalDomain,
    analyze_program,
    collect_thresholds,
)
from repro.analysis.inter import analyze_program_twophase, sign_context
from repro.bench.progen import ProgramConfig, generate_program, single_constant_edits
from repro.incremental import capture, reanalyze_program
from repro.lang import compile_program, run_program
from repro.lattices.lifted import LiftedBottom
from repro.solvers.registry import all_specs
from repro.strategies import all_strategies

dom = IntervalDomain()


def assert_covers(result, run) -> None:
    """Every observation of ``run`` is covered by ``result``."""
    for obs in run.observations:
        env = result.env_at(obs.node.fn, obs.node)
        assert env is not LiftedBottom, f"{obs.node} visited but 'unreachable'"
        for var, val in obs.locals.items():
            assert dom.contains(env[var], val), (
                f"{obs.node}: {var}={val} not in {dom.format(env[var])}"
            )
        for g, val in obs.globals.items():
            gv = result.globals.get(g, dom.bottom)
            assert dom.contains(gv, val), (
                f"global {g}={val} not in {dom.format(gv)}"
            )


def generated(seed: int, **overrides) -> tuple:
    settings = dict(
        functions=2, stmts_per_function=6, global_arrays=1, seed=seed
    )
    settings.update(overrides)
    src = generate_program(ProgramConfig(**settings))
    return src, compile_program(src)


@pytest.mark.parametrize("seed", range(25))
def test_combined_operator_analysis_is_sound(seed):
    src, cfg = generated(seed)
    run = run_program(src, record=True, fuel=300_000)
    result = analyze_program(cfg, dom, max_evals=500_000)
    assert_covers(result, run)


@pytest.mark.parametrize("seed", range(12))
def test_full_context_analysis_is_sound(seed):
    src, cfg = generated(seed)
    run = run_program(src, record=True, fuel=300_000)
    result = analyze_program(
        cfg, dom, policy=FullValueContext(), max_evals=500_000
    )
    assert_covers(result, run)


@pytest.mark.parametrize("seed", range(12))
def test_sign_context_analysis_is_sound(seed):
    src, cfg = generated(seed)
    run = run_program(src, record=True, fuel=300_000)
    result = analyze_program(
        cfg, dom, policy=sign_context(dom), max_evals=500_000
    )
    assert_covers(result, run)


@pytest.mark.parametrize("seed", range(12))
def test_classical_two_phase_is_sound(seed):
    """The baseline is less precise but must still be sound."""
    src, cfg = generated(seed)
    run = run_program(src, record=True, fuel=300_000)
    result = analyze_program_twophase(cfg, dom, max_evals=500_000)
    assert_covers(result, run)


def test_combined_beats_classical_in_aggregate():
    """Across a batch of random programs the combined operator improves
    far more program points than it loses.

    Point-wise domination does *not* hold in general: values feed back
    into widening through non-monotonic global reads, so individual
    points may degrade -- the paper accordingly reports the percentage of
    *improved* points (Fig. 7), not an absence of regressions.
    """
    from repro.analysis.compare import compare_results

    better = worse = 0
    for seed in range(15):
        src, cfg = generated(seed)
        combined = analyze_program(cfg, dom, max_evals=500_000)
        classical = analyze_program_twophase(cfg, dom, max_evals=500_000)
        comparison = compare_results(combined, classical)
        better += comparison.better
        worse += comparison.worse
    assert better > 3 * worse
    assert better > 0


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_deeper_programs_are_sound(seed):
    src, cfg = generated(
        seed, functions=3, stmts_per_function=10, max_depth=3
    )
    run = run_program(src, record=True, fuel=300_000)
    result = analyze_program(cfg, dom, max_evals=1_000_000)
    assert_covers(result, run)


SIDE_SOLVERS = [
    spec.name
    for spec in all_specs()
    if spec.side_effecting and spec.scope == "local" and spec.takes_op
]
SOLVE_READY = [
    info
    for info in all_strategies()
    if info.kind == "combine" and info.solve_ready
]


@functools.lru_cache(maxsize=None)
def concrete_run(src: str):
    return run_program(src, record=True, fuel=300_000)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("strategy", SOLVE_READY, ids=lambda info: info.name)
@pytest.mark.parametrize("solver", SIDE_SOLVERS)
def test_every_side_solver_and_strategy_is_sound(solver, strategy, seed):
    src, cfg = generated(seed)
    domain = (
        IntervalDomain(thresholds=collect_thresholds(cfg))
        if strategy.needs_thresholds
        else dom
    )
    result = analyze_program(
        cfg, domain, solver=solver, op_spec=strategy.name, max_evals=500_000
    )
    assert_covers(result, concrete_run(src))


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("reset", ["none", "destabilized"])
@pytest.mark.parametrize("solver", SIDE_SOLVERS)
def test_warm_starts_are_sound(solver, reset, seed):
    """Each warm start after a single-constant edit covers the edited run."""
    src, cfg = generated(seed)
    cold = analyze_program(cfg, dom, solver=solver, max_evals=500_000)
    state = capture(cold.solver_result, solver)
    edits = single_constant_edits(src)
    assert edits
    for edited in edits:
        report = reanalyze_program(
            cfg, compile_program(edited), state, dom, max_evals=500_000, reset=reset
        )
        assert_covers(report.result, concrete_run(edited))
