"""Staged transfer functions against the interpreting reference.

The interprocedural analysis stages every CFG edge once
(``InterAnalysis._in_steps``), and ``eval_expr``/``refine``/``apply_instr``
stage on each call.  On generated and hand-written programs, each staged
transfer must agree with the interpreting bodies kept in
``tests/analysis/reference_transfer.py``: the same result, the same
sequence of ``get`` calls (globals, callee exits) and the same buffered
side effects, or the same error.
"""

from __future__ import annotations

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.inter import (
    InsensitiveContext,
    InterAnalysis,
    analyze_program,
    sign_context,
)
from repro.analysis.transfer import (
    GlobalsAccess,
    TransferContext,
    apply_instr,
    eval_expr,
    refine,
)
from repro.analysis.values import IntervalDomain
from repro.bench.progen import ProgramConfig, generate_program
from repro.lang import compile_program
from repro.lang.cfg import AssertInstr, CallInstr, Guard, SetLocal, StoreArray
from repro.lattices.interval import NEG_INF, POS_INF, Interval
from repro.lattices.lifted import LiftedBottom
from repro.lattices.union import UNION_BOT
from tests.analysis import reference_transfer as ref

#: Guards, assertions and call targets that read and write globals, in
#: every shape the staged guard handles (``&&``, ``||``, ``!``,
#: comparisons, bare variables and array cells).
GUARDED = """
int g = 0;
int h = 5;
int arr[4];

int inc(int x) { return x + 1; }

int clamp(int v) {
  if (v > h && g < 10) { return h; }
  if (!(v >= 0) || g == 3) { return 0; }
  return v;
}

void touch(int k) { arr[k % 4] = k; g = g + k; }

int main() {
  int i;
  int s;
  int a[3];
  i = 0;
  s = 0;
  while (i < h) {
    if (g != i && arr[i % 4] <= g) { g = inc(g); }
    a[i % 3] = -g + s / 2;
    arr[i % 4] = a[i % 3] % 3;
    s = clamp(s + g);
    h = clamp(i);
    touch(i * 2);
    i = i + 1;
  }
  assert(g >= 0 && !(s < 0));
  if (g) { s = 1; }
  if (!h) { s = 2; }
  if (arr[1]) { s = 3; }
  if (1 < 2 || g) { s = 4; }
  if (g - h) { s = 5; }
  g = inc(s);
  return s;
}
"""

dom = IntervalDomain()

VALUES = [
    Interval(0, 0),
    Interval(1, 5),
    Interval(-3, 3),
    Interval(NEG_INF, 0),
    Interval(2, POS_INF),
    Interval(NEG_INF, POS_INF),
    Interval(7, 7),
]


class Lookup:
    """A solver ``get``: records each key, answers from a shared table
    that a seeded generator fills on first request."""

    def __init__(self, analysis, answers, rng) -> None:
        self.analysis = analysis
        self.answers = answers
        self.rng = rng
        self.calls = []

    def __call__(self, key):
        self.calls.append(key)
        if key not in self.answers:
            self.answers[key] = self._answer(key)
        return self.answers[key]

    def _answer(self, key):
        rng = self.rng
        if rng.random() < 0.15:
            return UNION_BOT
        if not hasattr(key, "node"):  # a global
            return ("val", rng.choice(VALUES))
        env_lat = self.analysis._env_lats[key.fn]
        if rng.random() < 0.1:
            return (("env", key.fn), LiftedBottom)
        return (("env", key.fn), random_env(rng, env_lat.inner))


def random_env(rng, env_lat):
    return env_lat.make({k: rng.choice(VALUES) for k in env_lat.keys})


def outcome(run):
    try:
        return ("ok", run())
    except Exception as err:  # noqa: BLE001 - compared, not swallowed
        return ("error", type(err).__name__, str(err))


def check_program(source, policy, seed, envs_per_edge=3):
    analysis = InterAnalysis(compile_program(source), dom, policy)
    rng = random.Random(seed)
    answers = {}
    edges = 0
    for fn in analysis.cfg.functions.values():
        env_lat = analysis._env_lats[fn.name].inner
        for node in fn.nodes:
            steps = analysis._in_steps(fn, node)
            in_edges = fn.in_edges(node)
            assert [src for src, _ in steps] == [e.src for e in in_edges]
            for (_, step), edge in zip(steps, in_edges):
                edges += 1
                for _ in range(envs_per_edge):
                    env = random_env(rng, env_lat)
                    staged_get = Lookup(analysis, answers, rng)
                    reference_get = Lookup(analysis, answers, rng)
                    staged_buffer, reference_buffer = {}, {}
                    staged = outcome(lambda: step(env, staged_get, staged_buffer))
                    reference = outcome(
                        lambda: ref.reference_step(
                            analysis,
                            fn,
                            edge.instr,
                            env,
                            reference_get,
                            reference_buffer,
                        )
                    )
                    assert staged == reference, edge
                    assert staged_get.calls == reference_get.calls, edge
                    assert staged_buffer == reference_buffer, edge
                    assert list(staged_buffer) == list(reference_buffer), edge
    return edges


def test_handwritten_guards_on_globals_match_the_reference():
    for seed in range(4):
        assert check_program(GUARDED, InsensitiveContext(), seed) > 40
        check_program(GUARDED, sign_context(dom), seed)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.booleans(),
    st.integers(min_value=0, max_value=2),
)
def test_generated_programs_match_the_reference(seed, signs, arrays):
    source = generate_program(
        ProgramConfig(seed=seed, global_arrays=arrays, global_weight=0.5)
    )
    policy = sign_context(dom) if signs else InsensitiveContext()
    check_program(source, policy, seed, envs_per_edge=2)


def test_a_literal_the_domain_rejects_fails_only_where_it_is_evaluated():
    # 10**400 has no float bound: abstracting it raises.  Staging the
    # edge must not, or dead code with such a literal would fail.
    big = "1" + "0" * 400
    dead = "int main() { int x; x = 0; if (x > 5) { x = %s; } return x; }"
    live = "int main() { int x; x = %s; return x; }"
    result = analyze_program(compile_program(dead % big), dom)
    assert result.solver_result.stats.evaluations > 0
    with pytest.raises(OverflowError):
        analyze_program(compile_program(live % big), dom)


# --------------------------------------------------------------------- #
# The entry points over a TransferContext.                             #
# --------------------------------------------------------------------- #

def context_for(fn, cfg, rng, log):
    table = {}

    def read(name):
        log.append(("read", name))
        if name not in table:
            table[name] = rng.choice(VALUES + [None])
        return table[name]

    def write(name, value):
        log.append(("write", name, value))

    return TransferContext(
        domain=dom,
        scalars=frozenset(fn.locals),
        arrays=frozenset(fn.arrays),
        globals=GlobalsAccess(read=read, write=write),
    )


def expressions(instr):
    if isinstance(instr, SetLocal):
        return [instr.expr]
    if isinstance(instr, StoreArray):
        return [instr.index, instr.value]
    if isinstance(instr, (Guard, AssertInstr)):
        return [instr.cond]
    if isinstance(instr, CallInstr):
        return list(instr.args)
    return []


def test_entry_points_match_the_reference():
    sources = [GUARDED] + [
        generate_program(ProgramConfig(seed=seed, global_arrays=1))
        for seed in range(6)
    ]
    for index, source in enumerate(sources):
        cfg = compile_program(source)
        analysis = InterAnalysis(cfg, dom)
        for fn in cfg.functions.values():
            env_lat = analysis._env_lats[fn.name].inner
            for edge in fn.edges:
                rng = random.Random(index)
                env = random_env(rng, env_lat)
                runs = []
                for interp in (
                    (eval_expr, refine, apply_instr),
                    (ref.eval_expr, ref.refine, ref.apply_instr),
                ):
                    evaluate, restrict, apply = interp
                    log = []
                    tc = context_for(fn, cfg, random.Random(index), log)
                    results = [
                        outcome(lambda e=e: evaluate(tc, env, e))
                        for e in expressions(edge.instr)
                    ]
                    if isinstance(edge.instr, (Guard, AssertInstr)):
                        for assume in (True, False):
                            results.append(
                                outcome(
                                    lambda a=assume: restrict(
                                        tc, env, edge.instr.cond, a
                                    )
                                )
                            )
                    results.append(outcome(lambda: apply(tc, env, edge.instr)))
                    results.append(
                        outcome(lambda: apply(tc, LiftedBottom, edge.instr))
                    )
                    runs.append((results, log))
                assert runs[0] == runs[1], edge
