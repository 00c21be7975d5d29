"""How a snapshot's environments decode.

An environment over the keys of its function's live schema decodes into
that schema, so a warm start runs its lattice operations, fingerprint and
capture on the slot path.  An environment over other keys -- a function
whose layout changed since the snapshot -- decodes over its own keys;
``diff_cfg`` drops that function and ``transfer_state`` prunes its
points, so the edit still warm-starts.
"""

from __future__ import annotations

import pytest

from repro.analysis.inter import InterAnalysis
from repro.batch.jobs import JobSpec, build_domain, spec_fingerprint
from repro.incremental import SolverState, analyze_and_snapshot
from repro.lang import compile_program
from repro.lattices import ArrayEnv, LiftedBottom
from repro.lattices.union import UNION_BOT, UNION_TOP
from repro.service.executor import execute_service_job

PROGRAM = """
int g = 0;
int step(int x) {
  int y;
  y = x + 1;
  return y;
}
int main() {
  int i;
  int s;
  i = 0;
  s = 0;
  while (i < 10) {
    i = step(i);
    s = s + i;
    g = s;
  }
  while (s > 0) {
    s = s - 3;
  }
  return i;
}
"""
#: ``step`` gains a local it never uses: its layout changes, nothing else.
EDITED = PROGRAM.replace("  int y;\n", "  int y;\n  int unused;\n")


def environments(sigma):
    """``(tag, environment)`` for every environment value of ``sigma``."""
    for value in sigma.values():
        if value is UNION_BOT or value is UNION_TOP:
            continue
        tag, payload = value
        if tag != "val" and payload is not LiftedBottom:
            yield tag, payload


class TestLoadsDecodesIntoTheLiveSchema:
    def test_every_environment_is_an_array_env_of_the_live_schema(self):
        cfg = compile_program(PROGRAM)
        domain = build_domain("interval")
        result, state = analyze_and_snapshot(cfg, domain)
        live = InterAnalysis(cfg, domain).lattice
        restored = SolverState.loads(state.dumps(result.lattice), live)
        decoded = list(environments(restored.sigma))
        assert {tag for tag, _ in decoded} == {("env", "main"), ("env", "step")}
        for tag, env in decoded:
            assert type(env) is ArrayEnv, (tag, type(env))
            assert env.schema is live.branches[tag].inner.schema, tag
        assert restored.sigma == state.sigma


class TestLayoutChangeStillWarmStarts:
    @pytest.mark.parametrize("solver", ["slr+", "slr2", "slr3"])
    def test_added_unused_local_answers_warm_with_the_cold_hash(self, solver):
        def job(source):
            return JobSpec(
                id="svc/layout/warrow",
                family="service",
                program="layout",
                source=source,
                solver=solver,
            )

        donor = execute_service_job(job(PROGRAM))
        assert donor.state is not None
        warm = execute_service_job(
            job(EDITED),
            donors=[(spec_fingerprint(job(PROGRAM)), PROGRAM, donor.state)],
        )
        cold = execute_service_job(job(EDITED))
        assert warm.mode == "warm"
        assert cold.mode == "cold"
        assert warm.result.status == "ok"
        assert warm.result.hash == cold.result.hash
