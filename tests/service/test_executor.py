"""Service execution: cold supervision, warm resumption, fallbacks."""

from __future__ import annotations

import pytest

from repro.analysis.inter import InterAnalysis
from repro.batch.jobs import (
    EXIT_DIVERGENCE,
    EXIT_INPUT,
    EXIT_OK,
    JobSpec,
    build_domain,
    build_policy,
    execute_job,
    solution_fingerprint,
    spec_fingerprint,
)
from repro.bench.wcet import PROGRAMS
from repro.incremental import SolverState, transfer_state
from repro.lang import compile_program
from repro.lang.diff import diff_cfg
from repro.service.executor import execute_service_job, should_warm
from repro.solvers.registry import get_warm_start
from repro.strategies import BuildContext, build_combine, resolve_spec

PROGRAM = """
int main() {
  int i;
  int s;
  i = 0;
  s = 0;
  while (i < 10) {
    s = s + 2;
    i = i + 1;
  }
  return s;
}
"""
EDITED = PROGRAM.replace("i < 10", "i < 12")
REWRITTEN = """
int other(int a) { return a + 1; }
int main() { return other(41); }
"""


def job(source=PROGRAM, **overrides) -> JobSpec:
    fields = dict(
        id="svc/test/warrow", family="service", program="t", source=source
    )
    fields.update(overrides)
    return JobSpec(**fields)


class TestColdPath:
    def test_ok_run_is_verified_and_snapshotted(self):
        execution = execute_service_job(job())
        assert execution.mode == "cold"
        assert execution.verified is True
        assert execution.result.status == "ok"
        assert execution.result.code == EXIT_OK
        assert execution.result.evaluations > 0
        assert execution.result.hash
        assert execution.state, "slr+ runs must capture a resume snapshot"
        assert execution.warm_donor is None

    def test_option_echo_present(self):
        execution = execute_service_job(job())
        result = execution.result
        assert result.solver == "slr+"
        assert result.domain == "interval"
        assert result.context == "insensitive"
        assert result.op == "warrow"

    def test_parse_error_classified_not_raised(self):
        execution = execute_service_job(job(source="int main( {"))
        assert execution.result.status == "input-error"
        assert execution.result.code == EXIT_INPUT
        assert execution.state is None
        assert execution.verified is False

    def test_budget_exhaustion_is_divergence(self):
        execution = execute_service_job(job(max_evals=3))
        assert execution.result.status == "divergence"
        assert execution.result.code == EXIT_DIVERGENCE

    @pytest.mark.parametrize("deadline", [0.0, -1.0])
    def test_non_positive_deadline_is_an_input_error(self, deadline):
        spec = job(deadline=deadline)
        execution = execute_service_job(spec)
        assert execution.result.status == "input-error"
        assert execution.result.code == EXIT_INPUT
        assert execution.result.error == execute_job(spec).error
        assert execution.state is None

    def test_non_positive_deadline_with_a_donor_is_an_input_error(self):
        cold = execute_service_job(job())
        donor = (spec_fingerprint(job()), PROGRAM, cold.state)
        execution = execute_service_job(
            job(source=EDITED, deadline=0.0), [donor]
        )
        assert execution.result.status == "input-error"
        assert execution.result.code == EXIT_INPUT

    def test_verify_folds_assertion_verdicts(self):
        violated = "int main() { int x = 1; assert(x == 2); return 0; }"
        execution = execute_service_job(job(source=violated, verify=True))
        assert execution.result.status == "violated"
        assert execution.result.code == EXIT_INPUT
        # A violated-assertion analysis is still a complete, verified
        # solver run -- the daemon may cache it.
        assert execution.verified is True


class TestWarmPath:
    def _donor(self):
        cold = execute_service_job(job())
        return (
            spec_fingerprint(job()),
            PROGRAM,
            cold.state,
            cold.result.evaluations,
        )

    def test_small_edit_resumes_warm_with_fewer_evaluations(self):
        key, source, state, cold_evals = self._donor()
        edited = job(source=EDITED)
        cold_edited = execute_service_job(edited)

        warm = execute_service_job(edited, donors=[(key, source, state)])
        assert warm.mode == "warm"
        assert warm.warm_donor == key
        assert warm.dirty_nodes > 0
        assert warm.verified is True
        assert warm.result.status == "ok"
        assert warm.result.evaluations < cold_edited.result.evaluations

    def test_warm_solution_is_independently_verified(self):
        # A warm resume may land on a *different* (even tighter) warrow
        # fixpoint than a cold solve -- both are sound.  What the service
        # guarantees is that every warm result passed the independent
        # post-solution verifier before being served.
        key, source, state, _ = self._donor()
        edited = job(source=EDITED)
        warm = execute_service_job(edited, donors=[(key, source, state)])
        assert warm.mode == "warm"
        assert warm.verified is True
        assert warm.result.hash
        assert warm.state, "a verified warm run re-captures its snapshot"

    def test_large_diff_falls_back_to_cold(self):
        key, source, state, _ = self._donor()
        execution = execute_service_job(
            job(source=REWRITTEN), donors=[(key, source, state)]
        )
        assert execution.mode == "cold"
        assert execution.warm_donor is None
        assert execution.result.status == "ok"

    def test_corrupt_snapshot_falls_back_to_cold(self):
        key, source, _, _ = self._donor()
        execution = execute_service_job(
            job(source=EDITED), donors=[(key, source, "{not json")]
        )
        assert execution.mode == "cold"
        assert execution.result.status == "ok"

    def test_unparsable_donor_source_falls_back_to_cold(self):
        key, _, state, _ = self._donor()
        execution = execute_service_job(
            job(source=EDITED), donors=[(key, "int main( {", state)]
        )
        assert execution.mode == "cold"
        assert execution.result.status == "ok"

    def test_first_viable_donor_wins(self):
        key, source, state, _ = self._donor()
        execution = execute_service_job(
            job(source=EDITED),
            donors=[("bad", source, "{corrupt"), (key, source, state)],
        )
        assert execution.mode == "warm"
        assert execution.warm_donor == key


class TestWarmResumesRequestedSolver:
    """A warm request resumes the solver it names, not always SLR+."""

    SOURCE = PROGRAMS["fibcall"].source
    EDITED = SOURCE.replace("int a = 0;", "int a = 1;")

    @pytest.mark.parametrize("solver", ["slr2", "slr3"])
    def test_warm_reply_is_the_solvers_own_warm_start(self, solver):
        base = job(source=self.SOURCE, solver=solver)
        donor = execute_service_job(base)
        edited = job(source=self.EDITED, solver=solver)
        warm = execute_service_job(
            edited, donors=[(spec_fingerprint(base), self.SOURCE, donor.state)]
        )
        assert warm.mode == "warm"

        cfg = compile_program(self.EDITED)
        domain = build_domain("interval")
        analysis = InterAnalysis(cfg, domain, build_policy("insensitive", domain))
        op = build_combine(
            resolve_spec("warrow", widen_delay=1),
            analysis.lattice,
            ctx=BuildContext(cfg=cfg),
        )
        transferred, dirty = transfer_state(
            SolverState.loads(donor.state, analysis.lattice),
            diff_cfg(compile_program(self.SOURCE), cfg),
            cfg,
        )
        own = get_warm_start(solver)(
            analysis.system(), op, analysis.root(), transferred, dirty
        )
        assert warm.result.hash == solution_fingerprint(
            own.sigma, analysis.lattice
        )
        stored = SolverState.loads(warm.state, analysis.lattice)
        assert transferred.wpoints
        assert transferred.wpoints <= stored.wpoints


class TestShouldWarm:
    def test_identical_programs_warm(self):
        old = compile_program(PROGRAM)
        new = compile_program(PROGRAM)
        assert should_warm(diff_cfg(old, new), new)

    def test_disjoint_programs_do_not(self):
        old = compile_program(PROGRAM)
        new = compile_program(REWRITTEN)
        assert not should_warm(diff_cfg(old, new), new)

    def test_ratio_knob(self):
        old = compile_program(PROGRAM)
        new = compile_program(EDITED)
        diff = diff_cfg(old, new)
        assert should_warm(diff, new, max_dirty_ratio=0.5)
        assert not should_warm(diff, new, max_dirty_ratio=0.0)


class TestBatchAgreement:
    def test_service_results_equal_batch_results_on_the_quick_corpus(self):
        from repro.batch.corpus import corpus_jobs
        from repro.batch.jobs import execute_job

        jobs = corpus_jobs(quick=True)
        assert len(jobs) == 57
        differing = {}
        for spec in jobs:
            service = execute_service_job(spec).result.deterministic()
            batch = execute_job(spec).deterministic()
            if service != batch:
                differing[spec.id] = {
                    key: (service[key], batch[key])
                    for key in batch
                    if service[key] != batch[key]
                }
        assert differing == {}
