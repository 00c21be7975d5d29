"""Job execution: classification, fingerprints, failure isolation."""

from __future__ import annotations

import pytest

from repro.batch import (
    EXIT_DIVERGENCE,
    EXIT_FAULT,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_UNKNOWN,
    JobResult,
    JobSpec,
    execute_job,
)

LOOP = """
int g = 0;
int main() {
    int i = 0;
    while (i < 10) { i = i + 1; }
    g = i;
    return g;
}
"""

VIOLATED = "int main() { int x = 1; assert(x == 2); return 0; }"


def loop_job(**overrides) -> JobSpec:
    fields = dict(id="t/loop/warrow", family="t", program="loop", source=LOOP)
    fields.update(overrides)
    return JobSpec(**fields)


class TestExecuteJob:
    def test_ok_job_carries_stats_and_hash(self):
        result = execute_job(loop_job())
        assert result.status == "ok"
        assert result.code == EXIT_OK
        assert result.evaluations > 0
        assert result.updates > 0
        assert result.unknowns > 0
        assert len(result.hash) == 64
        assert result.wall_time > 0
        assert result.error == ""

    def test_fingerprint_is_stable_across_executions(self):
        first = execute_job(loop_job())
        second = execute_job(loop_job())
        assert first.hash == second.hash
        assert first.deterministic() == second.deterministic()

    def test_direction_counters_are_populated(self):
        result = execute_job(loop_job())
        # A widening/narrowing loop must commit in both directions.
        assert result.widen_updates > 0
        assert result.narrow_updates > 0

    def test_budget_divergence_maps_to_code_three(self):
        result = execute_job(loop_job(max_evals=3))
        assert result.status == "divergence"
        assert result.code == EXIT_DIVERGENCE
        assert result.hash == ""
        assert "DivergenceError" in result.error

    def test_deadline_divergence_maps_to_code_three(self):
        result = execute_job(loop_job(deadline=1e-6))
        assert result.status == "divergence"
        assert result.code == EXIT_DIVERGENCE
        assert "Deadline" in result.error

    def test_invalid_deadline_maps_to_code_two(self):
        result = execute_job(loop_job(deadline=0.0))
        assert result.status == "input-error"
        assert result.code == EXIT_INPUT

    def test_parse_error_maps_to_code_two(self):
        result = execute_job(loop_job(source="int main( {"))
        assert result.status == "input-error"
        assert result.code == EXIT_INPUT

    def test_unknown_solver_maps_to_code_two(self):
        result = execute_job(loop_job(solver="no-such-solver"))
        assert result.code == EXIT_INPUT

    def test_unknown_operator_maps_to_code_two(self):
        result = execute_job(loop_job(op="wobble"))
        assert result.code == EXIT_INPUT

    def test_chaos_raise_maps_to_code_four(self):
        result = execute_job(loop_job(chaos_fail_at=1))
        assert result.status == "fault"
        assert result.code == EXIT_FAULT
        assert result.error

    def test_chaos_delay_storm_diverges_not_faults(self):
        # The satellite recipe: a chaos delay on every evaluation plus a
        # watchdog deadline makes the run exceed its wall budget -- the
        # job reports divergence (3), never an unhandled fault.
        result = execute_job(
            loop_job(
                chaos_rate=1.0,
                chaos_kinds=("delay",),
                chaos_max_faults=10**9,
                deadline=0.02,
            )
        )
        assert result.status == "divergence"
        assert result.code == EXIT_DIVERGENCE
        assert "Deadline" in result.error

    def test_never_raises_on_arbitrary_garbage(self):
        result = execute_job(loop_job(domain="no-such-domain"))
        assert result.code == EXIT_INPUT


class TestIntervalOverflow:
    """Products beyond float range used to end jobs as internal faults."""

    @pytest.mark.parametrize("solver", ["slr+", "slr2", "slr3"])
    @pytest.mark.parametrize("context", ["insensitive", "sign"])
    @pytest.mark.parametrize("program", ["fac", "recursion"])
    def test_wpoint_job_is_never_an_internal_fault(self, program, context, solver):
        from repro.bench.wcet import PROGRAMS

        job = JobSpec(
            id=f"wcet/{program}/wpoint",
            family="wcet",
            program=program,
            source=PROGRAMS[program].source,
            context=context,
            solver=solver,
            op="wpoint",
            max_evals=20_000,
        )
        result = execute_job(job)
        assert result.code in (EXIT_OK, EXIT_DIVERGENCE), result.error


class TestVerifyJobs:
    def test_proved_assertions_stay_ok(self):
        src = LOOP.replace("return g;", "assert(g <= 10); return g;")
        result = execute_job(loop_job(source=src, verify=True))
        assert result.status == "ok"
        assert result.code == EXIT_OK
        assert result.proved == 1
        assert result.unproved == 0

    def test_violated_assertion_maps_to_code_two(self):
        result = execute_job(loop_job(source=VIOLATED, verify=True))
        assert result.status == "violated"
        assert result.code == EXIT_INPUT
        assert result.unproved == 1

    def test_unknown_assertion_maps_to_code_one(self):
        # Plain widening overshoots to +oo without narrowing back under
        # the two-phase solver; here an interval the analysis cannot
        # bound: an unconstrained parameter.
        src = "int main(int a) { assert(a <= 5); return 0; }"
        result = execute_job(loop_job(source=src, verify=True))
        assert result.status == "unknown"
        assert result.code == EXIT_UNKNOWN


class TestRoundTrip:
    def test_result_json_round_trip(self):
        result = execute_job(loop_job())
        assert JobResult.from_json(result.to_json()) == result

    def test_with_deadline_copies(self):
        job = loop_job()
        stamped = job.with_deadline(1.5)
        assert stamped.deadline == 1.5
        assert job.deadline is None
        assert stamped.id == job.id


class TestOptionEcho:
    """Results must echo the configuration that produced them -- cache
    keys and stored documents would otherwise conflate distinct runs."""

    def test_success_echoes_solver_and_domain_options(self):
        result = execute_job(loop_job(domain="sign", op="widen"))
        assert result.solver == "slr+"
        assert result.domain == "sign"
        assert result.context == "insensitive"
        assert result.op == "widen"

    def test_failures_echo_options_too(self):
        result = execute_job(loop_job(source="int main( {", domain="sign"))
        assert result.status == "input-error"
        assert result.domain == "sign"
        assert result.solver == "slr+"

    def test_echo_round_trips_through_json(self):
        result = execute_job(loop_job(op="widen"))
        assert JobResult.from_json(result.to_json()).op == "widen"


class TestFingerprints:
    def test_same_request_same_fingerprint(self):
        from repro.batch import spec_fingerprint

        assert spec_fingerprint(loop_job()) == spec_fingerprint(loop_job())

    def test_every_semantic_option_is_covered(self):
        """Regression: the content address must change when ANY
        result-relevant option changes, not just the program text."""
        from repro.batch import spec_fingerprint

        base = spec_fingerprint(loop_job())
        variants = dict(
            source=LOOP + "\n// trailing comment",
            domain="sign",
            context="full",
            solver="slr",
            op="widen",
            widen_delay=3,
            thresholds=True,
            max_evals=99,
            verify=True,
        )
        prints = {name: spec_fingerprint(loop_job(**{name: value}))
                  for name, value in variants.items()}
        assert base not in prints.values()
        assert len(set(prints.values())) == len(prints)

    def test_identity_fields_do_not_perturb_the_key(self):
        """Job id / family / program label are routing metadata, not
        analysis configuration -- two submissions of the same analysis
        under different labels must share a cache entry."""
        from repro.batch import spec_fingerprint

        a = loop_job(id="x/1", family="x", program="first")
        b = loop_job(id="y/2", family="y", program="second")
        assert spec_fingerprint(a) == spec_fingerprint(b)

    def test_options_fingerprint_ignores_source(self):
        from repro.batch import options_fingerprint

        edited = loop_job(source=LOOP.replace("i < 10", "i < 12"))
        assert options_fingerprint(loop_job()) == options_fingerprint(edited)
        assert options_fingerprint(loop_job()) != options_fingerprint(
            loop_job(domain="sign")
        )

    def test_chaos_jobs_cannot_be_content_addressed(self):
        import pytest

        from repro.batch import spec_fingerprint

        with pytest.raises(ValueError):
            spec_fingerprint(loop_job(chaos_rate=0.5))
