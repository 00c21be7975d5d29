"""End-to-end supervision: escalation ladder, fallback cascade, chaos
recovery, and the acceptance scenarios on Example 1 and a WCET workload."""

from __future__ import annotations

import pytest

from repro.analysis import IntervalDomain
from repro.analysis.inter import InterAnalysis
from repro.bench.wcet import PROGRAMS as WCET_PROGRAMS
from repro.lang import compile_program
from repro.lattices import NatInf
from repro.solvers import WarrowCombine
from repro.solvers.registry import SolverCapabilityError
from repro.strategies import build_combine, escalation_ladder
from repro.supervise import (
    escalation_router,
    escalation_targets,
    fail_on_eval,
    supervised_solve,
)

nat = NatInf()


class TestCleanRuns:
    def test_local_solver_clean_first_attempt(self, example1):
        report = supervised_solve(example1, x0="x1", solver="slr", max_evals=1_000)
        assert report.ok and report.verified
        assert report.solver == "slr"
        assert not report.degraded
        assert report.result.sigma["x1"] == nat.top
        assert [a.outcome for a in report.attempts] == ["ok"]

    def test_global_solver_clean_first_attempt(self, example1):
        report = supervised_solve(example1, solver="sw", max_evals=1_000)
        assert report.ok and report.verified and not report.degraded

    def test_side_effecting_clean(self, example7_side):
        report = supervised_solve(
            example7_side, x0="main", solver="slr+", max_evals=1_000
        )
        assert report.ok and report.verified and not report.degraded

    def test_report_render_names_everything(self, example1):
        report = supervised_solve(
            example1, solver="rr", fallback=("sw",), max_evals=60, escalate=False
        )
        text = report.render()
        assert "fallback" in text
        assert "attempt: rr" in text and "attempt: sw" in text
        assert "post solution confirmed" in text


class TestEscalation:
    def test_rr_on_example1_recovers_by_escalation(self, example1):
        """The headline degradation: RR diverges on Example 1 under ⌴,
        the supervisor escalates the oscillating unknowns toward pure
        widening, and RR then terminates with a verified (coarser)
        post solution."""
        report = supervised_solve(example1, solver="rr", max_evals=80)
        assert report.ok, report.render()
        assert report.verified
        assert report.solver == "rr"
        assert report.escalated == {"x1", "x2", "x3"}
        kinds = [d.kind for d in report.degradations]
        assert "escalate" in kinds
        assert report.attempts[0].outcome == "trip"
        assert report.attempts[-1].outcome == "ok"

    def test_escalation_disabled_goes_to_cascade(self, example1):
        report = supervised_solve(
            example1, solver="rr", fallback=("sw",), max_evals=60, escalate=False
        )
        assert report.ok and report.solver == "sw"
        assert [d.kind for d in report.degradations] == ["fallback"]
        assert not report.escalated

    def test_all_rungs_exhausted_salvages_state(self, example1):
        report = supervised_solve(
            example1, solver="rr", max_evals=60, escalate=False
        )
        assert not report.ok
        assert report.fatal is not None
        assert report.salvaged_sigma, "partial sigma must be salvaged"

    def test_escalating_combine_caps_descents(self):
        base = WarrowCombine(nat)
        pure_widening = build_combine(escalation_ladder()[-1].spec, nat)
        esc = escalation_router(base, {"x"}, pure_widening)
        grown = esc("x", 0, 5)  # growth: widen
        assert grown == nat.widen(0, 5)
        assert esc("x", grown, 3) == grown  # shrink capped: keep old
        assert esc("y", 4, 3) == base("y", 4, 3)  # not escalated

    def test_escalation_targets_prefers_flagged(self):
        class Err(Exception):
            unknown = "z"

        assert escalation_targets({"a", "b"}, Err()) == {"a", "b", "z"}
        hist = {"hot": 9, "warm": 3, "cold": 1}
        assert escalation_targets(set(), Err(), hist, top=2) == {"hot", "warm", "z"}


class TestCascade:
    def test_incompatible_fallbacks_are_skipped(self, example1):
        """A local solver without x0 cannot join the cascade; the skip is
        recorded, the next compatible solver wins."""
        report = supervised_solve(
            example1,
            solver="rr",
            fallback=("slr", "sw"),
            max_evals=60,
            escalate=False,
        )
        assert report.ok and report.solver == "sw"
        details = [d.detail for d in report.degradations]
        assert any("skipping incompatible 'slr'" in d for d in details)

    def test_cascade_to_fixed_op_solver(self, example1):
        report = supervised_solve(
            example1,
            solver="rr",
            fallback=("twophase",),
            max_evals=60,
            escalate=False,
        )
        assert report.ok and report.solver == "twophase"
        assert report.verified

    def test_unsupervisable_solver_is_rejected(self, example1, monkeypatch):
        from repro.solvers import registry

        spec = registry.get_solver("slr")
        bad = type(spec)(**{**spec.__dict__, "supervisable": False})
        monkeypatch.setitem(registry._REGISTRY, "slr", bad)
        with pytest.raises(SolverCapabilityError):
            supervised_solve(example1, x0="x1", solver="slr")


class TestAcceptanceScenarios:
    def test_example1_full_chaos_scenario(self, example1):
        """The issue's acceptance run on Example 1: injected RHS
        exception, kill/resume from checkpoint, verified result, report
        naming every degradation."""
        report = supervised_solve(
            example1,
            x0="x1",
            solver="slr",
            fallback=("sw", "twophase"),
            max_evals=2_000,
            checkpoint_every=2,
            chaos=fail_on_eval(4),
        )
        assert report.ok, report.render()
        assert report.verified
        assert report.consistency_problems == []
        assert len(report.faults) == 1
        assert report.faults[0].kind == "raise"
        assert report.checkpoints_taken >= 1
        assert [a.outcome for a in report.attempts] == ["fault", "ok"]
        assert report.attempts[1].warm, "recovery must resume warm"
        kinds = [d.kind for d in report.degradations]
        assert "resume-checkpoint" in kinds
        assert report.result.sigma["x1"] == nat.top

    def test_wcet_workload_chaos_scenario(self):
        """Same end-to-end scenario on a real WCET benchmark analyzed
        with SLR+: fault, checkpoint resume, verified post solution."""
        prog = WCET_PROGRAMS["fibcall"]
        cfg = compile_program(prog.source)
        analysis = InterAnalysis(cfg, IntervalDomain())
        op = WarrowCombine(analysis.lattice, delay=1)

        report = supervised_solve(
            analysis.system(),
            op,
            analysis.root(),
            solver="slr+",
            max_evals=100_000,
            checkpoint_every=5,
            chaos=fail_on_eval(7),
        )
        assert report.ok, report.render()
        assert report.verified
        assert report.consistency_problems == []
        assert len(report.faults) == 1
        assert report.attempts[-1].outcome == "ok"
        assert "resume-checkpoint" in [d.kind for d in report.degradations]

    def test_wcet_result_matches_unsupervised(self):
        """Supervision with chaos recovery must not change the answer."""
        prog = WCET_PROGRAMS["fibcall"]
        cfg = compile_program(prog.source)

        def solve(chaos):
            analysis = InterAnalysis(cfg, IntervalDomain())
            op = WarrowCombine(analysis.lattice, delay=1)
            return supervised_solve(
                analysis.system(), op, analysis.root(),
                solver="slr+", max_evals=100_000,
                checkpoint_every=5, chaos=chaos,
            )

        clean = solve(None)
        chaotic = solve(fail_on_eval(7))
        assert clean.ok and chaotic.ok
        assert chaotic.result.sigma == clean.result.sigma

    def test_perturb_fault_is_caught_by_verifier_or_absorbed(self, example1):
        """A non-monotone perturbation must never smuggle an unsound
        value into an accepted result: the verifier gate catches it."""
        from repro.supervise import ChaosPolicy, FaultSpec

        for at in range(1, 10):
            report = supervised_solve(
                example1,
                x0="x1",
                solver="slr",
                max_evals=2_000,
                chaos=ChaosPolicy(faults=[FaultSpec("perturb", at=at)]),
            )
            if report.ok:
                assert report.verified
                from repro.incremental import check_post_solution_pure

                assert check_post_solution_pure(example1, report.result.sigma) == []
