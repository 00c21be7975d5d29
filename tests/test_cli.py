"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main

PROGRAM = """
int g = 0;
void f(int b) {
    if (b) { g = b + 1; } else { g = -b - 1; }
}
int main() {
    f(1);
    f(2);
    assert(g <= 3);
    return g;
}
"""

LOOP_GLOBAL = """
int g = 0;
int main() {
    int i = 0;
    while (i < 10) { i = i + 1; }
    g = i;
    assert(g <= 10);
    return g;
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "example.mc"
    path.write_text(PROGRAM)
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    path = tmp_path / "loop.mc"
    path.write_text(LOOP_GLOBAL)
    return str(path)


class TestRun:
    def test_run_prints_result(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "return value: 3" in out
        assert "g = 3" in out

    def test_run_with_args(self, tmp_path, capsys):
        path = tmp_path / "args.mc"
        path.write_text("int main(int a, int b) { return a * b; }")
        assert main(["run", str(path), "6", "7"]) == 0
        assert "return value: 42" in capsys.readouterr().out


class TestAnalyze:
    def test_analyze_reports_globals(self, program_file, capsys):
        assert main(["analyze", program_file]) == 0
        out = capsys.readouterr().out
        assert "g = [0,3]" in out
        assert "unknowns" in out

    def test_analyze_full_context(self, program_file, capsys):
        assert main(["analyze", program_file, "--context", "full"]) == 0
        out = capsys.readouterr().out
        assert "f: 2" in out  # two contexts for f

    def test_analyze_twophase_is_less_precise(self, loop_file, capsys):
        assert main(["analyze", loop_file, "--solver", "twophase"]) == 0
        out = capsys.readouterr().out
        assert "g = [0,+oo]" in out

    def test_analyze_points(self, loop_file, capsys):
        assert main(["analyze", loop_file, "--points"]) == 0
        out = capsys.readouterr().out
        assert "main:0" in out


class TestVerify:
    def test_all_proved_exit_zero(self, loop_file, capsys):
        assert main(["verify", loop_file]) == 0
        out = capsys.readouterr().out
        assert "proved" in out

    def test_unknown_under_twophase_exit_one(self, loop_file, capsys):
        assert main(["verify", loop_file, "--solver", "twophase"]) == 1
        out = capsys.readouterr().out
        assert "unknown" in out

    def test_violated_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.mc"
        path.write_text("int main() { int x = 1; assert(x == 2); return 0; }")
        assert main(["verify", str(path)]) == 2

    def test_no_assertions(self, tmp_path, capsys):
        path = tmp_path / "plain.mc"
        path.write_text("int main() { return 0; }")
        assert main(["verify", str(path)]) == 0
        assert "no assertions" in capsys.readouterr().out


class TestSolve:
    def test_clean_supervised_run(self, loop_file, capsys):
        assert main(["solve", loop_file]) == 0
        out = capsys.readouterr().out
        assert "supervision report" in out
        assert "post solution confirmed" in out
        assert "degradations applied: none" in out

    def test_chaos_with_checkpoint_recovery(self, loop_file, capsys):
        code = main(
            [
                "solve", loop_file,
                "--chaos-fail-at", "5",
                "--checkpoint-every", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault injected: raise at evaluation #5" in out
        assert "resume-checkpoint" in out
        assert "post solution confirmed" in out

    def test_checkpoint_file_is_written(self, loop_file, tmp_path, capsys):
        target = tmp_path / "run.ckpt"
        assert (
            main(
                [
                    "solve", loop_file,
                    "--checkpoint-every", "3",
                    "--checkpoint-file", str(target),
                ]
            )
            == 0
        )
        assert target.exists()

    def test_budget_trip_without_recovery_exits_three(self, loop_file, capsys):
        assert main(["solve", loop_file, "--max-evals", "2", "--no-escalate"]) == 3
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("solver", ["wl", "slr", "rld", "tdr"])
    def test_unusable_local_solver_is_an_input_error(
        self, loop_file, solver, capsys
    ):
        assert main(["solve", loop_file, "--local-solver", solver]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fallback_does_not_mask_an_unusable_local_solver(
        self, loop_file, capsys
    ):
        argv = ["solve", loop_file, "--local-solver", "wl", "--fallback", "slr+"]
        assert main(argv) == 2

    @pytest.mark.parametrize("solver", ["slr2", "slr3"])
    def test_solves_with_the_requested_local_solver(
        self, loop_file, solver, capsys
    ):
        assert main(["solve", loop_file, "--local-solver", solver]) == 0
        assert f"attempt: {solver}" in capsys.readouterr().out

    def test_divergence_exit_code_is_three(self, loop_file, capsys):
        """Satellite: divergence (3) is distinguishable from input
        errors (2) across the whole CLI."""
        assert main(["analyze", loop_file, "--max-evals", "2"]) == 3
        assert "diverged" in capsys.readouterr().err

    def test_exit_codes_documented_in_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "exit codes" in out
        assert "3  solver divergence" in out
        assert "4  internal fault" in out


class TestSolvers:
    def test_lists_capability_flags(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "slr+" in out
        assert "side-effecting" in out
        assert "supports-warm-start" in out
        assert "supervisable" in out

    def test_warm_start_flag_on_exactly_the_resumable_solvers(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for line in out.splitlines():
            if ":" not in line or line.startswith(" "):
                continue
            name = line.split(":", 1)[0].split(" ")[0]
            if name in ("sw", "slr", "slr+", "slr2", "slr3"):
                assert "supports-warm-start" in line, line
            else:
                assert "supports-warm-start" not in line, line


class TestIncr:
    EDITED = PROGRAM.replace("f(2)", "f(3)").replace("g <= 3", "g <= 4")

    @pytest.fixture
    def edited_file(self, tmp_path):
        path = tmp_path / "edited.mc"
        path.write_text(self.EDITED)
        return str(path)

    def test_incr_reports_savings_and_soundness(
        self, program_file, edited_file, capsys
    ):
        assert main(["incr", program_file, edited_file]) == 0
        out = capsys.readouterr().out
        assert "cold solve" in out
        assert "dirty" in out
        assert "warm re-solve" in out
        assert "from-scratch re-solve" in out
        assert "post solution" in out
        assert "precision vs from-scratch" in out

    def test_incr_state_file_roundtrip(
        self, program_file, edited_file, tmp_path, capsys
    ):
        state_file = tmp_path / "state.json"
        assert (
            main(
                [
                    "incr",
                    program_file,
                    edited_file,
                    "--state-file",
                    str(state_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "state saved" in out
        text = state_file.read_text()
        assert text.startswith("{") and "repro-solver-state/1" in text

    def test_incr_reset_mode(self, program_file, edited_file, capsys):
        assert (
            main(["incr", program_file, edited_file, "--reset", "destabilized"])
            == 0
        )
        out = capsys.readouterr().out
        assert "0 worse" in out

    def test_incr_no_compare(self, program_file, edited_file, capsys):
        assert main(["incr", program_file, edited_file, "--no-compare"]) == 0
        out = capsys.readouterr().out
        assert "from-scratch" not in out

    @pytest.mark.parametrize("solver", ["slr+", "slr2", "slr3"])
    def test_incr_captures_and_resumes_the_requested_solver(
        self, program_file, edited_file, tmp_path, solver, capsys
    ):
        state_file = tmp_path / "state.json"
        argv = [
            "incr", program_file, edited_file, "--no-compare",
            "--local-solver", solver, "--state-file", str(state_file),
        ]
        assert main(argv) == 0
        assert json.loads(state_file.read_text())["solver"] == solver

    @pytest.mark.parametrize("solver", ["wl", "slr"])
    def test_incr_rejects_an_unusable_local_solver(
        self, program_file, edited_file, solver, capsys
    ):
        argv = ["incr", program_file, edited_file, "--local-solver", solver]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err

    def test_incr_identical_versions(self, program_file, capsys):
        assert main(["incr", program_file, program_file, "--no-compare"]) == 0
        out = capsys.readouterr().out
        assert "0 dirty nodes" in out
        assert "warm re-solve: 0 evaluations" in out


class TestOtherCommands:
    def test_dump_cfg(self, program_file, capsys):
        assert main(["dump-cfg", program_file]) == 0
        out = capsys.readouterr().out
        assert "function main" in out
        assert "CallInstr" in out

    def test_fig7_subset(self, capsys):
        assert main(["fig7", "fibcall"]) == 0
        out = capsys.readouterr().out
        assert "fibcall" in out and "weighted average" in out

    def test_table1_subset(self, capsys):
        assert main(["table1", "470.lbm"]) == 0
        out = capsys.readouterr().out
        assert "470.lbm" in out

    def test_module_entry_point(self, program_file):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "run", program_file],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "return value: 3" in proc.stdout


class TestDomainsAndThresholds:
    NESTED = """int main() {
        int i = 0;
        int j = 0;
        while (i < 5) {
            j = 0;
            while (j < 3) { j = j + 1; }
            i = i + 1;
        }
        assert(i == 5);
        return i + j;
    }"""

    STRIDE = """int main() {
        int i = 0;
        while (i < 100) { i = i + 2; }
        assert(i % 2 == 0);
        return i;
    }"""

    def test_thresholds_flag_proves_nested_loop_bound(self, tmp_path):
        path = tmp_path / "nested.mc"
        path.write_text(self.NESTED)
        assert main(["verify", str(path)]) == 1  # unknown without
        assert main(["verify", str(path), "--thresholds"]) == 0

    def test_threshold_strategy_solves_what_the_batch_job_solves(
        self, tmp_path, capsys
    ):
        """``--op threshold-widen`` collects thresholds without the flag,
        as batch jobs, the service and ``repro check`` do."""
        import re
        from dataclasses import replace

        from repro.batch.jobs import JobSpec, execute_job
        from repro.bench.wcet import PROGRAMS

        source = PROGRAMS["bs"].source
        path = tmp_path / "bs.mc"
        path.write_text(source)
        job = JobSpec(
            id="wcet/bs", family="wcet", program="bs", source=source,
            op="threshold-widen",
        )
        evaluations = execute_job(job).evaluations
        # The thresholds change the solve: plain widening costs less.
        assert execute_job(replace(job, op="widen")).evaluations != evaluations

        assert main(["analyze", str(path), "--op", "threshold-widen"]) == 0
        assert f"unknowns, {evaluations} evaluations" in capsys.readouterr().out
        code = main(["solve", str(path), "--op", "threshold-widen", "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        assert re.search(rf"evaluations: +{evaluations}\n", out)
        code = main(
            ["incr", str(path), str(path), "--op", "threshold-widen", "--no-compare"]
        )
        assert code == 0
        assert f"unknowns, {evaluations} evaluations" in capsys.readouterr().out

    def test_interval_congruence_domain(self, tmp_path):
        path = tmp_path / "stride.mc"
        path.write_text(self.STRIDE)
        assert main(["verify", str(path), "--domain", "interval-congruence"]) == 0

    def test_sign_domain_runs(self, tmp_path, capsys):
        path = tmp_path / "prog.mc"
        path.write_text("int g = 3; int main() { g = g * g; return g; }")
        assert main(["analyze", str(path), "--domain", "sign"]) == 0
        out = capsys.readouterr().out
        assert "g = {+}" in out

    def test_unknown_domain_rejected(self, tmp_path):
        import pytest

        path = tmp_path / "prog.mc"
        path.write_text("int main() { return 0; }")
        with pytest.raises(SystemExit):
            main(["analyze", str(path), "--domain", "octagon"])


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/prog.mc"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.mc"
        path.write_text("int main( { return 0; }")
        assert main(["analyze", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_semantic_error(self, tmp_path, capsys):
        path = tmp_path / "undeclared.mc"
        path.write_text("int main() { return zebra; }")
        assert main(["run", str(path)]) == 2
        assert "undeclared" in capsys.readouterr().err

    def test_runtime_error(self, tmp_path, capsys):
        path = tmp_path / "crash.mc"
        path.write_text("int main() { int a[2]; return a[9]; }")
        assert main(["run", str(path)]) == 2
        assert "out of bounds" in capsys.readouterr().err

    def test_failing_assert_at_runtime(self, tmp_path, capsys):
        path = tmp_path / "assert.mc"
        path.write_text("int main() { assert(0); return 0; }")
        assert main(["run", str(path)]) == 2
        assert "assertion failed" in capsys.readouterr().err


class TestBench:
    def test_list_prints_stable_job_ids(self, capsys):
        assert main(["bench", "--list", "--quick"]) == 0
        out = capsys.readouterr().out
        first = out.splitlines()
        assert first == sorted(set(first), key=first.index)
        assert any(line.startswith("examples/") for line in first)
        assert any(line.startswith("table1/") for line in first)

    def test_unknown_family_exits_two(self, capsys):
        assert main(["bench", "--families", "nope", "--list"]) == 2
        assert "unknown families" in capsys.readouterr().err

    def test_quick_family_run_writes_document(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--quick",
                "--families",
                "examples",
                "--workers",
                "1",
                "--repeats",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "wrote" in capsys.readouterr().out

    def test_compare_gates_on_doctored_baseline(
        self, tmp_path, capsys, monkeypatch
    ):
        import itertools
        import json
        import types

        from repro.batch import jobs as jobs_module

        # The job clock advances a fixed step per reading, so every run
        # of the corpus records the same total wall time, however loaded
        # the machine is.  With ``--workers 1`` the bench runs inline and
        # reads this clock.
        ticks = itertools.count(start=0.0, step=0.001)
        monkeypatch.setattr(
            jobs_module,
            "time",
            types.SimpleNamespace(perf_counter=ticks.__next__),
        )
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "baseline.json"
        args = [
            "bench",
            "--quick",
            "--families",
            "examples",
            "--workers",
            "1",
            "--repeats",
            "1",
            "--out",
            str(tmp_path / "run.json"),
        ]
        assert main(args + ["--update-baseline", str(baseline)]) == 0
        capsys.readouterr()

        # Identical baseline: the gate passes.
        assert main(args + ["--compare", str(baseline)]) == 0
        assert "bench gate: ok" in capsys.readouterr().out

        # Doctored baseline (deflated eval counts): the gate fails.
        doc = json.loads(baseline.read_text())
        for entry in doc["jobs"]:
            entry["evaluations"] = max(1, entry["evaluations"] // 2)
        doc["totals"]["evaluations"] = sum(
            entry["evaluations"] for entry in doc["jobs"]
        )
        baseline.write_text(json.dumps(doc))
        assert main(args + ["--compare", str(baseline)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_compare_with_missing_baseline_exits_two(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        code = main(
            [
                "bench",
                "--quick",
                "--families",
                "examples",
                "--workers",
                "1",
                "--repeats",
                "1",
                "--out",
                str(tmp_path / "run.json"),
                "--compare",
                str(tmp_path / "no-such-baseline.json"),
            ]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_committed_baseline_is_schema_valid(self):
        from pathlib import Path

        from repro.batch import load_bench

        root = Path(__file__).resolve().parents[1]
        doc = load_bench(root / "benchmarks" / "baseline.json")
        assert doc["quick"] is True
        assert doc["totals"]["failed"] == 0


class TestSolversJson:
    def test_json_listing_is_machine_readable(self, capsys):
        import json

        assert main(["solvers", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        assert isinstance(listing, list) and listing
        by_name = {spec["name"]: spec for spec in listing}
        assert by_name["slr+"]["supports_warm_start"] is True
        assert by_name["slr+"]["supervisable"] is True
        assert by_name["slr+"]["side_effecting"] is True
        for spec in listing:
            for field in (
                "name",
                "aliases",
                "scope",
                "supports_warm_start",
                "supervisable",
                "summary",
            ):
                assert field in spec

    def test_default_output_is_still_the_table(self, capsys):
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "slr+" in out
        assert "supports-warm-start" in out
        assert not out.lstrip().startswith("[")


class TestSolveStats:
    def test_stats_flag_prints_direction_switches(self, loop_file, capsys):
        assert main(["solve", loop_file, "--stats"]) == 0
        out = capsys.readouterr().out
        assert "solver statistics:" in out
        assert "direction switches:" in out
        assert "widen updates:" in out
        assert "narrow updates:" in out

    def test_without_flag_no_stats_block(self, loop_file, capsys):
        assert main(["solve", loop_file]) == 0
        assert "solver statistics:" not in capsys.readouterr().out


class TestServiceCommands:
    def test_serve_requires_an_address(self, capsys):
        assert main(["serve"]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_submit_requires_an_address(self, program_file, capsys):
        assert main(["submit", program_file]) == 2
        assert "--socket" in capsys.readouterr().err

    def test_submit_unreachable_daemon_is_an_input_error(
        self, program_file, tmp_path, capsys
    ):
        missing = str(tmp_path / "no-daemon.sock")
        assert main(["submit", program_file, "--socket", missing]) == 2
        assert "cannot reach the daemon" in capsys.readouterr().err

    def test_status_unreachable_daemon_is_an_input_error(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "no-daemon.sock")
        assert main(["status", "--socket", missing]) == 2
        assert "cannot reach the daemon" in capsys.readouterr().err

    def test_shutdown_unreachable_daemon_is_an_input_error(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "no-daemon.sock")
        assert main(["shutdown", "--socket", missing]) == 2
        assert "cannot reach the daemon" in capsys.readouterr().err


class TestStrategies:
    def test_table_lists_the_catalog(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in ("warrow", "warrow-k", "widen", "twophase", "wpoint"):
            assert name in out

    def test_json_listing_is_machine_readable(self, capsys):
        import json

        assert main(["strategies", "--json"]) == 0
        listing = json.loads(capsys.readouterr().out)
        rows = {row["name"]: row for row in listing}
        assert rows["warrow"]["aliases"] == ["box", "combined"]
        assert rows["warrow"]["solve_ready"] is True


class TestOpFlag:
    def test_analyze_accepts_an_op_spec(self, loop_file, capsys):
        assert main(["analyze", loop_file, "--op", "warrow:delay=2"]) == 0
        assert "g = [0,10]" in capsys.readouterr().out

    def test_analyze_pure_widening_loses_precision(self, loop_file, capsys):
        assert main(["analyze", loop_file, "--op", "no-narrow"]) == 0
        assert "g = [0,+oo]" in capsys.readouterr().out

    def test_analyze_phased_spec_routes_to_twophase(self, loop_file, capsys):
        assert main(["analyze", loop_file, "--op", "twophase"]) == 0
        capsys.readouterr()
        assert main(["analyze", loop_file, "--solver", "twophase"]) == 0

    def test_solve_accepts_an_op_spec(self, loop_file, capsys):
        assert main(["solve", loop_file, "--op", "warrow-k:k=1"]) == 0
        assert "post solution confirmed" in capsys.readouterr().out

    def test_solve_rejects_phased_specs(self, loop_file, capsys):
        assert main(["solve", loop_file, "--op", "twophase"]) == 2
        assert "phased" in capsys.readouterr().err

    def test_bad_spec_is_an_input_error(self, loop_file, capsys):
        assert main(["analyze", loop_file, "--op", "warrow:delay=x"]) == 2
        assert main(["analyze", loop_file, "--op", "bogus"]) == 2


class TestBenchMatrix:
    def test_quick_matrix_runs_and_writes_the_document(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.chdir(tmp_path)
        out = tmp_path / "matrix.json"
        code = main(
            [
                "bench",
                "--matrix",
                "--quick",
                "--families",
                "examples",
                "--strategies",
                "widen",
                "--strategies",
                "warrow",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "strategy matrix vs baseline widen:delay=1" in text
        doc = json.loads(out.read_text())
        assert doc["format"] == "repro-strategy-matrix/1"
        assert doc["strategies"] == ["widen:delay=1", "warrow:delay=1"]

    def test_matrix_list_prints_cells_without_solving(self, capsys):
        assert (
            main(
                [
                    "bench",
                    "--matrix",
                    "--quick",
                    "--families",
                    "examples",
                    "--list",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "/widen:delay=1" in out

    def test_matrix_rejects_unknown_family(self, capsys):
        assert main(["bench", "--matrix", "--families", "nope"]) == 2
