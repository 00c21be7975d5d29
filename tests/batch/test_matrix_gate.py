"""The strategy-matrix precision gate: compare_matrices semantics."""

from __future__ import annotations

import copy

from repro.batch import BenchComparison, compare_matrices


def cell(program="p", strategy="warrow:delay=1", **overrides):
    base = {
        "family": "wcet",
        "program": program,
        "strategy": strategy,
        "status": "ok",
        "code": 0,
        "hash": "h",
        "evaluations": 100,
        "updates": 50,
        "wall_time": 0.01,
        "better": 5,
        "worse": 0,
        "equal": 20,
        "incomparable": 0,
        "total": 25,
        "error": "",
    }
    base.update(overrides)
    return base


def strategy_row(strategy="warrow:delay=1", **overrides):
    base = {
        "strategy": strategy,
        "ok": 1,
        "failed": 0,
        "evaluations": 100,
        "wall_time": 0.01,
        "improved_points": 5,
        "regressed_points": 0,
        "compared_points": 25,
        "improved_fraction": 0.2,
        "programs_improved": 1,
    }
    base.update(overrides)
    return base


def doc():
    return {
        "format": "repro-strategy-matrix/1",
        "baseline": "widen:delay=1",
        "strategies": ["widen:delay=1", "warrow:delay=1"],
        "cells": [
            cell(strategy="widen:delay=1", better=0, equal=25),
            cell(strategy="warrow:delay=1"),
        ],
        "totals": {
            "cells": 2,
            "ok": 2,
            "failed": 0,
            "strategies": [
                strategy_row("widen:delay=1", improved_points=0),
                strategy_row("warrow:delay=1"),
            ],
        },
    }


class TestClean:
    def test_identical_documents_pass(self):
        report = compare_matrices(doc(), doc())
        assert isinstance(report, BenchComparison)
        assert report.label == "matrix"
        assert report.ok
        assert report.regressions == []

    def test_render_mentions_the_verdict(self):
        assert "matrix gate: ok" in compare_matrices(doc(), doc()).render()


class TestRegressions:
    def test_fewer_better_points_in_a_cell(self):
        current = doc()
        current["cells"][1]["better"] = 3
        report = compare_matrices(current, doc())
        assert not report.ok
        assert any("precision regressed" in r for r in report.regressions)

    def test_more_worse_points_in_a_cell(self):
        current = doc()
        current["cells"][1]["worse"] = 2
        assert not compare_matrices(current, doc()).ok

    def test_missing_cell(self):
        current = doc()
        current["cells"] = current["cells"][:1]
        report = compare_matrices(current, doc())
        assert any("missing" in r for r in report.regressions)

    def test_missing_strategy_column(self):
        current = doc()
        current["strategies"] = ["widen:delay=1"]
        current["cells"] = current["cells"][:1]
        current["totals"]["strategies"] = current["totals"]["strategies"][:1]
        report = compare_matrices(current, doc())
        assert any(
            "strategy 'warrow:delay=1' missing" in r
            for r in report.regressions
        )

    def test_cell_was_ok_now_failing(self):
        current = doc()
        current["cells"][1].update(
            status="divergence", code=3, error="diverged"
        )
        report = compare_matrices(current, doc())
        assert any("was ok" in r for r in report.regressions)

    def test_doctored_baseline_totals_fail_even_with_equal_cells(self):
        baseline = doc()
        for row in baseline["totals"]["strategies"]:
            if row["strategy"] == "warrow:delay=1":
                row["improved_points"] += 50
        report = compare_matrices(doc(), baseline)
        assert any("improved_points fell" in r for r in report.regressions)

    def test_regressed_points_rising_fails(self):
        current = doc()
        current["cells"][1]["worse"] = 1
        for row in current["totals"]["strategies"]:
            if row["strategy"] == "warrow:delay=1":
                row["regressed_points"] = 1
        assert not compare_matrices(current, doc()).ok

    def test_different_baseline_strategy_is_apples_to_oranges(self):
        current = doc()
        current["baseline"] = "warrow:delay=1"
        report = compare_matrices(current, doc())
        assert any("baseline strategy differs" in r for r in report.regressions)


class TestNotes:
    def test_precision_gain_is_a_note_not_a_regression(self):
        current = doc()
        current["cells"][1]["better"] = 9
        for row in current["totals"]["strategies"]:
            if row["strategy"] == "warrow:delay=1":
                row["improved_points"] = 9
        report = compare_matrices(current, doc())
        assert report.ok
        assert any("improved" in n for n in report.notes)

    def test_new_cells_and_strategies_are_notes(self):
        current = doc()
        current["strategies"].append("twophase:delay=1")
        current["cells"].append(cell(strategy="twophase:delay=1"))
        current["totals"]["strategies"].append(
            strategy_row("twophase:delay=1")
        )
        report = compare_matrices(current, doc())
        assert report.ok
        assert any("new" in n for n in report.notes)

    def test_hash_change_is_a_note(self):
        current = doc()
        current["cells"][1]["hash"] = "different"
        report = compare_matrices(current, doc())
        assert report.ok
        assert any("hash changed" in n for n in report.notes)

    def test_failing_in_both_is_not_a_regression(self):
        current, baseline = doc(), doc()
        for d in (current, baseline):
            d["cells"][1].update(status="divergence", code=3)
        assert compare_matrices(current, baseline).ok


class TestCommittedBaseline:
    def test_committed_baseline_is_schema_valid(self):
        from pathlib import Path

        from repro.batch import MATRIX_FORMAT, load_bench, validate_matrix

        path = (
            Path(__file__).resolve().parent.parent.parent
            / "benchmarks"
            / "matrix_baseline.json"
        )
        baseline = load_bench(path, validate_matrix, MATRIX_FORMAT)
        assert compare_matrices(baseline, baseline).ok
        warrow = next(
            row
            for row in baseline["totals"]["strategies"]
            if row["strategy"] == "warrow:delay=1"
        )
        # The Fig. 7 shape: ⌴ improves a solid fraction of points over
        # pure widening and regresses none.
        assert warrow["improved_points"] > 0
        assert warrow["regressed_points"] == 0


def test_copy_is_not_shared():
    # Guard against the fixtures aliasing state between documents.
    a, b = doc(), doc()
    a["cells"][0]["better"] = 99
    assert b["cells"][0]["better"] != 99
    assert copy.deepcopy(a) == a
