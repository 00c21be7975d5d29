"""Smoke tests for the experiment harnesses and renderers."""

from __future__ import annotations

from repro.bench.harness import Fig7Result, Fig7Row, run_fig7, run_table1
from repro.bench.reporting import render_fig7, render_table1
from repro.bench.spec import PROGRAMS as SPEC, by_name


class TestFig7Harness:
    def test_subset_run(self):
        result = run_fig7(names=["fibcall", "qsort-exam", "bs"])
        names = [row.name for row in result.rows]
        assert names == sorted(
            names, key=lambda n: next(r.loc for r in result.rows if r.name == n)
        )
        by = {r.name: r for r in result.rows}
        assert by["qsort-exam"].improved == 0
        assert by["bs"].improved > 0

    def test_pinned_rows(self):
        """(improved, total, worse) per bar, as the harness produced them
        when it still ran both analyses itself."""
        result = run_fig7(names=["fibcall", "qsort-exam", "bs"])
        rows = {r.name: (r.improved, r.total, r.worse) for r in result.rows}
        assert rows == {
            "fibcall": (0, 19, 0),
            "qsort-exam": (0, 49, 0),
            "bs": (31, 45, 0),
        }

    def test_weighted_average(self):
        result = Fig7Result(
            rows=[
                Fig7Row("a", 10, improved=5, total=10, worse=0),
                Fig7Row("b", 10, improved=0, total=10, worse=0),
            ]
        )
        assert result.weighted_average == 25.0

    def test_render(self):
        result = run_fig7(names=["fibcall"])
        text = render_fig7(result)
        assert "fibcall" in text
        assert "weighted average" in text


class TestTable1Harness:
    def test_single_row(self):
        rows = run_table1(names=["470.lbm"])
        assert len(rows) == 1
        row = rows[0]
        assert row.nocontext_widen.unknowns > 0
        assert row.context_widen.unknowns >= row.nocontext_widen.unknowns
        assert row.nocontext_widen.seconds >= 0

    def test_pinned_counts(self):
        """Unknowns and evaluations per configuration, as the harness
        produced them when it built its solvers itself."""
        (row,) = run_table1(names=["470.lbm"])
        cells = (
            row.nocontext_widen,
            row.nocontext_warrow,
            row.context_widen,
            row.context_warrow,
        )
        assert [(c.unknowns, c.evaluations) for c in cells] == [
            (112, 585),
            (112, 665),
            (238, 995),
            (238, 1136),
        ]

    def test_render(self):
        rows = run_table1(names=["470.lbm"])
        text = render_table1(rows)
        assert "470.lbm" in text
        assert "unkn" in text


class TestSpecSuite:
    def test_seven_programs_like_the_paper(self):
        assert len(SPEC) == 7
        assert set(by_name()) == {
            "401.bzip2",
            "429.mcf",
            "433.milc",
            "456.hmmer",
            "458.sjeng",
            "470.lbm",
            "482.sphinx",
        }

    def test_sources_are_deterministic(self):
        p = SPEC[0]
        assert p.source == p.source

    def test_sources_compile(self):
        from repro.lang import compile_program

        for p in SPEC[:3]:
            cfg = compile_program(p.source)
            assert cfg.total_nodes() > 0

    def test_sizes_are_graded(self):
        sizes = [len(p.source.splitlines()) for p in SPEC]
        assert sizes == sorted(sizes)
