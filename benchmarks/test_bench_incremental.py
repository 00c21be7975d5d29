"""Benchmark: warm-start savings over single-statement edits (WCET suite).

The incremental re-solving subsystem promises that after a small edit,
resuming SLR+ from the previous solver snapshot re-evaluates only the
destabilized region.  This benchmark quantifies the promise: for a slice
of the WCET suite we generate single-constant edits (bumping a loop
bound or an assigned constant -- the classic maintenance edit), warm-start
from the snapshot of the pre-edit analysis, and compare the number of
right-hand-side evaluations against re-analysing from scratch.

Acceptance: the *median* eval ratio across the edit suite is at least
2x in favour of the warm start, every warm solution passes the
independent post-solution check, and warm never flips an assertion to
VIOLATED that the scratch analysis proves.
"""

from __future__ import annotations

import statistics

from repro.analysis import IntervalDomain
from repro.analysis.verify import Verdict, check_assertions
from repro.bench.progen import single_constant_edits
from repro.bench.wcet import PROGRAMS
from repro.incremental import analyze_and_snapshot, reanalyze_program
from repro.lang import compile_program

#: The benchmarked slice: small/medium programs spanning searching,
#: sorting, arithmetic and irregular control flow.
NAMES = [
    "fibcall",
    "fac",
    "bs",
    "cnt",
    "insertsort",
    "prime",
    "expint",
    "janne_complex",
    "fibsearch",
    "isqrt",
]

EDITS_PER_PROGRAM = 2


def violated(cfg, result):
    return {
        r.instr.line
        for r in check_assertions(cfg, result)
        if r.verdict == Verdict.VIOLATED
    }


def run_edit_suite():
    dom = IntervalDomain()
    rows = []
    for name in NAMES:
        source = PROGRAMS[name].source
        old_cfg = compile_program(source)
        _, state = analyze_and_snapshot(old_cfg, dom)
        for i, edited in enumerate(single_constant_edits(source, EDITS_PER_PROGRAM)):
            new_cfg = compile_program(edited)
            report = reanalyze_program(
                old_cfg, new_cfg, state, dom, compare_scratch=True
            )
            rows.append(
                {
                    "name": f"{name}[{i}]",
                    "warm": report.warm_evaluations,
                    "scratch": report.scratch_evaluations,
                    "ratio": report.scratch_evaluations
                    / max(1, report.warm_evaluations),
                    "sound": report.sound,
                    "worse": report.precision.worse,
                    "total": report.precision.total,
                    "warm_violated": violated(new_cfg, report.result),
                    "scratch_violated": violated(new_cfg, report.scratch),
                }
            )
    return rows


def test_warm_start_halves_evaluations(benchmark):
    rows = benchmark.pedantic(run_edit_suite, rounds=1, iterations=1)
    assert rows, "edit generation must produce work"

    print()
    print(f"{'edit':<16}{'warm':>6}{'scratch':>9}{'ratio':>7}{'worse':>10}")
    for row in rows:
        print(
            f"{row['name']:<16}{row['warm']:>6}{row['scratch']:>9}"
            f"{row['ratio']:>7.1f}{row['worse']:>6}/{row['total']}"
        )
    median = statistics.median(row["ratio"] for row in rows)
    print(f"median eval ratio (scratch/warm): {median:.1f}x over {len(rows)} edits")

    # Soundness: every warm solution is a post solution of the edited
    # system, and never claims a violation the scratch run refutes.
    for row in rows:
        assert row["sound"], f"{row['name']}: warm solution is not sound"
        assert row["warm_violated"] <= row["scratch_violated"], row["name"]

    # The headline acceptance number: at least half the evaluations are
    # saved in the median case.
    assert median >= 2.0

    # Precision deltas are reported above; staleness must stay partial:
    # warm never loses *every* program point.
    for row in rows:
        assert row["worse"] < row["total"], row["name"]
