"""Experiment drivers: one function per paper table/figure.

Each driver returns plain dataclasses with the same rows/series the paper
reports, so that tests can assert on the *shape* of the results and the
benchmark modules can print them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

from repro.batch.jobs import JobSpec, configure, solve
from repro.batch.matrix import run_matrix
from repro.bench.spec import PROGRAMS as SPEC_PROGRAMS
from repro.bench.wcet import PROGRAMS as WCET_PROGRAMS
from repro.solvers import WarrowCombine
from repro.solvers.registry import get_solver


# --------------------------------------------------------------------- #
# Figure 7: precision of the combined operator vs two-phase solving.    #
# --------------------------------------------------------------------- #

@dataclass
class Fig7Row:
    """One bar of Figure 7."""

    name: str
    loc: int
    improved: int
    total: int
    worse: int
    #: Solve-and-collect time of both matrix cells of this benchmark,
    #: seconds.
    seconds: float = 0.0

    @property
    def percent(self) -> float:
        return 100.0 * self.improved / self.total if self.total else 0.0


@dataclass
class Fig7Result:
    """The whole figure: per-benchmark bars plus the weighted average."""

    rows: List[Fig7Row]

    @property
    def weighted_average(self) -> float:
        improved = sum(r.improved for r in self.rows)
        total = sum(r.total for r in self.rows)
        return 100.0 * improved / total if total else 0.0

    @property
    def total_seconds(self) -> float:
        """Total analysis wall time (the paper: "about 14 seconds for all
        programs together" on their machine)."""
        return sum(r.seconds for r in self.rows)


def run_fig7(
    names: Optional[List[str]] = None, max_evals: int = 5_000_000
) -> Fig7Result:
    """Reproduce Figure 7 on the WCET suite.

    Reads the strategy matrix (:func:`repro.batch.matrix.run_matrix`) of
    the benchmarks with the two-phase baseline and a ``warrow`` column:
    a bar counts the program points where the combined operator is
    strictly more precise than two-phase solving.
    """
    programs = [
        p
        for p in sorted(WCET_PROGRAMS.values(), key=lambda p: (p.loc, p.name))
        if names is None or p.name in names
    ]
    doc = run_matrix(
        [("wcet", p.name, p.source) for p in programs],
        ["warrow"],
        baseline="twophase",
        max_evals=max_evals,
        # The document is read here and never persisted: a fixed label
        # instead of the git revision, whose lookup starts a subprocess.
        revision="fig7",
    )
    cells = {}
    for cell in doc["cells"]:
        if cell["code"] != 0:
            raise RuntimeError(
                f"fig7: {cell['program']} under {cell['strategy']}: "
                f"{cell['status']}: {cell['error']}"
            )
        cells[cell["program"], cell["strategy"]] = cell
    base = doc["baseline"]
    (warrow,) = [spec for spec in doc["strategies"] if spec != base]
    rows = []
    for prog in programs:
        baseline = cells[prog.name, base]
        combined = cells[prog.name, warrow]
        rows.append(
            Fig7Row(
                name=prog.name,
                loc=prog.loc,
                improved=combined["better"],
                total=combined["total"],
                worse=combined["worse"],
                seconds=baseline["wall_time"] + combined["wall_time"],
            )
        )
    return Fig7Result(rows)


# --------------------------------------------------------------------- #
# Table 1: run-time/unknown scaling on the SpecCPU-like suite.          #
# --------------------------------------------------------------------- #

@dataclass
class Table1Cell:
    """One (program, configuration) measurement."""

    seconds: float
    unknowns: int
    evaluations: int


@dataclass
class Table1Row:
    """One program row: four configurations, as in the paper."""

    name: str
    loc: int
    nocontext_widen: Table1Cell
    nocontext_warrow: Table1Cell
    context_widen: Table1Cell
    context_warrow: Table1Cell


# --------------------------------------------------------------------- #
# Memoization smoke check: same results, strictly less work.            #
# --------------------------------------------------------------------- #

@dataclass
class MemoSmokeRow:
    """One solver's plain-vs-memoized comparison on a random system."""

    solver: str
    evaluations_plain: int
    evaluations_memo: int
    memo_hits: int
    memo_misses: int
    #: Whether both runs produced the same mapping (they must).
    identical: bool

    @property
    def hit_rate(self) -> float:
        consultations = self.memo_hits + self.memo_misses
        return self.memo_hits / consultations if consultations else 0.0


def run_memo_smoke(
    size: int = 12,
    seed: int = 0,
    solvers=("sw", "slr"),
    max_evals: int = 1_000_000,
) -> List[MemoSmokeRow]:
    """Run memoizable solvers with the RHS cache off and on.

    On a random monotone interval system, each solver must produce an
    identical mapping in both modes while the memoized run performs at
    most as many right-hand-side evaluations -- the smoke check behind the
    ``benchmark_smoke`` test job.
    """
    from repro.bench.randsys import RandomSystemConfig, random_interval_system

    system = random_interval_system(RandomSystemConfig(size=size, seed=seed))
    lat = system.lattice
    rows = []
    for name in solvers:
        spec = get_solver(name, memoize=True)

        def run(memoize: bool):
            op = WarrowCombine(lat)
            if spec.scope == "local":
                return spec(
                    system, op, "x0", max_evals=max_evals, memoize=memoize
                )
            return spec(system, op, max_evals=max_evals, memoize=memoize)

        plain = run(False)
        memo = run(True)
        identical = set(plain.sigma) == set(memo.sigma) and all(
            lat.equal(plain.sigma[x], memo.sigma[x]) for x in plain.sigma
        )
        rows.append(
            MemoSmokeRow(
                solver=spec.name,
                evaluations_plain=plain.stats.evaluations,
                evaluations_memo=memo.stats.evaluations,
                memo_hits=memo.stats.memo_hits,
                memo_misses=memo.stats.memo_misses,
                identical=identical,
            )
        )
    return rows


def run_table1(
    names: Optional[List[str]] = None, max_evals: int = 10_000_000
) -> List[Table1Row]:
    """Reproduce Table 1 on the SpecCPU-like suite.

    Context-insensitive and context-sensitive interval analysis, each
    solved with plain widening and with the combined operator; the row
    reports solver time and the number of encountered unknowns, exactly
    the columns of the paper's table.  The context-sensitive variant uses
    the sign projection of the parameters (the analogue of the paper's
    "all non-interval values of locals").  Each cell is a batch job;
    its time covers the solve, not the set-up.
    """
    rows = []
    for prog in SPEC_PROGRAMS:
        if names is not None and prog.name not in names:
            continue
        cells = []
        for context in ("insensitive", "sign"):
            for op in ("widen", "warrow"):
                setup = configure(
                    JobSpec(
                        id=f"table1/{prog.name}/{context}/{op}",
                        family="table1",
                        program=prog.name,
                        source=prog.source,
                        context=context,
                        op=op,
                        max_evals=max_evals,
                    )
                )
                start = time.perf_counter()
                stats = solve(setup).stats
                elapsed = time.perf_counter() - start
                cells.append(
                    Table1Cell(elapsed, stats.unknowns, stats.evaluations)
                )
        loc = sum(1 for line in prog.source.splitlines() if line.strip())
        rows.append(Table1Row(prog.name, loc, *cells))
    return rows
