"""The precision x cost strategy matrix: Figure 7 at corpus scale.

The paper's headline claim is a *relative* one: solving with the
combined operator ⌴ instead of plain widening/narrowing improves the
abstract value at roughly 39% of program points on the Malardalen WCET
suite (Figure 7), at a bounded evaluation-count cost.  The matrix
generalizes that measurement to *every* registered combine strategy
(:mod:`repro.strategies`): each corpus program is solved once per
strategy, every solution is compared point-by-point against the
baseline strategy's solution (:func:`repro.analysis.compare_results`),
and the per-cell precision counts plus solver costs are packaged in a
stable, machine-readable document -- ``repro bench --matrix``.

Schema (``format: repro-strategy-matrix/1``)::

    {
      "format":   "repro-strategy-matrix/1",
      "revision": "<git short rev or 'local'>",
      "python":   "3.12.1",
      "quick":    true,
      "baseline": "widen:delay=1",       # canonical baseline spec
      "strategies": ["widen:delay=1", "warrow:delay=1", ...],
      "cells": [        # one entry per (program, strategy), fixed order
        {
          "family": "wcet", "program": "bs",
          "strategy": "warrow:delay=1",
          "status": "ok", "code": 0,
          "hash": "<sha256 of the post solution>",
          "evaluations": 275, "updates": 144,
          "wall_time": 0.0104,
          "better": 9, "worse": 0, "equal": 24, "incomparable": 0,
          "total": 33,       # vs the baseline cell of the same program
          "error": ""
        }, ...
      ],
      "totals": {
        "cells": 42, "ok": 42, "failed": 0,
        "strategies": [    # aggregated over ok cells, strategy order
          {
            "strategy": "warrow:delay=1", "ok": 14, "failed": 0,
            "evaluations": 12345, "wall_time": 0.61,
            "improved_points": 123, "regressed_points": 0,
            "compared_points": 456, "improved_fraction": 0.2697,
            "programs_improved": 9
          }, ...
        ]
      }
    }

Precision counts are byte-stable across machines; wall times are not
and exist for trend plots only.  The Fig. 7 reproduction reads off the
``warrow`` row: a nonzero ``improved_fraction`` over the ``widen``
baseline with ``regressed_points == 0``.
"""

from __future__ import annotations

import json
import platform
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.batch.bench import git_revision
from repro.batch.jobs import JobSpec, configure, solution_fingerprint, solve
from repro.lang import LexError, ParseError, SemanticError
from repro.solvers.stats import DivergenceError

#: Format marker of the strategy-matrix document schema.
MATRIX_FORMAT = "repro-strategy-matrix/1"

#: Strategy column set of a default matrix run: the Fig. 7 comparison
#: (widening baseline vs ⌴) plus the classical two-phase schedule.
DEFAULT_MATRIX_STRATEGIES = ("widen", "warrow", "twophase")

#: Evaluation budget per matrix cell.
_MAX_EVALS = 5_000_000

#: Per-cell fields persisted in a document's ``cells`` entries, in
#: schema order.
_CELL_FIELDS = (
    "family",
    "program",
    "strategy",
    "status",
    "code",
    "hash",
    "evaluations",
    "updates",
    "wall_time",
    "better",
    "worse",
    "equal",
    "incomparable",
    "total",
    "error",
)

_INT_CELL_FIELDS = (
    "code",
    "evaluations",
    "updates",
    "better",
    "worse",
    "equal",
    "incomparable",
    "total",
)


def split_column(column: str) -> Tuple[str, Optional[str]]:
    """Split a matrix column into ``(strategy spec, solver name)``.

    Columns are strategy specs, optionally suffixed with ``@solver`` to
    run the strategy under a non-default solver -- e.g. ``warrow@slr3``
    solves with ⌴ under the restarting solver.  No suffix leaves the
    solver at the analysis default (``slr+``).
    """
    spec, sep, solver = column.partition("@")
    return spec, (solver if sep else None)


def _run_cell(job: JobSpec):
    """One (program, strategy) solve; returns (AnalysisResult, seconds).

    The cell is the batch job of its column (:func:`_cell_job`), built by
    the same stages as :func:`repro.batch.jobs.execute_job`: phased
    strategies run the two-pass schedule, combine strategies a single
    generic solve.  The seconds cover the solve, not the set-up.
    """
    from repro.analysis.inter import collect_analysis

    setup = configure(job)
    started = time.perf_counter()
    result = collect_analysis(setup.analysis, solve(setup))
    return result, time.perf_counter() - started


def _cell_job(
    family: str, program: str, source: str, column: str, context: str, max_evals: int
) -> JobSpec:
    """The job of one cell.

    Every column is seeded with the CLI's default widening delay of 1, so
    the matrix isolates the *operator*, not the schedule.  A
    ``spec@solver`` column threads the solver name through; precision
    then measures the operator *and* the evaluation order it induces.
    """
    spec, solver = split_column(column)
    return JobSpec(
        id=f"{family}/{program}/{column}",
        family=family,
        program=program,
        source=source,
        context=context,
        solver=solver if solver is not None else "slr+",
        op=spec,
        max_evals=max_evals,
    )


def _blank_cell(family: str, program: str, strategy: str) -> dict:
    return {
        "family": family,
        "program": program,
        "strategy": strategy,
        "status": "ok",
        "code": 0,
        "hash": "",
        "evaluations": 0,
        "updates": 0,
        "wall_time": 0.0,
        "better": 0,
        "worse": 0,
        "equal": 0,
        "incomparable": 0,
        "total": 0,
        "error": "",
    }


def _canonical_column(column: str) -> str:
    """Canonicalize one ``spec`` or ``spec@solver`` column.

    The spec part goes through the strategy registry's canonicalizer;
    the solver part through the solver registry (resolving aliases like
    ``slr-restart`` -> ``slr3`` and rejecting solvers that cannot run a
    combine strategy on a side-effecting system up front, before any
    solving starts).
    """
    from repro.solvers.registry import get_solver
    from repro.strategies import canonical_spec

    spec, solver = split_column(column)
    canon = canonical_spec(spec, widen_delay=1)
    if solver is None:
        return canon
    resolved = get_solver(
        solver, scope="local", side_effecting=True, takes_op=True
    )
    return f"{canon}@{resolved.name}"


def resolve_matrix_strategies(
    strategies: Sequence[str], baseline: str
) -> Tuple[List[str], str]:
    """Canonicalize and dedupe the strategy columns; baseline first.

    Columns are strategy specs, optionally ``spec@solver`` (see
    :func:`split_column`).

    :returns: ``(canonical specs, canonical baseline)``; the baseline
        is prepended when the column list does not already contain it.
    :raises SpecError, UnknownStrategyError: for invalid specs.
    :raises UnknownSolverError, SolverCapabilityError: for invalid
        ``@solver`` suffixes.
    """
    base = _canonical_column(baseline)
    columns: List[str] = [base]
    for spec in strategies:
        canon = _canonical_column(spec)
        if canon not in columns:
            columns.append(canon)
    return columns, base


def run_matrix(
    programs: Sequence[Tuple[str, str, str]],
    strategies: Sequence[str] = DEFAULT_MATRIX_STRATEGIES,
    *,
    baseline: str = "widen",
    context: str = "insensitive",
    max_evals: int = _MAX_EVALS,
    quick: bool = False,
    revision: Optional[str] = None,
) -> dict:
    """Solve every program under every strategy; build the document.

    :param programs: ``(family, name, source)`` rows, e.g. from
        :func:`repro.batch.corpus.matrix_programs`.
    :param strategies: strategy specs forming the columns; canonicalized
        and deduplicated, with ``baseline`` always included.
    :param baseline: the column every other cell's precision counts are
        measured against (the paper's is pure widening).
    :raises SpecError, UnknownStrategyError: for invalid strategy specs
        (before any solving starts).
    """
    columns, base = resolve_matrix_strategies(strategies, baseline)
    cells: List[dict] = []
    for family, program, source in programs:
        results: Dict[str, object] = {}
        for spec in columns:
            cell = _blank_cell(family, program, spec)
            try:
                result, seconds = _run_cell(
                    _cell_job(family, program, source, spec, context, max_evals)
                )
            except DivergenceError as err:
                cell.update(status="divergence", code=3, error=str(err))
            except (LexError, ParseError, SemanticError) as err:
                cell.update(status="input-error", code=2, error=str(err))
            except Exception as err:  # pragma: no cover - defensive
                cell.update(status="fault", code=4, error=repr(err))
            else:
                results[spec] = result
                stats = result.solver_result.stats
                cell.update(
                    hash=solution_fingerprint(
                        result.solver_result.sigma, result.lattice
                    ),
                    evaluations=stats.evaluations,
                    updates=stats.updates,
                    wall_time=round(seconds, 6),
                )
            cells.append(cell)
        baseline_result = results.get(base)
        if baseline_result is None:
            continue  # baseline failed: cost columns stand, precision empty
        from repro.analysis.compare import compare_results

        for cell in cells[-len(columns):]:
            result = results.get(cell["strategy"])
            if result is None:
                continue
            cmp_ = compare_results(result, baseline_result)
            cell.update(
                better=cmp_.better,
                worse=cmp_.worse,
                equal=cmp_.equal,
                incomparable=cmp_.incomparable,
                total=cmp_.total,
            )

    failed = sum(1 for cell in cells if cell["code"] != 0)
    per_strategy = []
    for spec in columns:
        mine = [c for c in cells if c["strategy"] == spec]
        ok = [c for c in mine if c["code"] == 0]
        compared = sum(c["total"] for c in ok)
        improved = sum(c["better"] for c in ok)
        per_strategy.append(
            {
                "strategy": spec,
                "ok": len(ok),
                "failed": len(mine) - len(ok),
                "evaluations": sum(c["evaluations"] for c in ok),
                "wall_time": round(sum(c["wall_time"] for c in ok), 6),
                "improved_points": improved,
                "regressed_points": sum(c["worse"] for c in ok),
                "compared_points": compared,
                "improved_fraction": (
                    round(improved / compared, 4) if compared else 0.0
                ),
                "programs_improved": sum(1 for c in ok if c["better"]),
            }
        )
    return {
        "format": MATRIX_FORMAT,
        "revision": revision if revision is not None else git_revision(),
        "python": platform.python_version(),
        "quick": bool(quick),
        "baseline": base,
        "strategies": columns,
        "cells": cells,
        "totals": {
            "cells": len(cells),
            "ok": len(cells) - failed,
            "failed": failed,
            "strategies": per_strategy,
        },
    }


def validate_matrix(doc: dict) -> List[str]:
    """Schema problems of a matrix document; empty when valid."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != MATRIX_FORMAT:
        problems.append(
            f"format must be {MATRIX_FORMAT!r}, got {doc.get('format')!r}"
        )
    for key, kind in (
        ("revision", str),
        ("python", str),
        ("quick", bool),
        ("baseline", str),
        ("strategies", list),
        ("cells", list),
        ("totals", dict),
    ):
        if not isinstance(doc.get(key), kind):
            problems.append(f"missing or mistyped field {key!r}")
    strategies = doc.get("strategies")
    if isinstance(strategies, list) and doc.get("baseline") not in strategies:
        problems.append("baseline is not among the strategies")
    cells = doc.get("cells")
    if not isinstance(cells, list):
        return problems
    seen = set()
    for pos, cell in enumerate(cells):
        where = f"cells[{pos}]"
        if not isinstance(cell, dict):
            problems.append(f"{where} is not an object")
            continue
        for name in _CELL_FIELDS:
            if name not in cell:
                problems.append(f"{where} lacks field {name!r}")
        for name in _INT_CELL_FIELDS:
            if name in cell and not isinstance(cell[name], int):
                problems.append(f"{where}.{name} is not an integer")
        if "wall_time" in cell and not isinstance(
            cell["wall_time"], (int, float)
        ):
            problems.append(f"{where}.wall_time is not a number")
        key = (cell.get("family"), cell.get("program"), cell.get("strategy"))
        if key in seen:
            problems.append(f"duplicate cell {key!r}")
        seen.add(key)
        if cell.get("status") == "ok" and not cell.get("hash"):
            problems.append(f"{where} is ok but lacks a post-solution hash")
    totals = doc.get("totals")
    if isinstance(totals, dict):
        if totals.get("cells") != len(cells):
            problems.append("totals.cells does not match the cell count")
        rows = totals.get("strategies")
        if not isinstance(rows, list):
            problems.append("totals.strategies is not a list")
        elif isinstance(strategies, list) and [
            row.get("strategy") for row in rows if isinstance(row, dict)
        ] != list(strategies):
            problems.append("totals.strategies does not match the columns")
    return problems


def write_matrix(doc: dict, path) -> Path:
    """Write a document as stable, human-diffable JSON; returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_matrix(path) -> dict:
    """Load and validate a matrix document.

    :raises ValueError: when the file is not a schema-valid document.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = validate_matrix(doc)
    if problems:
        raise ValueError(
            f"{path}: not a valid {MATRIX_FORMAT} document: "
            + "; ".join(problems[:5])
        )
    return doc


@dataclass
class MatrixComparison:
    """The verdict of gating a matrix document against a baseline."""

    #: Gate-failing findings, human-readable.
    regressions: List[str] = field(default_factory=list)
    #: Noteworthy non-failing findings (improvements, new cells).
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = []
        for note in self.notes:
            lines.append(f"note: {note}")
        for regression in self.regressions:
            lines.append(f"REGRESSION: {regression}")
        lines.append(
            "matrix gate: "
            + ("ok" if self.ok else f"{len(self.regressions)} regression(s)")
        )
        return "\n".join(lines)


def compare_matrices(current: dict, baseline: dict) -> MatrixComparison:
    """Gate ``current`` against a committed baseline matrix.

    Precision counts are byte-stable across machines, so the gate is
    exact -- no thresholds.  Regressions (any fails the gate):

    * the two documents measure against different baseline strategies
      (the precision counts would be apples to oranges);
    * a baseline strategy column missing from the current document;
    * a baseline cell missing from the current document;
    * a cell ok in the baseline but failing now;
    * a cell proving *fewer* points better than the widening baseline,
      or *more* points worse, than it did in the committed baseline --
      i.e. any precision loss anywhere in the matrix;
    * per-strategy aggregate ``improved_points`` dropping or
      ``regressed_points`` rising (belts and braces: catches doctored
      totals even when every cell agrees).

    Precision *gains*, hash changes, and new strategies/cells are notes:
    ``repro bench --matrix --update-baseline`` refreshes the baseline
    when a gain is intended.
    """
    cmp_ = MatrixComparison()
    if current.get("baseline") != baseline.get("baseline"):
        cmp_.regressions.append(
            f"baseline strategy differs: current {current.get('baseline')!r} "
            f"vs committed {baseline.get('baseline')!r}"
        )
        return cmp_

    missing = [
        spec
        for spec in baseline.get("strategies", [])
        if spec not in current.get("strategies", [])
    ]
    for spec in missing:
        cmp_.regressions.append(
            f"strategy {spec!r} missing from the current matrix"
        )
    for spec in current.get("strategies", []):
        if spec not in baseline.get("strategies", []):
            cmp_.notes.append(f"strategy {spec!r}: new, not in the baseline")

    def key(cell):
        return (cell["family"], cell["program"], cell["strategy"])

    base_cells = {key(c): c for c in baseline.get("cells", [])}
    cur_cells = {key(c): c for c in current.get("cells", [])}
    for cell_key, base in base_cells.items():
        where = "/".join(cell_key)
        if base["strategy"] in missing:
            continue  # already reported at strategy granularity
        cur = cur_cells.get(cell_key)
        if cur is None:
            cmp_.regressions.append(f"{where}: missing from the current matrix")
            continue
        if cur["code"] != 0 and base["code"] == 0:
            cmp_.regressions.append(
                f"{where}: was ok, now {cur['status']} "
                f"(code {cur['code']}): {cur['error'] or 'no detail'}"
            )
            continue
        if cur["code"] != 0:
            continue  # failing in both: visible in totals, not a regression
        if cur["better"] < base["better"] or cur["worse"] > base["worse"]:
            cmp_.regressions.append(
                f"{where}: precision regressed to better={cur['better']} "
                f"worse={cur['worse']} from baseline "
                f"better={base['better']} worse={base['worse']}"
            )
        elif cur["better"] > base["better"] or cur["worse"] < base["worse"]:
            cmp_.notes.append(
                f"{where}: precision improved to better={cur['better']} "
                f"worse={cur['worse']} (refresh the baseline to lock it in)"
            )
        if cur["hash"] != base["hash"]:
            cmp_.notes.append(f"{where}: post-solution hash changed")
    for cell_key in cur_cells:
        if cell_key not in base_cells:
            cmp_.notes.append(
                f"{'/'.join(cell_key)}: new cell, not in the baseline"
            )

    base_rows = {
        row["strategy"]: row
        for row in baseline.get("totals", {}).get("strategies", [])
    }
    cur_rows = {
        row["strategy"]: row
        for row in current.get("totals", {}).get("strategies", [])
    }
    for spec, base in base_rows.items():
        cur = cur_rows.get(spec)
        if cur is None:
            continue  # missing strategies already reported above
        if cur["improved_points"] < base["improved_points"]:
            cmp_.regressions.append(
                f"{spec}: improved_points fell to {cur['improved_points']} "
                f"from baseline {base['improved_points']}"
            )
        if cur["regressed_points"] > base["regressed_points"]:
            cmp_.regressions.append(
                f"{spec}: regressed_points rose to {cur['regressed_points']} "
                f"from baseline {base['regressed_points']}"
            )
    return cmp_


def render_matrix(doc: dict) -> str:
    """The human-readable summary table of a matrix document."""
    lines = [
        f"strategy matrix vs baseline {doc['baseline']} "
        f"({doc['totals']['cells']} cells, {doc['totals']['failed']} failed)"
    ]
    width = max(len(row["strategy"]) for row in doc["totals"]["strategies"])
    header = (
        f"  {'strategy'.ljust(width)}  {'ok':>4}  {'evals':>10}  "
        f"{'improved':>16}  {'worse':>6}  {'time':>8}"
    )
    lines.append(header)
    for row in doc["totals"]["strategies"]:
        improved = (
            f"{row['improved_points']}/{row['compared_points']} "
            f"({100.0 * row['improved_fraction']:.1f}%)"
        )
        lines.append(
            f"  {row['strategy'].ljust(width)}  {row['ok']:>4}  "
            f"{row['evaluations']:>10}  {improved:>16}  "
            f"{row['regressed_points']:>6}  {row['wall_time']:>7.2f}s"
        )
    for cell in doc["cells"]:
        if cell["code"] != 0:
            lines.append(
                f"  FAILED {cell['family']}/{cell['program']}/"
                f"{cell['strategy']}: {cell['status']} (code "
                f"{cell['code']}) {cell['error']}"
            )
    return "\n".join(lines)
