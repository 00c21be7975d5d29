"""Corpus benchmarking: measure, persist, and gate on regressions.

:func:`run_bench` drives the farm over a corpus ``repeats`` times in
interleaved rounds (round 1 runs every job, then round 2 runs every job
again, ...), takes the minimum wall time per job across rounds -- the
standard noise filter for small benchmarks -- and cross-checks that every
deterministic field agreed between rounds.  The merged measurements are
packaged as a ``BENCH_<rev>.json`` document in the stable schema below,
and :func:`compare_benches` gates a document against a committed baseline
(``benchmarks/baseline.json``) with configurable thresholds: that
comparison's nonzero verdict is what CI fails PRs on.

Schema (``format: repro-bench/1``)::

    {
      "format":   "repro-bench/1",
      "revision": "<git short rev or 'local'>",
      "python":   "3.12.1",
      "quick":    true,
      "repeats":  2,
      "workers":  4,
      "jobs": [            # one entry per corpus job, corpus order
        {
          "job": "wcet/bs/warrow", "family": "wcet", "program": "bs",
          "kind": "solve",           # or "check" for checker jobs
          "status": "ok", "code": 0,
          "hash": "<sha256 of the post solution>",
          "evaluations": 275, "updates": 144, "unknowns": 33,
          "max_queue": 7, "widen_updates": 120, "narrow_updates": 24,
          "direction_switches": 9, "proved": 0, "unproved": 0,
          "findings": 0,             # diagnostics count of check jobs
          "wall_time": 0.0104,       # min over rounds, seconds
          "peak_rss_kb": 34816, "error": ""
        }, ...
      ],
      "totals": {
        "jobs": 30, "ok": 30, "failed": 0,
        "evaluations": 12345, "wall_time": 1.9
      },
      "deterministic": true   # rounds agreed on every per-job field
    }

Wall times are machine-dependent and live in the schema for trend
plots and the (coarse, total-only) time gate; everything else in a job
entry is byte-stable across worker counts and repeat counts.
"""

from __future__ import annotations

import json
import platform
import subprocess
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from repro.batch.farm import run_jobs
from repro.batch.jobs import JobResult, JobSpec

#: Format marker of the benchmark document schema.
BENCH_FORMAT = "repro-bench/1"

#: Default regression thresholds (fractions), the CI gate's contract:
#: >15% more evaluations on any job or in total, >30% more total wall
#: time, fails the gate.
EVAL_THRESHOLD = 0.15
TIME_THRESHOLD = 0.30

#: Per-job result fields persisted in a document's ``jobs`` entries, in
#: schema order.  Keep in sync with :class:`~repro.batch.jobs.JobResult`.
_JOB_FIELDS = (
    "job",
    "family",
    "program",
    "kind",
    "status",
    "code",
    "hash",
    "evaluations",
    "updates",
    "unknowns",
    "max_queue",
    "widen_updates",
    "narrow_updates",
    "direction_switches",
    "restarts",
    "proved",
    "unproved",
    "findings",
    "wall_time",
    "peak_rss_kb",
    "error",
)

_INT_FIELDS = (
    "code",
    "evaluations",
    "updates",
    "unknowns",
    "max_queue",
    "widen_updates",
    "narrow_updates",
    "direction_switches",
    "restarts",
    "proved",
    "unproved",
    "findings",
    "peak_rss_kb",
)


def git_revision(root: Optional[Path] = None) -> str:
    """The checkout's short revision, or ``"local"`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "local"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "local"


def run_bench(
    jobs: Sequence[JobSpec],
    *,
    repeats: int = 3,
    workers: Optional[int] = None,
    quick: bool = False,
    revision: Optional[str] = None,
    on_result: Optional[Callable[[JobResult], None]] = None,
) -> dict:
    """Measure ``jobs`` over ``repeats`` interleaved rounds.

    Returns a schema-valid benchmark document.  Per-job wall time is the
    minimum over rounds; deterministic fields must agree across rounds,
    and any disagreement is surfaced in the document
    (``deterministic: false`` plus a ``nondeterministic`` job list) --
    the bench gate treats that as a failure.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    rounds: List[List[JobResult]] = []
    for _ in range(repeats):
        rounds.append(run_jobs(jobs, workers=workers, on_result=on_result))

    merged: List[JobResult] = []
    unstable: List[str] = []
    for per_job in zip(*rounds):
        best = per_job[0]
        for other in per_job[1:]:
            if other.deterministic() != best.deterministic():
                unstable.append(best.job)
            if other.wall_time < best.wall_time:
                best = replace(best, wall_time=other.wall_time)
            if other.peak_rss_kb > best.peak_rss_kb:
                best = replace(best, peak_rss_kb=other.peak_rss_kb)
        merged.append(best)

    entries = [
        {name: getattr(result, name) for name in _JOB_FIELDS}
        for result in merged
    ]
    # ``findings`` is the expected outcome of the buggy check corpus, not
    # a job failure; drift in the findings themselves is gated per job by
    # :func:`compare_benches`.
    failed = sum(1 for r in merged if r.code != 0 and r.status != "findings")
    doc = {
        "format": BENCH_FORMAT,
        "revision": revision if revision is not None else git_revision(),
        "python": platform.python_version(),
        "quick": bool(quick),
        "repeats": repeats,
        "workers": workers,
        "jobs": entries,
        "totals": {
            "jobs": len(merged),
            "ok": len(merged) - failed,
            "failed": failed,
            "evaluations": sum(r.evaluations for r in merged),
            "wall_time": round(sum(r.wall_time for r in merged), 6),
        },
        "deterministic": not unstable,
    }
    if unstable:
        doc["nondeterministic"] = sorted(set(unstable))
    return doc


def validate_bench(doc: dict) -> List[str]:
    """Schema problems of a benchmark document; empty when valid."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    if doc.get("format") != BENCH_FORMAT:
        problems.append(
            f"format must be {BENCH_FORMAT!r}, got {doc.get('format')!r}"
        )
    for key, kind in (
        ("revision", str),
        ("python", str),
        ("quick", bool),
        ("repeats", int),
        ("jobs", list),
        ("totals", dict),
        ("deterministic", bool),
    ):
        if not isinstance(doc.get(key), kind):
            problems.append(f"missing or mistyped field {key!r}")
    jobs = doc.get("jobs")
    if not isinstance(jobs, list):
        return problems
    seen = set()
    for pos, entry in enumerate(jobs):
        where = f"jobs[{pos}]"
        if not isinstance(entry, dict):
            problems.append(f"{where} is not an object")
            continue
        for name in _JOB_FIELDS:
            if name not in entry:
                problems.append(f"{where} lacks field {name!r}")
        for name in _INT_FIELDS:
            if name in entry and not isinstance(entry[name], int):
                problems.append(f"{where}.{name} is not an integer")
        if "wall_time" in entry and not isinstance(
            entry["wall_time"], (int, float)
        ):
            problems.append(f"{where}.wall_time is not a number")
        job_id = entry.get("job")
        if job_id in seen:
            problems.append(f"duplicate job id {job_id!r}")
        seen.add(job_id)
        if entry.get("status") == "ok" and not entry.get("hash"):
            problems.append(f"{where} is ok but lacks a post-solution hash")
    totals = doc.get("totals")
    if isinstance(totals, dict) and isinstance(jobs, list):
        if totals.get("jobs") != len(jobs):
            problems.append("totals.jobs does not match the job count")
    return problems


def write_bench(doc: dict, path) -> Path:
    """Write a bench or matrix document as stable, human-diffable JSON;
    returns the path."""
    path = Path(path)
    path.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def load_bench(
    path,
    validate: Callable[[dict], List[str]] = validate_bench,
    fmt: str = BENCH_FORMAT,
) -> dict:
    """Load a document and check it with ``validate``: a benchmark
    document by default, a matrix one with
    :func:`~repro.batch.matrix.validate_matrix` and its format name.

    :raises ValueError: when the file is not a schema-valid document.
    """
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = validate(doc)
    if problems:
        raise ValueError(
            f"{path}: not a valid {fmt} document: " + "; ".join(problems[:5])
        )
    return doc


@dataclass
class BenchComparison:
    """The verdict of gating a bench or matrix document against a
    baseline."""

    #: Gate-failing findings, human-readable.
    regressions: List[str] = field(default_factory=list)
    #: Noteworthy non-failing findings (improvements, new jobs or cells).
    notes: List[str] = field(default_factory=list)
    #: Which gate's verdict this is, for the last line of :meth:`render`.
    label: str = "bench"

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
            f"{self.label} gate: "
            + ("ok" if self.ok else f"{len(self.regressions)} regression(s)")
        )
        return "\n".join(lines)


def compare_benches(
    current: dict,
    baseline: dict,
    *,
    eval_threshold: float = EVAL_THRESHOLD,
    time_threshold: float = TIME_THRESHOLD,
) -> BenchComparison:
    """Gate ``current`` against ``baseline``.

    Regressions (any of these fails the gate):

    * a baseline job missing from the current run;
    * a job ok in the baseline but failing now (or crashing either way);
    * a check job's findings count differing from the baseline -- checker
      behaviour is deterministic, so any drift (new false positives on a
      clean twin, a lost detection on a seeded bug) is a regression until
      the baseline is deliberately refreshed;
    * a job's evaluation count above ``baseline * (1 + eval_threshold)``;
    * the corpus-total evaluation count above the same factor;
    * the corpus-total wall time above ``baseline * (1 + time_threshold)``
      (totals only -- per-job times on a sub-second corpus are noise);
    * a nondeterministic current run (rounds disagreed).

    Hash changes and eval-count *improvements* are reported as notes:
    solutions legitimately change when solvers or domains change, and the
    baseline refresh workflow (``docs/batch.md``) handles that.
    """
    cmp_ = BenchComparison()
    if not current.get("deterministic", False):
        unstable = ", ".join(current.get("nondeterministic", [])) or "?"
        cmp_.regressions.append(
            f"current run is nondeterministic across rounds ({unstable})"
        )

    base_jobs: Dict[str, dict] = {e["job"]: e for e in baseline["jobs"]}
    cur_jobs: Dict[str, dict] = {e["job"]: e for e in current["jobs"]}

    for job_id, base in base_jobs.items():
        cur = cur_jobs.get(job_id)
        if cur is None:
            cmp_.regressions.append(f"{job_id}: missing from the current run")
            continue
        if cur["code"] != 0 and base["code"] == 0:
            cmp_.regressions.append(
                f"{job_id}: was ok, now {cur['status']} "
                f"(code {cur['code']}): {cur['error'] or 'no detail'}"
            )
            continue
        if cur.get("findings", 0) != base.get("findings", 0):
            cmp_.regressions.append(
                f"{job_id}: {cur.get('findings', 0)} findings vs baseline "
                f"{base.get('findings', 0)} (checker behaviour changed; "
                f"refresh the baseline if intended)"
            )
        if cur["code"] != 0 and cur.get("status") == "findings":
            continue  # expected checker outcome; findings drift gated above
        if cur["code"] != 0:
            continue  # failing in both: not a regression, visible in totals
        allowed = base["evaluations"] * (1.0 + eval_threshold)
        if cur["evaluations"] > allowed:
            cmp_.regressions.append(
                f"{job_id}: {cur['evaluations']} evaluations vs baseline "
                f"{base['evaluations']} "
                f"(+{_pct(cur['evaluations'], base['evaluations'])}, "
                f"threshold +{eval_threshold:.0%})"
            )
        elif cur["evaluations"] < base["evaluations"]:
            cmp_.notes.append(
                f"{job_id}: improved to {cur['evaluations']} evaluations "
                f"from {base['evaluations']}"
            )
        if cur["hash"] != base["hash"]:
            cmp_.notes.append(
                f"{job_id}: post-solution hash changed "
                f"(precision change? refresh the baseline if intended)"
            )

    for job_id in cur_jobs:
        if job_id not in base_jobs:
            cmp_.notes.append(f"{job_id}: new job, not in the baseline")

    base_evals = baseline["totals"]["evaluations"]
    cur_evals = current["totals"]["evaluations"]
    if base_evals and cur_evals > base_evals * (1.0 + eval_threshold):
        cmp_.regressions.append(
            f"total evaluations {cur_evals} vs baseline {base_evals} "
            f"(+{_pct(cur_evals, base_evals)}, "
            f"threshold +{eval_threshold:.0%})"
        )
    base_time = baseline["totals"]["wall_time"]
    cur_time = current["totals"]["wall_time"]
    if current.get("workers") != baseline.get("workers"):
        # Per-job wall times time-share the machine differently under a
        # different worker count, so cross-worker-count comparisons are
        # apples to oranges -- the eval gates above carry the regression
        # signal, the time gate stands down.
        cmp_.notes.append(
            f"wall-time gate skipped: worker counts differ "
            f"({current.get('workers')} vs baseline "
            f"{baseline.get('workers')})"
        )
    elif base_time and cur_time > base_time * (1.0 + time_threshold):
        cmp_.regressions.append(
            f"total wall time {cur_time:.3f}s vs baseline {base_time:.3f}s "
            f"(+{_pct(cur_time, base_time)}, "
            f"threshold +{time_threshold:.0%})"
        )
    return cmp_


def _pct(cur: float, base: float) -> str:
    return f"{(cur - base) / base:.0%}" if base else "inf"
