"""Profile one ``corpus-cold`` pass under cProfile, solver threads included.

Every solve runs on its own deep-stack thread
(:func:`repro.solvers._deepcall.call_with_deep_stack`), which a plain
``cProfile.run`` never sees.  This tool profiles the calling thread and
every thread started during the pass, then reports

* the total number of Python calls, and calls per right-hand-side
  evaluation;
* ``__hash__`` calls on the unknown keys ``PP`` and ``GV``;
* self time per source file and the functions with the most self time,
  leaving out the time a thread waits on a lock (the calling thread
  waits for each solver thread it starts).

The jobs are those of the repository benchmark's ``corpus-cold``
workload: the ``examples``, ``buggy``, ``wcet``, ``fig7`` and ``restart``
families of :func:`repro.batch.corpus.corpus_jobs`, in corpus order.  One
untimed job runs first, so imports stay out of the profile.

Usage (from the repository root)::

    PYTHONPATH=src python tools/profile_pass.py
    PYTHONPATH=src python tools/profile_pass.py --smallest 3 --top 10
    PYTHONPATH=src python tools/profile_pass.py --json

Python 3.12 and later profile through ``sys.monitoring``, which sees
every thread from one profiler; earlier versions get one profiler per
thread, started by a ``threading.setprofile`` hook and merged at the end.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
import threading
from collections import defaultdict

#: The corpus families of ``corpus-cold``.
FAMILIES = ("examples", "buggy", "wcet", "fig7", "restart")


def pass_jobs(smallest: int = 0) -> list:
    """The pass's jobs; with ``smallest``, only that many shortest sources."""
    from repro.batch.corpus import corpus_jobs

    jobs = corpus_jobs(FAMILIES)
    if smallest:
        jobs = sorted(jobs, key=lambda job: (len(job.source), job.id))[:smallest]
    return jobs


def profile_jobs(jobs: list) -> tuple:
    """Run ``jobs`` under the profiler; ``(stats, evaluations)``."""
    from repro.batch.jobs import execute_job

    execute_job(jobs[0])  # warm-up: imports and first-use caches
    main = cProfile.Profile()
    threads: list = []

    def start_thread_profile(frame, event, arg) -> None:
        profile = cProfile.Profile()
        threads.append(profile)
        profile.enable()  # replaces this hook in the new thread

    per_thread = sys.version_info < (3, 12)
    if per_thread:
        threading.setprofile(start_thread_profile)
    evaluations = 0
    try:
        main.enable()
        for job in jobs:
            evaluations += execute_job(job).evaluations
        main.disable()
    finally:
        if per_thread:
            threading.setprofile(None)
    stats = pstats.Stats(main)
    for profile in threads:
        stats.add(profile)
    return stats, evaluations


def _source(filename: str) -> str:
    """A short, machine-independent name for a profiled file."""
    if filename == "~":
        return "builtins"
    marker = "/src/repro/"
    if marker in filename:
        return "repro/" + filename.split(marker, 1)[1]
    return filename.rsplit("/", 1)[-1]


#: The profile entry of a thread blocked on a lock.
LOCK_WAIT = ("~", 0, "<method 'acquire' of '_thread.lock' objects>")


def _hash_calls(raw: dict, cls) -> int:
    """Calls of ``cls.__hash__``."""
    code = cls.__hash__.__code__
    return sum(
        entry[1]
        for (filename, line, _), entry in raw.items()
        if filename == code.co_filename and line == code.co_firstlineno
    )


#: Files listed in the self-time table.
FILES = 12


def summarize(stats: pstats.Stats, jobs: int, evaluations: int, top: int) -> dict:
    """The report as plain data."""
    from repro.analysis.inter import GV, PP

    raw = dict(stats.stats)
    lock_wait = raw.pop(LOCK_WAIT, (0, 0, 0.0))[2]
    total_time = sum(entry[2] for entry in raw.values()) or 1.0
    by_file: dict = defaultdict(float)
    for (filename, _, _), (_, _, tottime, _, _) in raw.items():
        by_file[_source(filename)] += tottime
    ranked_files = sorted(by_file.items(), key=lambda kv: -kv[1])[:FILES]
    ranked = sorted(raw.items(), key=lambda kv: -kv[1][2])[:top]
    calls = stats.total_calls
    pp_hashes, gv_hashes = _hash_calls(raw, PP), _hash_calls(raw, GV)
    per_eval = 1.0 / evaluations if evaluations else 0.0
    return {
        "jobs": jobs,
        "evaluations": evaluations,
        "calls": calls,
        "calls_per_evaluation": calls * per_eval,
        "pp_hash_calls": pp_hashes,
        "gv_hash_calls": gv_hashes,
        "key_hashes_per_evaluation": (pp_hashes + gv_hashes) * per_eval,
        "lock_wait_seconds": lock_wait,
        "self_seconds": total_time,
        "self_share_by_file": {name: t / total_time for name, t in ranked_files},
        "top_functions": [
            {
                "function": f"{_source(filename)}:{line}({name})",
                "calls": entry[1],
                "self_seconds": entry[2],
            }
            for (filename, line, name), entry in ranked
        ],
    }


def render(report: dict) -> str:
    lines = [
        f"jobs {report['jobs']}, evaluations {report['evaluations']}",
        f"calls {report['calls']}, {report['calls_per_evaluation']:.1f} per evaluation",
        f"__hash__ calls: PP {report['pp_hash_calls']}, GV "
        f"{report['gv_hash_calls']}, {report['key_hashes_per_evaluation']:.1f} "
        "per evaluation",
        f"self time {report['self_seconds']:.3f} s (lock waits of "
        f"{report['lock_wait_seconds']:.3f} s left out), by file:",
    ]
    lines += [
        f"  {share * 100:5.1f}%  {name}"
        for name, share in report["self_share_by_file"].items()
    ]
    lines.append("top functions by self time:")
    lines.append(f"  {'calls':>9}  {'self s':>7}  function")
    lines += [
        f"  {row['calls']:>9}  {row['self_seconds']:7.3f}  {row['function']}"
        for row in report["top_functions"]
    ]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--smallest", type=int, default=0, metavar="N",
        help="profile only the N jobs with the shortest sources",
    )
    parser.add_argument("--top", type=int, default=15, help="functions to list")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    args = parser.parse_args(argv)
    jobs = pass_jobs(args.smallest)
    stats, evaluations = profile_jobs(jobs)
    report = summarize(stats, len(jobs), evaluations, args.top)
    print(json.dumps(report, indent=1) if args.json else render(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
