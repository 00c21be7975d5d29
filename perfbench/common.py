"""Shared helpers: repository paths, statistics, process accounting, records.

Everything here is stdlib only and reads and writes only inside the
checkout the benchmark runs from (scratch files go to ``.perfbench/``).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space: run directories, daemon sockets, saved run records.
OUT_DIR = ROOT / ".perfbench"


class BenchError(RuntimeError):
    """The benchmark cannot produce a result (bad input, broken program)."""


def require_source() -> None:
    """Make the program importable; fail when it is not there.

    ``benchmarks/`` and ``tools/`` go on the path too: the schedule takes
    its edit rule from ``benchmarks/test_bench_incremental.py`` and the
    daemon environment from ``tools/loadtest.py``.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC / 'repro'}")
    for path in (SRC, ROOT / "benchmarks", ROOT / "tools"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


# --------------------------------------------------------------------- #
# Statistics.                                                           #
# --------------------------------------------------------------------- #

def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


# --------------------------------------------------------------------- #
# Placement.                                                            #
# --------------------------------------------------------------------- #

def pin_to_one_cpu() -> int:
    """Run this thread, the threads it starts and every child process on
    the highest-numbered CPU this process may use; returns that CPU.

    On a 2-vCPU virtual machine shared with other tenants, unpinned
    service throughput ranged 295-784 requests/s over ten runs; pinned,
    595-743 over five.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


# --------------------------------------------------------------------- #
# Process accounting (Linux /proc).                                     #
# --------------------------------------------------------------------- #

_TICK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def process_tree(pid: int) -> list:
    """``pid`` and all its live descendants."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as handle:
                stat = handle.read().decode("utf-8", "replace")
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    tree, todo = [], [pid]
    while todo:
        current = todo.pop()
        tree.append(current)
        todo.extend(children.get(current, ()))
    return tree


def tree_cpu_s(pids) -> float:
    """User + system CPU seconds of the given processes, all threads."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat", "rb") as handle:
                fields = handle.read().decode("utf-8", "replace").rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])
    return total / _TICK


def tree_peak_rss_mb(pids) -> float:
    """Summed resident-set high-water marks (``VmHWM``) in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", "r", encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------- #
# Run records.                                                          #
# --------------------------------------------------------------------- #

def source_digest() -> str:
    """SHA-256 (12 hex digits) over every file under ``src/``."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def git_revision() -> str:
    """The checkout's git revision, or ``"none"`` outside a git checkout."""
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_info(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "revision": git_revision(),
        "source_digest": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def save_record(doc: dict) -> Path:
    """Write a run record under ``.perfbench/results/``; returns its path."""
    info = doc["run"]
    directory = OUT_DIR / "results"
    directory.mkdir(parents=True, exist_ok=True)
    name = f"{info['workload']}-seed{info['seed']}-trace{int(info['trace'])}.json"
    path = directory / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path
