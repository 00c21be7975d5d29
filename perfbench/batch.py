"""Batch workloads: ``execute_job`` sequentially, in the benchmark process.

A run makes a fixed number of whole passes over the workload's jobs,
each pass in a fresh seeded order, timing every job.  Pass
figures add up each job's *fastest* time: the jobs are deterministic and
CPU-bound, so on a shared machine interference only ever adds time, and
best-of-N is the estimate least moved by it.  Every job gets the same N
in every run, so the estimate has the same bias in all of them.

Each job starts from an empty garbage-collector state: what was live
before the first pass is frozen, and the rest is collected (untimed)
before every job.  A job then pays for exactly the collections its own
allocations cause, wherever the seed places it in a pass.
"""

from __future__ import annotations

import gc
import random
import time
from collections import defaultdict

from common import percentile, self_peak_rss_mb
from oracle import OK_STATUSES, batch_wrong
from workloads import batch_jobs


def setup(workload: str):
    """Imports, corpus enumeration and one untimed warm-up job."""
    from repro.batch import jobs as jobs_module

    jobs = batch_jobs(workload)
    jobs_module.execute_job(jobs[0])
    return jobs


#: Nominal seconds of one pass on a 2-vCPU Xeon virtual machine; a run
#: makes ``seconds / PASS_S`` whole passes, and at least two.
PASS_S = 2.5
#: A run stops after the pass that takes it past this many times
#: ``seconds`` (only a drastically slower program gets there).
OVERRUN = 3.0


def _measure(workload: str, seed: int, seconds: float, run_job) -> dict:
    """Whole passes over the jobs; per-job samples and results."""
    jobs = batch_jobs(workload)
    rng = random.Random(seed)
    walls = defaultdict(list)
    cpus = defaultdict(list)
    results = defaultdict(list)
    passes = max(2, round(seconds / PASS_S))
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    done = 0
    try:
        while done < passes and time.perf_counter() - started < OVERRUN * seconds:
            order = list(jobs)
            rng.shuffle(order)
            for job in order:
                gc.collect()
                wall0 = time.perf_counter()
                cpu0 = time.process_time()
                results[job.id].append(run_job(job))
                walls[job.id].append(time.perf_counter() - wall0)
                cpus[job.id].append(time.process_time() - cpu0)
            done += 1
    finally:
        gc.unfreeze()
    return {
        "jobs": jobs, "walls": walls, "cpus": cpus, "results": results, "passes": done,
    }


def _judge(jobs, results, expected):
    attempted = failed = wrong = 0
    for job in jobs:
        for result in results[job.id]:
            attempted += 1
            if result.status not in OK_STATUSES:
                failed += 1
            if batch_wrong(result, job, expected):
                wrong += 1
    return attempted, failed, wrong


def run(workload: str, seed: int, seconds: float, expected: dict) -> dict:
    from repro.batch import jobs as jobs_module

    sample = _measure(workload, seed, seconds, jobs_module.execute_job)
    jobs = sample["jobs"]
    attempted, failed, wrong = _judge(jobs, sample["results"], expected)
    per_job_wall = [min(sample["walls"][job.id]) for job in jobs]
    pass_s = sum(per_job_wall)
    pass_cpu_s = sum(min(sample["cpus"][job.id]) for job in jobs)
    metrics = {
        "pass_s": pass_s,
        "pass_cpu_s": pass_cpu_s,
        "evaluations": sum(sample["results"][job.id][0].evaluations for job in jobs),
        "throughput_rps": len(jobs) / pass_s,
        "latency_p50_ms": percentile(per_job_wall, 0.50) * 1000.0,
        "latency_p99_ms": percentile(per_job_wall, 0.99) * 1000.0,
        "server_cpu_ms_per_req": pass_cpu_s / len(jobs) * 1000.0,
        "peak_rss_mb": self_peak_rss_mb(),
    }
    detail = {
        "jobs": len(jobs),
        "passes": sample["passes"],
        "per_job_best_s": dict(zip((job.id for job in jobs), per_job_wall)),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": metrics,
        "detail": detail,
    }


def run_traced(workload: str, seed: int, seconds: float, expected: dict) -> dict:
    """Alternate untraced and traced ``execute_job`` calls, job by job.

    The untraced call times the job as the end-to-end runs do; the traced
    call records the layer spans.  Both results must equal each other
    and the recorded answer.
    """
    from repro.batch import jobs as jobs_module

    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    plain = jobs_module.execute_job
    timings = {"plain": 0.0, "traced": 0.0}
    mismatched = []

    def paired(job):
        started = time.perf_counter()
        untraced = plain(job)
        middle = time.perf_counter()
        tracer.install()
        try:
            traced = jobs_module.execute_job(job)
        finally:
            tracer.uninstall()
        timings["plain"] += middle - started
        timings["traced"] += time.perf_counter() - middle
        if untraced.deterministic() != traced.deterministic():
            mismatched.append(job.id)
        return traced

    sample = _measure(workload, seed, seconds, paired)
    attempted, failed, wrong = _judge(sample["jobs"], sample["results"], expected)
    wrong += len(mismatched)
    # Sums per corpus pass.
    values = layer_metrics(tracer.spans, 1.0 / sample["passes"])
    roots = [s for s in tracer.spans if s.name == "batch.execute"]
    values["trace.overhead_share"] = timings["traced"] / timings["plain"] - 1.0
    values["trace.unattributed_share"] = sum(s.self_time for s in roots) / sum(
        s.duration for s in roots
    )
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": values,
        "detail": {
            "passes": sample["passes"],
            "spans": tracer.dump(),
            "traced_differs_from_untraced": mismatched,
        },
    }
