"""The repository benchmark: two workloads, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Workloads (see ``BENCHMARK.json`` for why each exists):

``corpus-cold``    ``execute_job`` over the examples, buggy (check), wcet,
                   fig7 and restart corpus families, in the benchmark process;
``fleet-mixed``    two closed-loop clients against ``repro serve --shards 2``.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs the
layer-traced variant and reports the per-layer metrics.  Every metric is
printed as ``name value unit`` and the last line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  A full record of the
run (revision, Python, nproc, seed, the service schedule with every
reply) is saved under ``.perfbench/results/``.  The exit status is
non-zero when any answer differs from ``perfbench/expected.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from common import (
    ROOT,
    BenchError,
    median,
    pin_to_one_cpu,
    require_source,
    run_info,
    save_record,
)

#: Extra ``setup_s`` samples taken in fresh interpreters (batch workloads).
SETUP_SAMPLES = 5
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def declared_metrics(section: str) -> dict:
    doc = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in doc[section]}


def setup_probe(workload: str) -> int:
    """Child side of a batch ``setup_s`` sample: set up, then say so."""
    import batch

    batch.setup(workload)
    print("ready", flush=True)
    return 0


def batch_setup_seconds(workload: str) -> list:
    """Spawn-to-ready seconds of fresh batch set-ups."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        probe = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", workload],
            stdout=subprocess.PIPE, text=True,
        )
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.stdout.close()
        if probe.wait() != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe for {workload} failed")
        samples.append(elapsed)
    return samples


def measure(workload: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    import batch
    import service
    from workloads import BATCH

    if workload in BATCH:
        if trace:
            batch.setup(workload)
            return batch.run_traced(workload, seed, seconds, expected)
        setups = batch_setup_seconds(workload)
        batch.setup(workload)
        outcome = batch.run(workload, seed, seconds, expected)
        outcome["metrics"]["setup_s"] = median(setups)
        outcome["detail"]["setup_samples_s"] = setups
        return outcome
    if trace:
        return service.run_traced(workload, seed, seconds, expected)
    return service.run(workload, seed, seconds, expected)


def report(outcome: dict, trace: bool) -> dict:
    """The result object, with every declared metric and nothing else."""
    section = "per_layer" if trace else "end_to_end"
    units = declared_metrics(section)
    attempted = outcome["attempted"]
    values = dict(outcome["metrics"])
    if not trace:
        values["answered_share"] = 1.0 - outcome["failed"] / attempted
        values["right_share"] = 1.0 - outcome["wrong"] / attempted
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": outcome["wrong"] == 0,
        "attempted": attempted,
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def run_once(args) -> int:
    require_source()
    import oracle
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    expected = oracle.load()
    trace = bool(args.trace)
    info = run_info(args.workload, args.seed, args.seconds, trace)
    info["cpu"] = pin_to_one_cpu()
    outcome = measure(args.workload, args.seed, args.seconds, trace, expected)
    result = report(outcome, trace)
    path = save_record({"run": info, "result": result, "detail": outcome["detail"]})
    for key in ("revision", "source_digest", "python", "nproc", "seed"):
        print(f"# {key}: {info[key]}")
    print(f"# wrong answers: {outcome['wrong']}; record: {os.path.relpath(path, ROOT)}")
    for key, value in sorted(outcome["detail"].get("shares", {}).items()):
        print(f"# {key} {value:.4f}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0 if result["correct"] else 1


def self_check() -> int:
    """Each workload, both modes, briefly: every declared metric present."""
    from workloads import BATCH, WORKLOADS

    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            seconds = 2 if workload in BATCH else 4
            argv = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", "1", "--seconds", str(seconds),
                "--trace", str(trace), "--slice",
            ]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=300)
            lines = done.stdout.strip().splitlines()
            problem = None
            try:
                result = json.loads(lines[-1])
                section = "per_layer" if trace else "end_to_end"
                names = set(result["metrics"])
                if names != set(declared_metrics(section)):
                    problem = f"metric names differ from BENCHMARK.json {section}"
                elif not result["correct"] or done.returncode:
                    problem = "wrong answers"
            except (IndexError, ValueError, KeyError):
                problem = f"no result line (exit {done.returncode}): {done.stderr[-300:]}"
            failures += problem is not None
            print(f"self-check {workload} trace={trace}: {problem or 'ok'}", flush=True)
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly and check the output names")
    parser.add_argument("--slice", action="store_true",
                        help="batch workloads: only the cheapest few jobs")
    parser.add_argument("--setup-probe", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        if args.setup_probe:
            require_source()
            return setup_probe(args.setup_probe)
        if args.slice:
            os.environ["PERFBENCH_SLICE"] = "1"
        if args.self_check:
            require_source()
            return self_check()
        if not args.workload:
            parser.error("--workload is required")
        return run_once(args)
    except BenchError as err:
        print(f"perfbench: error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
