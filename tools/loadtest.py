"""Chaos load test for the analysis service and the sharded fleet.

Single mode (the `service-chaos` CI job) boots a real ``repro serve``
daemon (small admission queue, in-flight journal, read deadline), then
hammers it with many concurrent ``ServiceClient`` threads over a seeded
mix of cold solves, cache hits, warm-start edits and checker runs,
while a :class:`~repro.supervise.chaos.TransportChaosPolicy` injects
socket faults (dropped connections, truncated request lines, stalled
writes) into every client.

Fleet mode (``--fleet``, the `fleet-loadtest` CI job) runs the *same*
seeded workload twice -- once against a single-daemon baseline, once
against a real ``repro serve --shards N`` fleet (router + shard
processes + shared store) -- and additionally asserts the scaling
story: the fleet's throughput strictly beats the baseline's on the
identical workload (the working set is sized to overflow one daemon's
bounded result cache but fit each shard's ring partition, so the
baseline repeats solver work the fleet serves from cache), and at
least one warm start was seeded by a donor another shard published
through the shared index.  A final sequential
edit sweep (one fresh variant per program family) makes the cross-shard
warm-start check deterministic rather than a race between clients.

The invariants asserted, per docs/service-reliability.md:

* **no wrong answers** -- every cold solve's and every check's solution
  fingerprint equals the locally precomputed expected hash for that
  request shape; every cache hit replays a fingerprint some solve of
  the same shape actually produced (warm-started solves may settle on
  a different -- independently re-verified -- post solution than cold,
  so they are held to consistency, not bit-equality).  In fleet mode
  the produced-fingerprint sets span the whole fleet, so a hit served
  by one shard may replay any shard's verified solve;
* **no lost requests** -- every submitted call terminates with either
  an ``ok`` reply or a *typed* :class:`ServiceError`; anything else
  (a bare exception, a hung thread) fails the run;
* **faults actually fired** -- at least ``MIN_FAULT_SHARE`` of client
  requests hit an injected fault, so a pass is evidence of resilience,
  not of a quiet network;
* **bounded tail latency** -- the p99 request latency stays under a
  (generous, machine-tolerant) bound.

The run is summarised as a ``repro-loadtest/1`` JSON document written
next to the BENCH artifacts (default ``LOADTEST_<rev>.json``, fleet
mode ``LOADTEST_FLEET_<rev>.json``), with the seed, the outcome/cache/
fault histograms, client retry counters, latency quantiles and the
server's final status embedded -- fleet mode records both phases plus
the router's fleet section (per-shard health, ring version, shared
counters).

Usage: PYTHONPATH=src python tools/loadtest.py [--quick] [--fleet]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)

from repro.batch.bench import git_revision  # noqa: E402
from repro.fleet import HashRing  # noqa: E402
from repro.service import (  # noqa: E402
    RetryPolicy,
    ServiceClient,
    ServiceError,
    solve_request_to_jobspec,
)
from repro.service.protocol import check_request_to_jobspec  # noqa: E402
from repro.supervise.chaos import TransportChaosPolicy  # noqa: E402

FORMAT = "repro-loadtest/1"
BOOT_TIMEOUT_S = 30.0
#: A pass must have injected faults into at least this share of calls.
MIN_FAULT_SHARE = 0.05

BASE = """
int main() {
  int i;
  int s;
  i = 0;
  s = 0;
  while (i < %d) {
    s = s + 2;
    i = i + 1;
  }
  return s;
}
"""

#: Distinct program shapes in single mode: four cold bases and one
#: edited variant per base (the warm-start candidates).  Small on
#: purpose -- the oracle precomputes the expected solution fingerprint
#: for every shape.  Fleet mode widens the family (more distinct cold
#: work to spread across shards); see :func:`program_families`.
SINGLE_BOUNDS = (10, 20, 30, 40)


def family_source(k: int, bound: int) -> str:
    """Family ``k``'s program at loop bound ``bound``.

    Families use distinct variable names on purpose: a bound edit
    *within* a family is a small CFG diff (a genuine warm start), while
    any *cross*-family pair differs in every statement -- so a shard
    can never paper over a missing family donor with a structurally
    unrelated one, and the shared-store donor checks below measure real
    cross-shard reuse.
    """
    i, s = f"i{k}", f"s{k}"
    return (
        "\nint main() {\n"
        f"  int {i};\n"
        f"  int {s};\n"
        f"  {i} = 0;\n"
        f"  {s} = 0;\n"
        f"  while ({i} < {bound}) {{\n"
        f"    {s} = {s} + 2;\n"
        f"    {i} = {i} + 1;\n"
        "  }\n"
        f"  return {s};\n"
        "}\n"
    )


def program_families(bounds, distinct_names: bool = False) -> tuple:
    """(bases, variants, sweep) program texts for the given loop bounds.

    ``variants`` are the concurrent warm-start edits (``bound + 2``);
    ``sweep`` are never-seen edits (``bound + 4``) submitted after the
    concurrent phase, when every family has a donor in the store.
    """
    if distinct_names:
        bases = [family_source(k, b) for k, b in enumerate(bounds)]
        variants = [family_source(k, b + 2) for k, b in enumerate(bounds)]
        sweep = [family_source(k, b + 4) for k, b in enumerate(bounds)]
    else:
        bases = [BASE % b for b in bounds]
        variants = [BASE % (b + 2) for b in bounds]
        sweep = [BASE % (b + 4) for b in bounds]
    return bases, variants, sweep


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"loadtest: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def wait_for_socket(path: str, server: subprocess.Popen, what: str) -> None:
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return
        if server.poll() is not None:
            check(False, f"{what} exited early with code {server.returncode}")
        time.sleep(0.05)
    check(False, f"{what} did not create {path} within {BOOT_TIMEOUT_S}s")


def build_schedule(
    rng: random.Random, requests: int, bases, variants, options=None
) -> list:
    """A deterministic request mix: cold/hit/warm/check for one client.

    Each item is ``(op, source, solve_options)``; ``check`` requests
    always run under default options (their oracle expectation is
    computed the same way).
    """
    options = options or {}
    schedule = []
    for _ in range(requests):
        roll = rng.random()
        if roll < 0.45:
            schedule.append(("solve", rng.choice(bases), options))
        elif roll < 0.70:
            schedule.append(("solve", rng.choice(variants), options))
        else:
            schedule.append(("check", rng.choice(bases), {}))
    return schedule


def request_key(op: str, source: str, options=None) -> str:
    """The spec fingerprint the router hashes for one request.

    Exactly the normalization + fingerprint pipeline the router and the
    shard caches use, so the workload can reason about key placement
    (and size the per-daemon cache) without asking the servers.
    """
    from repro.batch.jobs import spec_fingerprint

    if op == "solve":
        spec, _ = solve_request_to_jobspec(
            {"op": "solve", "source": source, **(options or {})}
        )
    else:
        spec, _ = check_request_to_jobspec({"op": "check", "source": source})
    return spec_fingerprint(spec)


def expected_hashes(solves, checks, solve_options=None) -> dict:
    """Locally computed solution fingerprints, per (op, source)."""
    from repro.batch.jobs import execute_job

    expected = {}
    for source in solves:
        spec, _ = solve_request_to_jobspec(
            {"op": "solve", "source": source, **(solve_options or {})}
        )
        expected[("solve", source)] = execute_job(spec).hash
    for source in checks:
        spec, _ = check_request_to_jobspec({"op": "check", "source": source})
        expected[("check", source)] = execute_job(spec).hash
    return expected


class ClientWorker(threading.Thread):
    """One concurrent client: its own socket, chaos stream and jitter."""

    def __init__(
        self, index, socket_path, schedule, fault_rate, seed, attempts=8,
    ):
        super().__init__(name=f"client-{index}", daemon=True)
        self.schedule = schedule
        self.chaos = TransportChaosPolicy(seed=seed * 1009 + index, rate=fault_rate)
        self.client = ServiceClient(
            socket_path=socket_path,
            timeout=60.0,
            retry=RetryPolicy(
                attempts=attempts,
                base_delay=0.02,
                max_delay=0.5,
                total_timeout=120.0,
                breaker_threshold=None,
            ),
            chaos=self.chaos,
            rng=random.Random(seed * 2003 + index),
        )
        self.outcomes = Counter()
        self.cache = Counter()
        self.latencies = []
        self.replies = []
        self.crash = None

    def run(self) -> None:
        try:
            for op, source, options in self.schedule:
                started = time.monotonic()
                try:
                    if op == "solve":
                        reply = self.client.solve(source, **options)
                    else:
                        reply = self.client.check(source)
                except ServiceError as err:
                    # A typed failure is a legitimate terminal outcome.
                    self.outcomes[type(err).__name__] += 1
                    self.client.close()
                    continue
                finally:
                    self.latencies.append(time.monotonic() - started)
                self.outcomes["ok"] += 1
                self.cache[reply["cache"]] += 1
                self.replies.append(
                    (
                        op,
                        source,
                        reply["cache"],
                        reply["result"]["hash"],
                        reply["result"]["status"],
                    )
                )
        except BaseException as err:  # noqa: BLE001 - report, don't hang
            self.crash = f"{type(err).__name__}: {err}"
        finally:
            self.client.close()


def quantile(values: list, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(q * len(ordered)))
    return ordered[index]


def latency_doc(latencies: list) -> dict:
    return {
        "p50": round(quantile(latencies, 0.50) * 1000, 1),
        "p95": round(quantile(latencies, 0.95) * 1000, 1),
        "p99": round(quantile(latencies, 0.99) * 1000, 1),
        "max": round(max(latencies) * 1000, 1) if latencies else 0.0,
    }


class PhaseResult:
    """Everything one workload phase produced, aggregated and checked."""

    def __init__(self, label, workers, elapsed):
        self.label = label
        self.elapsed = elapsed
        self.outcomes = Counter()
        self.cache = Counter()
        self.latencies = []
        self.replies = []
        self.fired = 0
        self.decisions = 0
        self.kinds = Counter()
        self.client_stats = Counter()
        for worker in workers:
            check(
                worker.crash is None,
                f"[{label}] {worker.name} crashed: {worker.crash}",
            )
            self.outcomes.update(worker.outcomes)
            self.cache.update(worker.cache)
            self.latencies.extend(worker.latencies)
            self.replies.extend(worker.replies)
            self.fired += worker.chaos.fired
            self.decisions += worker.chaos.decisions
            self.kinds.update(worker.chaos.log)
            for key, value in worker.client.stats().items():
                if isinstance(value, int):
                    self.client_stats[key] += value

    @property
    def ok(self) -> int:
        return self.outcomes["ok"]

    def throughput(self) -> float:
        """Successful replies per second of wall clock."""
        return self.ok / self.elapsed if self.elapsed > 0 else 0.0

    def wrong_answers(self, expected: dict) -> int:
        """Replies whose fingerprint fails the two-tier oracle.

        Cold solves and checks must equal the local expectation; hits
        must replay a fingerprint some non-hit reply of the same shape
        produced *in this phase* (fleet mode aggregates all shards'
        replies here, so the produced set is fleet-global).
        """
        produced = {key: {digest} for key, digest in expected.items()}
        for op, source, mode, digest, _status in self.replies:
            if mode != "hit":
                produced[(op, source)].add(digest)
        wrong = 0
        for op, source, mode, digest, status in self.replies:
            ok_status = ("ok", "findings") if op == "check" else ("ok",)
            if status not in ok_status:
                wrong += 1
            elif mode == "miss" or op == "check":
                wrong += digest != expected[(op, source)]
            else:
                wrong += digest not in produced[(op, source)]
        return wrong

    def to_json(self, total: int) -> dict:
        return {
            "elapsed_s": round(self.elapsed, 3),
            "ok": self.ok,
            "throughput_rps": round(self.throughput(), 2),
            "outcomes": dict(sorted(self.outcomes.items())),
            "cache": dict(sorted(self.cache.items())),
            "latency_ms": latency_doc(self.latencies),
            "client": dict(sorted(self.client_stats.items())),
            "lost_requests": total - sum(self.outcomes.values()),
        }


def run_phase(
    label, socket_path, schedules, fault_rate, seed, attempts=8,
) -> PhaseResult:
    """Drive one prebuilt schedule per concurrent client at one socket."""
    workers = [
        ClientWorker(
            index, socket_path, schedule, fault_rate, seed,
            attempts=attempts,
        )
        for index, schedule in enumerate(schedules)
    ]
    started = time.monotonic()
    for worker in workers:
        worker.start()
    join_deadline = time.monotonic() + 600.0
    for worker in workers:
        worker.join(timeout=max(0.0, join_deadline - time.monotonic()))
        check(not worker.is_alive(), f"[{label}] {worker.name} hung")
    elapsed = time.monotonic() - started
    return PhaseResult(label, workers, elapsed)


def verify_phase(
    result: PhaseResult, expected: dict, total: int, fault_rate, p99_bound
) -> int:
    """Assert the reliability invariants; returns the wrong-answer count."""
    label = result.label
    terminated = sum(result.outcomes.values())
    check(
        terminated == total,
        f"[{label}] {total - terminated} of {total} requests unaccounted for",
    )
    wrong = result.wrong_answers(expected)
    check(
        wrong == 0,
        f"[{label}] {wrong} replies had a wrong solution fingerprint",
    )
    check(result.ok > 0, f"[{label}] no request succeeded at all")
    if fault_rate > 0:
        check(
            result.fired >= MIN_FAULT_SHARE * total,
            f"[{label}] only {result.fired} faults fired across {total} "
            f"requests (< {MIN_FAULT_SHARE:.0%})",
        )
    p99 = quantile(result.latencies, 0.99)
    check(
        p99 <= p99_bound,
        f"[{label}] p99 latency {p99:.2f}s exceeds the "
        f"{p99_bound:.0f}s bound",
    )
    return wrong


def child_env() -> dict:
    return {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p
        ),
    }


def boot_single(
    tmp: str, socket_path: str, queue_high: int = 8, cache_entries=None
) -> subprocess.Popen:
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            "--workers",
            "2",
            "--queue-high",
            str(queue_high),
            *(
                ["--cache-entries", str(cache_entries)]
                if cache_entries is not None
                else []
            ),
            "--read-timeout",
            "5",
            "--journal-file",
            os.path.join(tmp, "inflight.ndjson"),
            "--log-file",
            os.path.join(tmp, "requests.ndjson"),
        ],
        env=child_env(),
    )
    wait_for_socket(socket_path, daemon, "daemon")
    return daemon


def boot_fleet(
    tmp: str, socket_path: str, shards: int, queue_high: int = 8,
    cache_entries=None,
) -> subprocess.Popen:
    fleet = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--shards",
            str(shards),
            "--socket",
            socket_path,
            "--fleet-dir",
            os.path.join(tmp, "fleet"),
            "--workers",
            "2",
            "--queue-high",
            str(queue_high),
            *(
                ["--cache-entries", str(cache_entries)]
                if cache_entries is not None
                else []
            ),
        ],
        env=child_env(),
        stdout=subprocess.DEVNULL,
    )
    # The router binds its front socket only once every shard answers
    # pings, so one wait covers the whole fleet boot.
    wait_for_socket(socket_path, fleet, "fleet router")
    return fleet


def stop_server(server: subprocess.Popen, socket_path: str, what: str):
    """Collect final status, request a drain, and reap the process."""
    status = {}
    try:
        with ServiceClient(socket_path=socket_path, timeout=30.0) as c:
            status = c.status()
            c.shutdown()
        code = server.wait(timeout=BOOT_TIMEOUT_S)
        check(code == 0, f"{what} exited {code} after drain, expected 0")
    finally:
        if server.poll() is None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
    return status


def edit_sweep(socket_path: str, sweep: list, solve_options=None) -> list:
    """Sequentially solve one never-seen edit per program family.

    By now every family has a verified donor in the shared store, so
    each sweep solve should warm-start -- and any family whose donor
    was produced on a different shard than the sweep request lands on
    exercises a *cross-shard* warm start deterministically.
    """
    replies = []
    with ServiceClient(socket_path=socket_path, timeout=60.0) as client:
        for source in sweep:
            reply = client.solve(source, **(solve_options or {}))
            replies.append(
                (
                    "solve",
                    source,
                    reply["cache"],
                    reply["result"]["hash"],
                    reply["result"]["status"],
                )
            )
    return replies


def run_single(args, out: str) -> int:
    clients = args.clients or (12 if args.quick else 200)
    requests = args.requests or (5 if args.quick else 10)
    total = clients * requests
    bases, variants, _ = program_families(SINGLE_BOUNDS)

    print(
        f"loadtest: {clients} clients x {requests} requests, "
        f"fault rate {args.fault_rate:.0%}, seed {args.seed}",
        flush=True,
    )
    expected = expected_hashes(bases + variants, bases)

    rng = random.Random(args.seed)
    schedules = [
        build_schedule(rng, requests, bases, variants)
        for _ in range(clients)
    ]
    with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as tmp:
        socket_path = os.path.join(tmp, "daemon.sock")
        daemon = boot_single(tmp, socket_path)
        try:
            result = run_phase(
                "single", socket_path, schedules, args.fault_rate, args.seed,
            )
        finally:
            daemon_status = stop_server(daemon, socket_path, "daemon")

    wrong = verify_phase(
        result, expected, total, args.fault_rate, args.p99_bound
    )

    doc = {
        "format": FORMAT,
        "revision": git_revision(),
        "python": platform.python_version(),
        "quick": args.quick,
        "seed": args.seed,
        "clients": clients,
        "requests_per_client": requests,
        "requests": total,
        "fault_rate": args.fault_rate,
        "elapsed_s": round(result.elapsed, 3),
        "outcomes": dict(sorted(result.outcomes.items())),
        "cache": dict(sorted(result.cache.items())),
        "faults": {
            "fired": result.fired,
            "decisions": result.decisions,
            "kinds": dict(sorted(result.kinds.items())),
        },
        "client": dict(sorted(result.client_stats.items())),
        "latency_ms": latency_doc(result.latencies),
        "wrong_answers": wrong,
        "lost_requests": total - sum(result.outcomes.values()),
        "daemon": {
            "requests": daemon_status.get("requests", {}),
            "admission": daemon_status.get("admission", {}),
            "journal": daemon_status.get("journal", {}),
        },
        "ok": True,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"loadtest: OK -- {result.ok}/{total} ok, "
        f"{result.fired} faults fired, "
        f"{result.client_stats['retries']} retries, "
        f"p99 {doc['latency_ms']['p99']:.0f} ms; wrote {out}"
    )
    return 0


def run_fleet(args, out: str) -> int:
    clients = args.clients or (24 if args.quick else 40)
    requests = args.requests or (12 if args.quick else 14)
    total = clients * requests
    # What sharding buys on *any* hardware -- including a single core,
    # where process parallelism cannot make CPU-bound solves faster --
    # is *aggregate cache capacity*.  Every daemon bounds its result
    # cache at the same ``--cache-entries``; the workload's working set
    # (base + edited-variant + check entries across every program
    # family) deliberately exceeds what one daemon can hold, but the
    # router partitions the key space, so each shard's slice fits.
    # The single daemon therefore LRU-thrashes -- evicted families are
    # re-solved from scratch, which is real repeated solver work --
    # while the warmed-up fleet answers the same requests from cache.
    # ``widen_delay`` is a *semantic* option (part of the fingerprint,
    # scales solver work linearly; the oracle computes expectations
    # under the same option), so a miss costs honestly more than a hit.
    solve_options = {"widen_delay": 80}
    queue_high = 64
    bounds = tuple(range(40, 520, 20)) if args.quick else tuple(
        range(40, 840, 20)
    )
    bases, variants, sweep = program_families(bounds, distinct_names=True)
    working_set = (
        [("solve", source, solve_options) for source in bases + variants]
        + [("check", source, {}) for source in bases]
    )
    keys = [request_key(op, src, opts) for op, src, opts in working_set]
    per_shard = Counter(
        HashRing(f"shard{i}" for i in range(args.shards)).lookup(key)
        for key in keys
    )
    cache_entries = max(per_shard.values()) + 2
    check(
        2 * cache_entries <= len(keys),
        f"workload working set ({len(keys)} keys) must be at least "
        f"twice one daemon's cache ({cache_entries} entries)",
    )

    rng = random.Random(args.seed)
    schedules = [
        build_schedule(rng, requests, bases, variants, options=solve_options)
        for _ in range(clients)
    ]

    print(
        f"loadtest[fleet]: {clients} clients x {requests} requests over "
        f"{len(bases)} program families ({len(keys)}-entry working set, "
        f"{cache_entries} cache entries per daemon), "
        f"{args.shards} shards vs 1 daemon, "
        f"fault rate {args.fault_rate:.0%}, seed {args.seed}",
        flush=True,
    )
    expected = expected_hashes(
        bases + variants + sweep, bases, solve_options=solve_options
    )

    with tempfile.TemporaryDirectory(prefix="repro-loadtest-") as tmp:
        # Phase 1: the single-daemon baseline on the identical workload.
        baseline_sock = os.path.join(tmp, "baseline.sock")
        daemon = boot_single(
            tmp, baseline_sock, queue_high=queue_high,
            cache_entries=cache_entries,
        )
        try:
            baseline = run_phase(
                "baseline", baseline_sock, schedules,
                args.fault_rate, args.seed,
            )
        finally:
            stop_server(daemon, baseline_sock, "baseline daemon")
        print(
            f"loadtest[fleet]: baseline {baseline.ok}/{total} ok in "
            f"{baseline.elapsed:.1f}s "
            f"({baseline.throughput():.1f} ok/s)",
            flush=True,
        )

        # Phase 2: the same workload through the fleet router.
        fleet_sock = os.path.join(tmp, "front.sock")
        server = boot_fleet(
            tmp, fleet_sock, args.shards, queue_high=queue_high,
            cache_entries=cache_entries,
        )
        try:
            fleet = run_phase(
                "fleet", fleet_sock, schedules,
                args.fault_rate, args.seed,
            )
            # Deterministic cross-shard warm starts: fresh edits, every
            # family already has a shared donor.  Outside the timed
            # window; correctness-checked like everything else.
            sweep_replies = edit_sweep(
                fleet_sock, sweep, solve_options=solve_options
            )
        finally:
            fleet_status = stop_server(server, fleet_sock, "fleet")
        print(
            f"loadtest[fleet]: fleet {fleet.ok}/{total} ok in "
            f"{fleet.elapsed:.1f}s ({fleet.throughput():.1f} ok/s)",
            flush=True,
        )

    # -- Invariants: both phases clean, fleet adds the scaling story. -- #
    wrong = verify_phase(
        baseline, expected, total, args.fault_rate, args.p99_bound
    )
    wrong += verify_phase(
        fleet, expected, total, args.fault_rate, args.p99_bound
    )
    for op, source, mode, digest, status in sweep_replies:
        check(
            status == "ok",
            f"edit sweep solve failed with status {status!r}",
        )
        # Warm sweep solves are independently re-verified server-side
        # and may legitimately settle on a different post solution;
        # cold ones must match the local expectation exactly.
        if mode == "miss":
            bad = digest != expected[(op, source)]
            wrong += bad
            check(not bad, "edit sweep cold solve fingerprint mismatch")
    sweep_warm = sum(1 for r in sweep_replies if r[2] == "warm")
    check(sweep_warm > 0, "no edit-sweep request warm-started at all")

    check(
        fleet.throughput() > baseline.throughput(),
        f"fleet throughput {fleet.throughput():.2f} ok/s did not beat "
        f"the single-daemon baseline {baseline.throughput():.2f} ok/s",
    )

    fleet_section = fleet_status.get("fleet", {})
    summed = fleet_status.get("requests", {})
    cross_shard_warm = summed.get("shared_warm", 0)
    check(
        cross_shard_warm >= 1,
        "no shard warm-started from another shard's shared donor",
    )
    check(
        fleet_section.get("healthy") == args.shards,
        f"only {fleet_section.get('healthy')}/{args.shards} shards "
        f"healthy at the end of the run",
    )

    doc = {
        "format": FORMAT,
        "mode": "fleet",
        "revision": git_revision(),
        "python": platform.python_version(),
        "quick": args.quick,
        "seed": args.seed,
        "clients": clients,
        "requests_per_client": requests,
        "requests": total,
        "program_families": len(bases),
        "fault_rate": args.fault_rate,
        "shards": args.shards,
        "workload": {
            "working_set_keys": len(keys),
            "cache_entries_per_daemon": cache_entries,
            "max_keys_on_one_shard": max(per_shard.values()),
            "widen_delay": solve_options["widen_delay"],
            "queue_high": queue_high,
        },
        "baseline": baseline.to_json(total),
        "fleet": {
            **fleet.to_json(total),
            "edit_sweep": {
                "requests": len(sweep_replies),
                "warm": sweep_warm,
            },
            "cross_shard_warm": cross_shard_warm,
            "shared": fleet_section.get("shared", {}),
            "ring": fleet_section.get("ring", {}),
            "router": fleet_status.get("router", {}),
            "per_shard": [
                {
                    "id": row.get("id"),
                    "healthy": row.get("healthy"),
                    "forwarded": row.get("forwarded"),
                    "connects": row.get("connects"),
                    "requests": row.get("requests", {}),
                    "shared": row.get("shared", {}),
                }
                for row in fleet_section.get("per_shard", [])
            ],
        },
        "speedup": round(
            fleet.throughput() / baseline.throughput(), 3
        ) if baseline.throughput() > 0 else None,
        "faults": {
            "fired": baseline.fired + fleet.fired,
            "decisions": baseline.decisions + fleet.decisions,
            "kinds": dict(sorted((baseline.kinds + fleet.kinds).items())),
        },
        "wrong_answers": wrong,
        "lost_requests": (
            2 * total
            - sum(baseline.outcomes.values())
            - sum(fleet.outcomes.values())
        ),
        "ok": True,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"loadtest[fleet]: OK -- fleet {fleet.throughput():.1f} ok/s vs "
        f"baseline {baseline.throughput():.1f} ok/s "
        f"(x{doc['speedup']}), {cross_shard_warm} cross-shard warm "
        f"start(s), {doc['faults']['fired']} faults fired, fleet p99 "
        f"{doc['fleet']['latency_ms']['p99']:.0f} ms; wrote {out}"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--fleet",
        action="store_true",
        help="baseline-vs-fleet comparison run (see docs/fleet.md)",
    )
    parser.add_argument(
        "--shards", type=int, default=3, help="fleet size in --fleet mode"
    )
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--requests", type=int, default=None, help="per client")
    parser.add_argument("--fault-rate", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=20130613)
    parser.add_argument(
        "--p99-bound", type=float, default=30.0, metavar="SECONDS"
    )
    parser.add_argument("--out", default=None, metavar="PATH")
    args = parser.parse_args()

    if args.fleet:
        out = args.out or f"LOADTEST_FLEET_{git_revision()}.json"
        return run_fleet(args, out)
    out = args.out or f"LOADTEST_{git_revision()}.json"
    return run_single(args, out)


if __name__ == "__main__":
    sys.exit(main())
