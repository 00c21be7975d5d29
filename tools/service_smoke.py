"""End-to-end smoke test for the analysis service (the `service-smoke`
CI job).

Boots a real ``repro serve`` daemon as a subprocess, then drives the
acceptance sequence from docs/service.md through a ``ServiceClient``:

1. submit a quick program            -> one cold solve (cache miss);
2. submit the identical program      -> one cache hit, **zero** served
   evaluations, identical content key and solution fingerprint;
3. submit a single-edit variant      -> one warm start, strictly fewer
   evaluations than the cold solve, verified result;
4. ask for ``status``                -> counters agree with 1-3;
5. ``shutdown``                      -> clean drain, cache persisted,
   daemon process exits ``0``.

Then it boots a one-shard fleet (``repro serve --shards 1 --cache-ttl
600``) and checks the router's side of the same front door:

6. a request line above asyncio's 64 KiB default stream limit is
   answered through the router, then served as a hit;
7. the shard's ``status`` row shows the forwarded ``cache.ttl`` of 600;
8. ``shutdown`` drains the router and the shard, and the fleet exits
   ``0``.

Exits non-zero (with a message on stderr) on the first violated check.

Usage: PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import time

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)

from repro.service import ServiceClient, encode  # noqa: E402

PROGRAM = """
int main() {
  int i;
  int s;
  i = 0;
  s = 0;
  while (i < 10) {
    s = s + 2;
    i = i + 1;
  }
  return s;
}
"""
EDITED = PROGRAM.replace("i < 10", "i < 12")

BOOT_TIMEOUT_S = 30.0


def check(condition: bool, message: str) -> None:
    if not condition:
        print(f"service-smoke: FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def spawn(socket_path: str, *options: str) -> subprocess.Popen:
    """``repro serve --socket socket_path *options``, once it listens."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path,
         *options],
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                p for p in (SRC, os.environ.get("PYTHONPATH")) if p
            ),
        },
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while not os.path.exists(socket_path):
        if process.poll() is not None:
            check(False, f"serve exited early with code {process.returncode}")
        check(
            time.monotonic() < deadline,
            f"serve did not create {socket_path} within {BOOT_TIMEOUT_S}s",
        )
        time.sleep(0.05)
    return process


def stop(process: subprocess.Popen) -> None:
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


def daemon_leg(tmp: str) -> tuple:
    """Steps 1-5; returns the cold and the warm reply."""
    socket_path = os.path.join(tmp, "daemon.sock")
    cache_path = os.path.join(tmp, "cache.json")
    log_path = os.path.join(tmp, "requests.ndjson")
    daemon = spawn(
        socket_path, "--cache-file", cache_path, "--log-file", log_path
    )
    try:
        with ServiceClient(socket_path=socket_path, timeout=120.0) as c:
            cold = c.solve(PROGRAM)
            hit = c.solve(PROGRAM)
            warm = c.solve(EDITED)
            status = c.status()
            bye = c.shutdown()

        # 1. One cold solve.
        check(cold["cache"] == "miss", f"expected miss, got {cold['cache']}")
        check(
            cold["result"]["status"] == "ok",
            f"cold solve did not succeed: {cold['result']['status']}",
        )
        check(cold["served_evaluations"] > 0, "cold solve charged no work")

        # 2. One cache hit, zero served evaluations.
        check(hit["cache"] == "hit", f"expected hit, got {hit['cache']}")
        check(
            hit["served_evaluations"] == 0,
            f"hit served {hit['served_evaluations']} evaluations",
        )
        check(hit["key"] == cold["key"], "hit answered under a different key")
        check(
            hit["result"]["hash"] == cold["result"]["hash"],
            "hit returned a different solution fingerprint",
        )

        # 3. One warm start, strictly fewer evaluations than cold.
        check(warm["cache"] == "warm", f"expected warm, got {warm['cache']}")
        check(warm["warm_donor"] == cold["key"], "warm donor is not the cold run")
        check(warm["dirty_nodes"] > 0, "warm start destabilized nothing")
        check(
            0 < warm["served_evaluations"] < cold["served_evaluations"],
            "warm start was not cheaper than the cold solve "
            f"({warm['served_evaluations']} vs {cold['served_evaluations']})",
        )
        check(
            warm["result"]["status"] == "ok",
            f"warm solve did not verify: {warm['result']['status']}",
        )

        # 4. The daemon's own books agree.
        counters = status["requests"]
        check(counters["miss"] == 1, f"miss counter {counters['miss']} != 1")
        check(counters["hit"] == 1, f"hit counter {counters['hit']} != 1")
        check(counters["warm"] == 1, f"warm counter {counters['warm']} != 1")

        # 5. Clean drain: cache persisted, process exits 0.
        check(bye["drained"] is True, "shutdown did not report a drain")
        check(
            bye["persisted_entries"] >= 2,
            f"persisted {bye['persisted_entries']} entries, expected >= 2",
        )

        code = daemon.wait(timeout=BOOT_TIMEOUT_S)
        check(code == 0, f"daemon exited {code}, expected 0")
        check(os.path.exists(cache_path), "cache file was not persisted")
        check(os.path.exists(log_path), "request log was not written")
    finally:
        stop(daemon)
    return cold, warm


def fleet_leg(tmp: str) -> int:
    """Steps 6-8; returns the request line's length in bytes."""
    socket_path = os.path.join(tmp, "front.sock")
    # The router binds its socket once the shard answers pings.
    fleet = spawn(socket_path, "--shards", "1", "--cache-ttl", "600")
    source = PROGRAM + "// " + "x" * 65536 + "\n"
    line_bytes = len(encode({"op": "solve", "source": source}))
    try:
        with ServiceClient(socket_path=socket_path, timeout=120.0) as c:
            cold = c.solve(source)
            hit = c.solve(source)
            status = c.status()
            bye = c.shutdown()

        # 6. A request line above 64 KiB crosses the router both times.
        check(line_bytes > 64 * 1024, f"request line of {line_bytes} bytes")
        check(cold["cache"] == "miss", f"expected miss, got {cold['cache']}")
        check(
            cold["result"]["status"] == "ok",
            f"fleet solve did not succeed: {cold['result']['status']}",
        )
        check(hit["cache"] == "hit", f"expected hit, got {hit['cache']}")
        check(
            hit["result"]["hash"] == cold["result"]["hash"],
            "fleet hit returned a different solution fingerprint",
        )

        # 7. The shard runs with the per-daemon option --shards forwards.
        rows = status["fleet"]["per_shard"]
        check(len(rows) == 1, f"{len(rows)} shard rows, expected 1")
        ttl = rows[0].get("cache", {}).get("ttl")
        check(ttl == 600, f"shard cache ttl {ttl}, expected 600")

        # 8. Clean drain of router and shard.
        check(bye.get("drained") is True, "router shutdown did not drain")
        code = fleet.wait(timeout=BOOT_TIMEOUT_S)
        check(code == 0, f"fleet exited {code}, expected 0")
    finally:
        stop(fleet)
    return line_bytes


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-") as tmp:
        cold, warm = daemon_leg(tmp)
        line_bytes = fleet_leg(tmp)
    print(
        "service-smoke: OK "
        f"(cold {cold['served_evaluations']} evals, hit 0, "
        f"warm {warm['served_evaluations']}; fleet: {line_bytes}-byte "
        f"request line, hit through the router)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
