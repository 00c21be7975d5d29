"""The service workload: closed-loop clients against a sharded fleet.

End-to-end runs talk to a ``repro serve --shards 2`` subprocess over a
UNIX socket: a router plus two shard daemons and the shared store
(``fleet-mixed``).
Two client threads, one connection each, send the next request of the
seeded :class:`~workloads.Schedule` as soon as the previous reply
arrives.  Latency is timed at the client; server CPU is read from
``/proc`` for the whole server process tree.

Traced runs host the same servers in the benchmark process (the public
``AnalysisDaemon``/``RouterDaemon`` classes on one asyncio loop thread)
so the wrappers of :mod:`tracing` see every layer call.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import threading
import time
from collections import Counter

from common import (
    OUT_DIR,
    BenchError,
    median,
    percentile,
    process_tree,
    tree_cpu_s,
    tree_peak_rss_mb,
)
from oracle import OK_STATUSES, service_wrong
from workloads import WARMUP_MESSAGE, Schedule, service_shapes

CLIENTS = 2
SHARDS = 2
#: A run is cut into this many equal windows, and the end-to-end figures
#: come from the ``BEST_WINDOWS`` with the most completed requests: the
#: stretch of the run the machine's other tenants slowed least.
WINDOWS = 10
BEST_WINDOWS = 3
SETUP_SAMPLES = 3
BOOT_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 120.0


def _client(path: str):
    from repro.service.client import NO_RETRY, ServiceClient

    return ServiceClient(socket_path=path, timeout=REPLY_TIMEOUT_S, retry=NO_RETRY)


def _wait_ready(path: str, alive) -> None:
    """Until the front socket answers ping and every shard is healthy."""
    from repro.service.client import ServiceError

    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        if not alive():
            raise BenchError("server exited during start-up")
        if os.path.exists(path):
            try:
                with _client(path) as client:
                    client.ping()
                    if client.status()["fleet"]["healthy"] == SHARDS:
                        return
            except ServiceError:
                pass
        time.sleep(0.01)
    raise BenchError(f"server not ready after {BOOT_TIMEOUT_S:g}s")


def _run_dir(tag: str) -> str:
    # Relative to the checkout root (the working directory), which keeps
    # UNIX socket paths short however deep the checkout lies.
    path = os.path.relpath(OUT_DIR / f"run-{os.getpid()}-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _kill_if_server(pid: int) -> None:
    """SIGKILL ``pid`` if it is still a ``repro serve`` process."""
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            if b"serve" not in handle.read():
                return
        os.kill(pid, 9)
    except OSError:
        pass


class SubprocessServer:
    """``repro serve --shards`` as a child process."""

    def __init__(self, tag: str) -> None:
        self.dir = _run_dir(tag)
        self.path = os.path.join(self.dir, "front.sock")
        self.proc = None

    def start(self) -> float:
        """Spawn, wait until ready, solve the warm-up; returns seconds."""
        from loadtest import child_env

        started = time.perf_counter()
        argv = [
            sys.executable, "-m", "repro", "serve", "--socket", self.path,
            "--shards", str(SHARDS), "--fleet-dir", os.path.join(self.dir, "fleet"),
        ]
        self.proc = subprocess.Popen(
            argv, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        _wait_ready(self.path, lambda: self.proc.poll() is None)
        with _client(self.path) as client:
            client.request(WARMUP_MESSAGE)
        return time.perf_counter() - started

    def pids(self) -> list:
        return process_tree(self.proc.pid)

    def status(self) -> dict:
        with _client(self.path) as client:
            return client.status()

    def stop(self) -> None:
        """Graceful drain; anything still alive afterwards is killed."""
        if self.proc is None:
            return
        from repro.service.client import ServiceError

        pids = self.pids()
        try:
            with _client(self.path) as client:
                client.shutdown()
            self.proc.wait(timeout=BOOT_TIMEOUT_S)
        except (ServiceError, subprocess.TimeoutExpired):
            pass  # not drained in time: killed below
        finally:
            for pid in pids:
                _kill_if_server(pid)
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc = None
            shutil.rmtree(self.dir, ignore_errors=True)


class InProcessServer:
    """The same servers, hosted on an asyncio loop thread in this process."""

    def __init__(self, tag: str) -> None:
        self.dir = _run_dir(tag)
        self.path = os.path.join(self.dir, "front.sock")
        self.daemons = []
        self.router = None
        self._ready = threading.Event()
        self._error = None
        self._thread = None
        self._loop = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._main, name="perfbench-server")
        self._thread.start()
        if not self._ready.wait(BOOT_TIMEOUT_S) or self._error:
            raise BenchError(f"in-process server failed: {self._error}")
        with _client(self.path) as client:
            client.request(WARMUP_MESSAGE)

    def _main(self) -> None:
        import asyncio

        try:
            asyncio.run(self._serve())
        except BaseException as err:  # reported through start()
            self._error = repr(err)
            self._ready.set()

    async def _serve(self) -> None:
        import asyncio

        from repro.fleet.router import RouterConfig, RouterDaemon
        from repro.service import AnalysisDaemon, ServiceConfig

        self._loop = asyncio.get_running_loop()
        # What ``repro serve --shards 2`` configures per shard.
        shards = []
        for index in range(SHARDS):
            sid = f"shard{index}"
            socket_path = os.path.join(self.dir, f"{sid}.sock")
            shards.append((sid, socket_path))
            self.daemons.append(AnalysisDaemon(ServiceConfig(
                socket_path=socket_path,
                shared_dir=os.path.join(self.dir, "shared"),
                journal_path=os.path.join(self.dir, f"{sid}.journal"),
                log_path=os.path.join(self.dir, f"{sid}.log"),
            )))
        self.router = RouterDaemon(RouterConfig(socket_path=self.path, shards=tuple(shards)))
        for daemon in self.daemons:
            await daemon.start()
        await self.router.start()
        servers = self.daemons + [self.router]
        self._ready.set()
        await asyncio.gather(*(s.serve_until_shutdown() for s in servers))

    def stop(self) -> None:
        if self._loop is not None:
            for server in self.daemons + [self.router]:
                if server is not None:
                    self._loop.call_soon_threadsafe(server.request_shutdown)
        if self._thread is not None:
            self._thread.join(BOOT_TIMEOUT_S)
        shutil.rmtree(self.dir, ignore_errors=True)


# --------------------------------------------------------------------- #
# The closed loop.                                                      #
# --------------------------------------------------------------------- #

class Record:
    __slots__ = ("request", "latency", "done_at", "mode", "wall_ms", "result", "key", "error")

    def __init__(self, request, latency, reply=None, error=None):
        self.request = request
        self.latency = latency
        self.done_at = time.perf_counter()
        self.error = error
        self.mode = self.wall_ms = self.result = self.key = None
        if reply is not None:
            self.mode = reply["cache"]
            self.wall_ms = reply["wall_ms"]
            self.key = reply["key"]
            result = reply["result"]
            self.result = {
                name: result.get(name)
                for name in ("status", "hash", "evaluations", "diagnostics")
            }
            self.result["served_evaluations"] = reply.get("served_evaluations", 0)


def drive(path: str, schedule: Schedule, seconds: float, pids=()) -> dict:
    """Closed loop: ``CLIENTS`` threads until ``seconds`` have passed.

    ``marks`` holds the time and the CPU seconds of the ``pids`` at the
    start and at the end of each of ``WINDOWS`` equal windows.
    """
    from repro.service.client import ServiceError

    records = []
    crashes = []
    stop_at = time.perf_counter() + seconds

    def worker() -> None:
        client = _client(path)
        try:
            while time.perf_counter() < stop_at:
                request = schedule.next()
                message = request.message()
                started = time.perf_counter()
                try:
                    reply = client.request(message)
                except ServiceError as err:
                    latency = time.perf_counter() - started
                    records.append(Record(request, latency, error=str(err)))
                    client.close()
                    continue
                records.append(Record(request, time.perf_counter() - started, reply))
        except BaseException as err:  # noqa: BLE001 - reported, not hidden
            crashes.append(repr(err))
        finally:
            client.close()

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    started = time.perf_counter()
    marks = [(started, tree_cpu_s(pids))]
    for thread in threads:
        thread.start()
    for index in range(1, WINDOWS + 1):
        time.sleep(max(0.0, started + seconds * index / WINDOWS - time.perf_counter()))
        marks.append((time.perf_counter(), tree_cpu_s(pids)))
    for thread in threads:
        thread.join()
    if crashes:
        raise BenchError(f"client crashed: {crashes[0]}")
    return {"records": records, "elapsed": time.perf_counter() - started, "marks": marks}


def best_windows(records, marks) -> dict:
    """Requests, seconds and server CPU of the ``BEST_WINDOWS`` windows
    with the most completed requests."""
    windows = []
    for (start, cpu0), (end, cpu1) in zip(marks, marks[1:]):
        inside = [r for r in records if start <= r.done_at < end]
        windows.append((len(inside), end - start, cpu1 - cpu0, inside))
    windows.sort(key=lambda window: window[0], reverse=True)
    best = windows[:BEST_WINDOWS]
    return {
        "records": [record for window in best for record in window[3]],
        "seconds": sum(window[1] for window in best),
        "cpu_s": sum(window[2] for window in best),
        "per_window": [window[0] for window in windows],
    }


def _shares(records, coalesced: int) -> dict:
    done = [r for r in records if r.error is None]
    counts = Counter()
    for record in done:
        if record.mode == "hit":
            counts["hit"] += 1
        elif record.request.shape.op == "check":
            counts["check"] += 1
        else:
            counts["cold" if record.mode == "miss" else "warm"] += 1
    total = max(1, len(done))
    shares = {f"service.reply.{k}_share": counts[k] / total for k in ("hit", "cold", "warm", "check")}
    shares["service.reply.coalesced_share"] = coalesced / total
    return shares


def _judge(records, expected):
    done = [r for r in records if r.error is None]
    failed = sum(
        1 for r in records if r.error is not None or r.result["status"] not in OK_STATUSES
    )
    wrong = service_wrong(expected, [(r.request.shape, r.mode, r.result) for r in done])
    return len(records), failed, wrong


def _schedule_doc(schedule, records) -> dict:
    return {
        "issued": schedule.issued,
        "replies": [
            [r.request.key, r.mode, round(r.latency * 1000.0, 3), r.wall_ms, r.error]
            for r in records
        ],
    }


def _check_volume(records, seconds) -> None:
    if not records:
        raise BenchError(f"no request completed in {seconds:g}s")


def run(workload: str, seed: int, seconds: float, expected: dict) -> dict:
    shapes = service_shapes()
    setups = []
    server = None
    try:
        for sample in range(SETUP_SAMPLES):
            if server is not None:
                server.stop()
            server = SubprocessServer(f"s{sample}")
            setups.append(server.start())
        schedule = Schedule(shapes, seed)
        pids = server.pids()
        outcome = drive(server.path, schedule, seconds, pids)
        rss = tree_peak_rss_mb(pids)
        status = server.status()
    finally:
        if server is not None:
            server.stop()
    records = outcome["records"]
    _check_volume(records, seconds)
    attempted, failed, wrong = _judge(records, expected)
    done = [r for r in records if r.error is None]
    best = best_windows(records, outcome["marks"])
    latencies = [r.latency if r.error is None else float("inf") for r in best["records"]]
    answered = sum(1 for r in best["records"] if r.error is None)
    throughput = answered / best["seconds"]
    cpu_per_request = best["cpu_s"] / answered
    executed = {}
    for record in done:
        if record.mode != "hit":
            executed.setdefault(record.key, record.result["served_evaluations"])
    metrics = {
        "setup_s": median(setups),
        "throughput_rps": throughput,
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "server_cpu_ms_per_req": cpu_per_request * 1000.0,
        "pass_s": 1000.0 / throughput,
        "pass_cpu_s": cpu_per_request * 1000.0,
        "evaluations": sum(executed.values()) / len(done) * 1000.0,
        "peak_rss_mb": rss,
    }
    forwarded = [
        row.get("forwarded", 0) for row in status.get("fleet", {}).get("per_shard", [])
    ]
    detail = {
        "setup_samples_s": setups,
        "requests": len(records),
        "elapsed_s": outcome["elapsed"],
        "requests_per_window": best["per_window"],
        "server_processes": len(pids),
        "shares": _shares(records, status["requests"].get("coalesced", 0)),
        "server_counters": status.get("requests", {}),
        "shard_forwarded": forwarded,
        "schedule": _schedule_doc(schedule, records),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": metrics,
        "detail": detail,
    }


def run_traced(workload: str, seed: int, seconds: float, expected: dict) -> dict:
    """Untraced then traced in-process halves over the same schedule."""
    from tracing import Tracer, covered_server_time, layer_metrics

    shapes = service_shapes()
    tracer = Tracer()
    halves = {}
    for phase in ("plain", "traced"):
        if phase == "traced":
            tracer.install()
        server = InProcessServer(phase)
        try:
            server.start()
            tracer.clear()
            schedule = Schedule(shapes, seed)
            halves[phase] = drive(server.path, schedule, seconds / 2.0)
            halves[phase]["schedule"] = schedule
            halves[phase]["coalesced"] = sum(d.counters["coalesced"] for d in server.daemons)
            halves[phase]["forwarded"] = [
                link.forwarded for link in server.router.shards.values()
            ]
        finally:
            server.stop()
            tracer.uninstall()
    traced = halves["traced"]
    records = traced["records"]
    _check_volume(records, seconds)
    attempted, failed, wrong = _judge(records, expected)
    for plain_record in halves["plain"]["records"]:
        failed += plain_record.error is not None
    done = [r for r in records if r.error is None]
    outside = [(r.latency - r.wall_ms / 1000.0) * 1000.0 for r in done]
    extra = {
        "service.server_ms": [r.wall_ms for r in done],
        "fleet.router.forward_ms": outside,
    }
    spans = tracer.spans
    # Sums per 1000 requests.
    scale = 1000.0 / len(records)
    values = layer_metrics(spans, scale, tracer.queue_waits, extra)
    values["service.coalesced"] = traced["coalesced"] * scale
    values.update(_shares(records, traced["coalesced"]))
    forwarded = traced["forwarded"]
    values["fleet.shard_skew"] = (
        max(forwarded) / (sum(forwarded) / len(forwarded)) if sum(forwarded) else 0.0
    )
    rps = {p: len(h["records"]) / h["elapsed"] for p, h in halves.items()}
    values["trace.overhead_share"] = rps["plain"] / rps["traced"] - 1.0
    server_s = sum(r.wall_ms for r in done) / 1000.0
    latency_s = sum(r.latency for r in done)
    covered = covered_server_time(spans, tracer.queue_waits)
    values["trace.unattributed_share"] = max(0.0, server_s - covered) / latency_s
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "metrics": values,
        "detail": {
            "requests": {p: len(h["records"]) for p, h in halves.items()},
            "spans": tracer.dump(),
            "shares": _shares(records, traced["coalesced"]),
            "schedule": _schedule_doc(traced["schedule"], records),
        },
    }
