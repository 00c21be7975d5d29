"""The long-running analysis daemon: asyncio server over TCP or UNIX.

:class:`AnalysisDaemon` is the composition layer the ROADMAP's
"serve heavy traffic" line has been building toward: requests arrive
over a local socket in the NDJSON protocol (:mod:`.protocol`), are
normalized into batch :class:`~repro.batch.jobs.JobSpec` values, and
are answered in cache-outcome order of preference:

1. **hit** -- the content-addressed cache (:mod:`.cache`) already holds
   a verified result for this exact (program, options) fingerprint:
   answer immediately, zero solver work;
2. **warm** -- a donor entry with the same options and a *small* CFG
   diff exists: resume SLR+ from its stored snapshot
   (:mod:`.executor`), re-verify, answer;
3. **miss** -- solve cold under full supervision (deadline watchdog,
   escalation ladder, independent verification), then cache the result
   together with its resume snapshot.

``check`` requests ride the same pipeline with a different normalizer
(:func:`~repro.service.protocol.check_request_to_jobspec`): they are
cached by the same content-addressed keys (the job ``kind`` and the
canonical rule set are part of the fingerprint) but never warm-start --
diagnostics are either exact cache hits or recomputed cold.

Identical requests arriving concurrently are **coalesced**: the second
awaits the first's execution instead of repeating it.  Execution runs
on a bounded worker pool off the event loop, so slow solves never block
protocol handling.  ``shutdown`` drains in-flight work, persists the
cache index for a warm restart, and only then stops the loop; every
request is recorded in the structured JSON request log (:mod:`.reqlog`).

Production hardening (see ``docs/service-reliability.md``):

* **admission control** (:mod:`.admission`) -- a bounded pending budget
  with high/low watermarks sheds excess ``solve``/``check`` load with a
  structured ``overloaded`` error and a ``retry_after_ms`` hint instead
  of queueing unboundedly, and a max-connections cap refuses socket
  floods before they cost a file descriptor each;
* **read deadlines** -- a connection that delivers no complete request
  line within the deadline, idle between requests or stalled mid-line,
  is answered with a ``timeout`` error and closed, so slow clients
  cannot pin protocol handling forever (the connection loop is the
  :class:`~repro.service.sockets.LineServer` core, shared with the
  fleet router);
* **crash-safe journaling** (:mod:`.journal`) -- admitted requests are
  journaled before work starts and settled at response; a restarted
  daemon reports interrupted requests and re-executes them into the
  cache, so a SIGKILL loses no admitted request;
* **honest request logging** -- shed, stalled, disconnected-mid-request
  and deadline-exceeded requests are logged alongside completions.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.batch.jobs import JobSpec, options_fingerprint, spec_fingerprint
from repro.service.admission import AdmissionController
from repro.service.cache import CacheEntry, ResultCache
from repro.service.journal import InflightJournal
from repro.service.executor import (
    DEFAULT_WARM_RATIO,
    ServiceExecution,
    execute_service_job,
)
from repro.service.protocol import (
    PROTOCOL,
    ProtocolError,
    check_request_to_jobspec,
    error_response,
    program_sha,
    solve_request_to_jobspec,
)
from repro.service.reqlog import RequestLog
from repro.service.sockets import LineServer
from repro.solvers.registry import capability_listing

#: Result statuses worth caching: complete, independently verified
#: analyses, plus completed check runs (``findings`` is a *successful*
#: check that found bugs, not a failure).  Failures (input errors,
#: divergence, faults) are never cached -- a retry must re-attempt them.
_CACHEABLE = ("ok", "unknown", "violated", "findings")


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance."""

    #: UNIX socket path; when set, wins over TCP.
    socket_path: Optional[str] = None
    #: TCP bind address (``port=0``: ephemeral, read it back off
    #: :attr:`AnalysisDaemon.address`).
    host: str = "127.0.0.1"
    port: int = 0
    #: Executor threads = maximum concurrently solving requests.
    workers: int = 2
    #: Cache bound, TTL (seconds; ``None`` = no expiry) and persistence
    #: path (loaded at start when present, written on drain).
    cache_entries: int = 256
    cache_ttl: Optional[float] = None
    cache_path: Optional[str] = None
    #: Default per-request deadline (seconds), overridable per request.
    default_deadline: Optional[float] = None
    #: Warm-start threshold (see :func:`.executor.should_warm`).
    warm_ratio: float = DEFAULT_WARM_RATIO
    #: Request-log file (NDJSON); ``None`` disables logging.
    log_path: Optional[str] = None
    #: Admission control: pending ``solve``/``check`` requests beyond
    #: which new work is shed with an ``overloaded`` error, and the
    #: backlog at which shedding stops again (``None``: half of high).
    queue_high: int = 32
    queue_low: Optional[int] = None
    #: Concurrently open client connections; further connects are
    #: answered ``overloaded`` and closed.
    max_connections: int = 64
    #: Base retry-after hint (milliseconds) for shed requests.
    shed_retry_ms: int = 250
    #: Per-connection read deadline (seconds) waiting for a complete
    #: request line; ``None`` disables it.
    read_timeout: Optional[float] = None
    #: In-flight journal file (NDJSON); ``None`` disables journaling.
    journal_path: Optional[str] = None
    #: Re-execute journaled requests a previous process died holding.
    requeue_recovered: bool = True
    #: Fleet shared-store directory (:class:`repro.fleet.store.
    #: SharedStore`); ``None`` keeps the daemon standalone.  When set,
    #: verified results (and their warm snapshots) are published
    #: fleet-wide, exact repeats missed locally are answered from the
    #: store, and sibling shards' snapshots serve as warm donors.
    shared_dir: Optional[str] = None


#: Request counters by outcome, served via ``status``.
_COUNTERS = (
    "total", "solve", "check", "hit", "warm", "miss", "bypass",
    "coalesced", "errors", "rejected", "shed", "stalled", "disconnected",
    "deadline", "requeued", "shared_hit", "shared_warm",
)


class AnalysisDaemon(LineServer):
    """One persistent analysis service instance.

    Listening, the connection loop, request ids and the close sequence
    are the :class:`~repro.service.sockets.LineServer` core's; the daemon
    adds admission and the connection cap, the journal, the cache and
    shared store, single-flight execution on its worker pool, requeueing
    and persistence.
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        cache: Optional[ResultCache] = None,
        log: Optional[RequestLog] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        cfg = self.config
        super().__init__(
            log or RequestLog(path=cfg.log_path),
            _COUNTERS,
            socket_path=cfg.socket_path,
            read_timeout=cfg.read_timeout,
            host=cfg.host,
            port=cfg.port,
        )
        self.cache = cache or ResultCache(
            max_entries=cfg.cache_entries, ttl=cfg.cache_ttl
        )
        self.shared = None
        if cfg.shared_dir is not None:
            # Deferred import: repro.fleet depends on repro.service, so
            # the service package must not import it at module time.
            from repro.fleet.store import SharedStore

            self.shared = SharedStore(cfg.shared_dir)
        self.admission = AdmissionController(
            queue_high=cfg.queue_high,
            queue_low=cfg.queue_low,
            max_connections=cfg.max_connections,
            retry_ms=cfg.shed_retry_ms,
        )
        self.journal = InflightJournal(cfg.journal_path)
        self._requeue_task: Optional[asyncio.Task] = None
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, cfg.workers),
            thread_name_prefix="repro-service",
        )
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        #: spec fingerprint -> in-flight execution (single-flight).
        self._singleflight: Dict[str, asyncio.Future] = {}
        self.cache_loaded = 0

    # ----------------------------------------------------------------- #
    # Lifecycle.                                                        #
    # ----------------------------------------------------------------- #

    async def start(self) -> None:
        """Restore the persisted cache index, bind, requeue recovered
        journal records."""
        cfg = self.config
        if cfg.cache_path and os.path.exists(cfg.cache_path):
            self.cache_loaded = self.cache.load(cfg.cache_path)
        await super().start()
        if self.journal.recovered and cfg.requeue_recovered:
            self._requeue_task = asyncio.ensure_future(self._requeue())

    async def _requeue(self) -> None:
        """Re-execute journaled requests a crashed process died holding.

        Each recovered ``begin`` record carries the original message, so
        the request replays through the normal pipeline: the result
        lands in the cache (unless already there) and the journal entry
        is settled.  Every replay is logged with outcome ``recovered``.
        """
        for record in list(self.journal.recovered):
            if self._draining:
                break
            rid = str(record.get("rid", "?"))
            op = str(record.get("op", "solve"))
            message = record.get("message")
            try:
                if not isinstance(message, dict):
                    raise ProtocolError("journal record carries no message")
                normalize = (
                    check_request_to_jobspec if op == "check"
                    else solve_request_to_jobspec
                )
                spec, _ = normalize(
                    message, default_deadline=self.config.default_deadline
                )
                key = spec_fingerprint(spec)
                if self.cache.peek(key) is None:
                    await self._execute(spec, key, False)
                self.counters["requeued"] += 1
                self.log.log(
                    request=rid, op=op, outcome="recovered", key=key
                )
            except asyncio.CancelledError:  # pragma: no cover - shutdown
                raise
            except Exception as err:
                self.log.log(
                    request=rid,
                    op=op,
                    outcome="recovered-error",
                    error=str(err),
                )
            finally:
                self.journal.settle(rid)

    async def _close(self) -> None:
        if self._requeue_task is not None and not self._requeue_task.done():
            # The requeue loop checks _draining between records, so this
            # finishes promptly once a drain has begun.
            try:
                await self._requeue_task
            except asyncio.CancelledError:  # pragma: no cover - teardown
                pass
        await self._drain()
        self._persist()
        self.journal.close()
        self._pool.shutdown(wait=True)

    async def _drain(self) -> None:
        """Wait until no request is executing."""
        while self._inflight:
            self._idle.clear()
            await self._idle.wait()

    def _persist(self) -> int:
        if not self.config.cache_path:
            return 0
        return self.cache.save(self.config.cache_path)

    # ----------------------------------------------------------------- #
    # Connections and dispatch.                                         #
    # ----------------------------------------------------------------- #

    def _connect(self) -> Optional[dict]:
        """Refuse a connection past the cap with ``overloaded``."""
        if self.admission.try_connect():
            return None
        return error_response(
            None,
            f"connection limit reached "
            f"({self.admission.max_connections} active)",
            code="overloaded",
            retry_after_ms=self.admission.retry_after_ms(),
        )

    def _disconnect(self) -> None:
        self.admission.disconnect()

    async def _handle(self, op: str, message: dict, rid: str):
        if op == "ping":
            return {
                "ok": True,
                "op": "ping",
                "protocol": PROTOCOL,
                "request": rid,
                "role": "daemon",
            }, False
        if op == "solvers":
            return {
                "ok": True,
                "op": "solvers",
                "request": rid,
                "solvers": capability_listing(),
            }, False
        if op == "status":
            return self._status(rid), False
        if op == "shutdown":
            return await self._shutdown(rid), True

        # solve / check: admission control before any work is queued.
        self.counters[op] += 1
        if self._draining:
            self.counters["rejected"] += 1
            self.log.log(
                request=rid, op=op, outcome="shed", reason="draining"
            )
            return error_response(
                op,
                "daemon is draining; resubmit elsewhere",
                code="draining",
                request=rid,
            ), False
        if not self.admission.try_admit():
            self.counters["shed"] += 1
            hint = self.admission.retry_after_ms()
            self.log.log(
                request=rid,
                op=op,
                outcome="shed",
                reason="overloaded",
                queue_depth=self.admission.pending,
                retry_after_ms=hint,
            )
            return error_response(
                op,
                f"daemon overloaded: {self.admission.pending} requests "
                f"pending (high watermark "
                f"{self.admission.queue_high}); retry after the hint",
                code="overloaded",
                retry_after_ms=hint,
                request=rid,
            ), False
        try:
            return await self._solve(message, rid, op), False
        finally:
            self.admission.release()

    # ----------------------------------------------------------------- #
    # Operations.                                                       #
    # ----------------------------------------------------------------- #

    def _status(self, rid: str) -> dict:
        return {
            "ok": True,
            "op": "status",
            "request": rid,
            "protocol": PROTOCOL,
            "role": "daemon",
            "shared": (
                self.shared.stats() if self.shared is not None else None
            ),
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "workers": self.config.workers,
            "draining": self._draining,
            "in_flight": self._inflight,
            "requests": dict(self.counters),
            "cache": self.cache.stats(),
            "cache_loaded": self.cache_loaded,
            "admission": self.admission.stats(),
            "journal": self.journal.stats(),
        }

    async def _shutdown(self, rid: str) -> dict:
        """Drain in-flight work, persist the cache, then stop the loop."""
        self._draining = True
        await self._drain()
        persisted = self._persist()
        self.log.log(request=rid, op="shutdown", outcome="drained")
        self.request_shutdown()
        return {
            "ok": True,
            "op": "shutdown",
            "request": rid,
            "drained": True,
            "persisted_entries": persisted,
            "journal_open": len(self.journal),
        }

    async def _solve(self, message: dict, rid: str, op: str) -> dict:
        """``solve`` and ``check``: one pipeline, two normalizers.

        The two operations differ only in request normalization (a
        ``check`` adds the rule selection and lands in a ``kind="check"``
        JobSpec) -- caching, single-flighting and the worker pool are
        shared, and the spec fingerprint keys on ``kind`` and ``rules``
        so the two can never serve each other's cache entries.
        """
        started = time.perf_counter()
        normalize = (
            check_request_to_jobspec if op == "check"
            else solve_request_to_jobspec
        )
        try:
            spec, fresh = normalize(
                message, default_deadline=self.config.default_deadline
            )
        except ProtocolError as err:
            return self._bad_request(rid, op, err)

        key = spec_fingerprint(spec)
        # Journal at admission, settle at response: the window in
        # between is exactly what a crash may interrupt, and the journal
        # record (carrying the original message) is what makes the
        # request re-executable on restart.
        self.journal.begin(rid, op, key, message)
        try:
            if not fresh:
                entry = self.cache.get(key)
                if entry is None and self.shared is not None:
                    # A sibling shard (or a previous fleet lifetime) may
                    # have solved this exact request; promote its entry
                    # into the local LRU so repeats stay local.
                    entry = self.shared.get(key)
                    if entry is not None:
                        self.counters["shared_hit"] += 1
                        self.cache.put(entry)
                if entry is not None:
                    self.counters["hit"] += 1
                    return self._respond(
                        rid, message, spec, key, "hit", entry.result, 0,
                        started, op=op,
                    )
            else:
                self.counters["bypass"] += 1

            execution, coalesced = await self._execute(spec, key, fresh)
            outcome = "warm" if execution.mode == "warm" else "miss"
            if fresh:
                outcome = "bypass"
            if coalesced:
                self.counters["coalesced"] += 1
            elif outcome == "warm":
                self.counters["warm"] += 1
                self.cache.warm_hits += 1
            elif outcome == "miss":
                self.counters["miss"] += 1
            result = execution.result
            return self._respond(
                rid,
                message,
                spec,
                key,
                outcome,
                result.to_json(),
                result.evaluations,
                started,
                warm_donor=execution.warm_donor,
                dirty_nodes=execution.dirty_nodes,
                op=op,
                failure_kind=execution.failure_kind,
            )
        finally:
            self.journal.settle(rid)

    async def _execute(
        self, spec: JobSpec, key: str, fresh: bool
    ) -> Tuple[ServiceExecution, bool]:
        """Run a request on the worker pool, single-flighted per key."""
        pending = self._singleflight.get(key)
        if pending is not None and not fresh:
            return await asyncio.shield(pending), True

        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._singleflight[key] = future
        self._inflight += 1
        try:
            options = options_fingerprint(spec)
            donors = [
                (e.key, e.source, e.state)
                for e in self.cache.warm_candidates(options, exclude=key)
            ]
            shared_keys = set()
            if self.shared is not None:
                local = {donor_key for donor_key, _, _ in donors}
                for e in self.shared.warm_candidates(options, exclude=key):
                    if e.key not in local:
                        donors.append((e.key, e.source, e.state))
                        shared_keys.add(e.key)
            execution = await loop.run_in_executor(
                self._pool,
                lambda: execute_service_job(
                    spec, donors, max_dirty_ratio=self.config.warm_ratio
                ),
            )
            if execution.warm_donor in shared_keys:
                # The winning donor came off the shared index: a warm
                # start this shard could never have served alone.
                self.counters["shared_warm"] += 1
            if (
                execution.result.status in _CACHEABLE
                and execution.verified
            ):
                entry = CacheEntry(
                    key=key,
                    options=options,
                    source=spec.source,
                    result=execution.result.to_json(),
                    state=execution.state,
                )
                self.cache.put(entry)
                if self.shared is not None:
                    self.shared.put(entry)
                    if self.shared.stores % 64 == 0:
                        self.shared.prune()
            future.set_result(execution)
            return execution, False
        except BaseException as err:  # pragma: no cover - defensive
            future.set_exception(err)
            raise
        finally:
            self._singleflight.pop(key, None)
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    def _respond(
        self,
        rid: str,
        message: dict,
        spec: JobSpec,
        key: str,
        outcome: str,
        result: dict,
        served_evaluations: int,
        started: float,
        warm_donor: Optional[str] = None,
        dirty_nodes: int = 0,
        op: str = "solve",
        failure_kind: Optional[str] = None,
    ) -> dict:
        wall_ms = round((time.perf_counter() - started) * 1000.0, 3)
        extra = {}
        if op == "check":
            extra = {
                "rules": list(spec.rules),
                "findings": result.get("findings", 0),
            }
        log_outcome = outcome
        if failure_kind is not None:
            # Name *why* the request failed, not just that the cache
            # missed; a server-side deadline kill is an operational
            # outcome of its own.
            extra["failure"] = failure_kind
            if failure_kind == "deadline":
                log_outcome = "deadline"
                self.counters["deadline"] += 1
        self.log.log(
            request=rid,
            op=op,
            outcome=log_outcome,
            program=program_sha(spec.source),
            key=key,
            status=result["status"],
            code=result["code"],
            evaluations=served_evaluations,
            solver=spec.solver,
            domain=spec.domain,
            context=spec.context,
            update_op=spec.op,
            warm_donor=warm_donor,
            dirty_nodes=dirty_nodes,
            wall_ms=wall_ms,
            **extra,
        )
        response = {
            "ok": True,
            "op": op,
            "request": rid,
            "cache": outcome,
            "key": key,
            "served_evaluations": served_evaluations,
            "result": result,
            "wall_ms": wall_ms,
        }
        if failure_kind is not None:
            response["failure"] = failure_kind
        if "id" in message:
            response["id"] = message["id"]
        if warm_donor is not None:
            response["warm_donor"] = warm_donor
            response["dirty_nodes"] = dirty_nodes
        return response
