"""The fleet's front door: a consistent-hash routing daemon.

:class:`RouterDaemon` listens on one UNIX socket speaking the exact
``repro-service/1`` NDJSON protocol and fans ``solve``/``check``
requests out to N shard daemons -- each a stock
:class:`~repro.service.daemon.AnalysisDaemon` on its own socket.  From
a client's point of view the router *is* a daemon: ``ServiceClient``,
``repro submit`` and ``repro status`` work unchanged against it.

Routing and resilience:

* **placement** -- the request is normalized through the same
  validators the shards use (so malformed requests are rejected at the
  front, before costing a forward) and its
  :func:`~repro.batch.jobs.spec_fingerprint` is looked up on the
  :class:`~repro.fleet.ring.HashRing`.  Identical requests always land
  on the same shard, preserving single-flight coalescing and local
  cache locality; distinct requests spread across the fleet;
* **pooled forwards** -- each :class:`ShardLink` keeps the connections
  its finished forwards left idle and reuses them, so a forward costs
  one request line and one reply line, not a connect and an accept.
  Concurrent forwards hold separate connections, which the shard
  serves in parallel;
* **health** -- a background probe pings every shard on an interval;
  forwarding failures mark a shard unhealthy immediately, a successful
  probe restores it.  Unhealthy shards are skipped in preference order;
* **failover** -- a transport failure against one shard retries the
  next shard on the ring's preference walk (bounded by fleet size).
  A reused connection that fails before its first reply byte (the
  shard restarted, or closed it while idle) is first retried once on
  a new connection to the same shard; only a new connection's failure
  counts against the shard.
  Shard *replies* are never second-guessed: ``overloaded``,
  ``draining``, ``bad-request`` and result payloads pass through
  verbatim, so the admission/deadline taxonomy of
  ``docs/service-reliability.md`` survives the extra hop.  Only when
  every shard is unreachable does the router answer an ``unavailable``
  error of its own;
* **status** -- ``status`` aggregates every shard's counters into a
  fleet-wide view plus a stable ``fleet`` section (shard count,
  per-shard health, ring version, shared-index counters); ``shutdown``
  drains the router (shard lifecycle belongs to the
  :class:`~repro.fleet.manager.ShardManager`).

Listening, the connection loop, request ids (``f000001``...) and the
close sequence are the :class:`~repro.service.sockets.LineServer` core
the daemon runs on too.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fleet.ring import DEFAULT_REPLICAS, HashRing
from repro.batch.jobs import spec_fingerprint
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL,
    ProtocolError,
    check_request_to_jobspec,
    decode,
    encode,
    error_response,
    solve_request_to_jobspec,
)
from repro.service.reqlog import RequestLog
from repro.service.sockets import LineServer

#: One connection to a shard: its reader and writer.
Connection = Tuple[asyncio.StreamReader, asyncio.StreamWriter]


@dataclass
class ShardLink:
    """The router's view of one shard daemon."""

    #: Stable shard name -- the ring node and the status id.
    shard_id: str
    #: The shard daemon's UNIX socket path.
    socket_path: str
    #: Health as of the last probe or forward.
    healthy: bool = True
    #: Requests forwarded to (and answered by) this shard.
    forwarded: int = 0
    #: Transport failures observed against this shard.
    failures: int = 0
    #: Connections opened to this shard (idle ones are reused).
    connects: int = 0
    #: Monotonic timestamp of the last successful probe/forward.
    last_ok: float = field(default_factory=time.monotonic)
    #: Idle connections as ``(idle since, reader, writer)``, with the
    #: monotonic time each became idle; the most recently used last.
    idle: List[Tuple[float, asyncio.StreamReader, asyncio.StreamWriter]] = (
        field(default_factory=list, repr=False)
    )

    def take(self, max_idle: Optional[float]) -> Optional[Connection]:
        """The most recently used idle connection, or ``None``.

        Connections idle for ``max_idle`` seconds or longer are closed
        instead of reused.
        """
        if max_idle is not None:
            stale = time.monotonic() - max_idle
            while self.idle and self.idle[0][0] <= stale:
                self.idle.pop(0)[2].close()
        if not self.idle:
            return None
        _, reader, writer = self.idle.pop()
        return reader, writer

    def close_idle(self) -> None:
        while self.idle:
            self.idle.pop()[2].close()

    def to_json(self) -> dict:
        return {
            "id": self.shard_id,
            "socket": self.socket_path,
            "healthy": self.healthy,
            "forwarded": self.forwarded,
            "connects": self.connects,
            "failures": self.failures,
        }


@dataclass
class RouterConfig:
    """Tunables of one router instance."""

    #: The front UNIX socket clients connect to.
    socket_path: str
    #: ``(shard_id, socket_path)`` pairs, one per shard daemon.
    shards: Tuple[Tuple[str, str], ...] = ()
    #: Virtual nodes per shard on the ring.
    replicas: int = DEFAULT_REPLICAS
    #: Per-forward deadline against a shard, seconds (a reused
    #: connection's retry on a new one included).
    shard_timeout: float = 600.0
    #: Health-probe cadence, seconds (``None`` disables the prober --
    #: forwards still mark failures, but recovery needs traffic).
    health_interval: Optional[float] = 2.0
    #: Per-connection read deadline for request lines, the fleet's
    #: ``--read-timeout``: the router applies it to its clients, and
    #: since the shards apply it to the router's pooled connections, a
    #: connection idle for half of it or longer is closed, not reused.
    read_timeout: Optional[float] = None
    #: Request-log file (NDJSON); ``None`` disables logging.
    log_path: Optional[str] = None


class RouterDaemon(LineServer):
    """One fleet front-end over N shard daemons."""

    id_prefix = "f"

    def __init__(
        self,
        config: RouterConfig,
        *,
        log: Optional[RequestLog] = None,
    ) -> None:
        if not config.shards:
            raise ValueError("a router needs at least one shard")
        self.config = config
        self.shards: Dict[str, ShardLink] = {
            shard_id: ShardLink(shard_id, socket_path)
            for shard_id, socket_path in config.shards
        }
        if len(self.shards) != len(config.shards):
            raise ValueError("shard ids must be unique")
        super().__init__(
            log or RequestLog(path=config.log_path),
            (
                "total", "forwarded", "failovers", "unavailable", "errors",
                "health_probes", "stalled", "disconnected",
            ),
            socket_path=config.socket_path,
            read_timeout=config.read_timeout,
        )
        self.ring = HashRing(self.shards, replicas=config.replicas)
        #: Idle time after which a pooled connection is not reused.
        self._max_idle = (
            None if config.read_timeout is None else config.read_timeout / 2
        )
        self._health_task: Optional[asyncio.Task] = None

    # ----------------------------------------------------------------- #
    # Lifecycle.                                                        #
    # ----------------------------------------------------------------- #

    async def start(self) -> None:
        await super().start()
        if self.config.health_interval is not None:
            self._health_task = asyncio.ensure_future(self._health_loop())

    async def _close(self) -> None:
        if self._health_task is not None:
            self._health_task.cancel()
            try:
                await self._health_task
            except asyncio.CancelledError:
                pass
        for link in self.shards.values():
            link.close_idle()

    # ----------------------------------------------------------------- #
    # Health.                                                           #
    # ----------------------------------------------------------------- #

    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval)
            await self.probe_shards()

    async def probe_shards(self) -> int:
        """Ping every shard once; returns how many answered healthy."""
        results = await asyncio.gather(
            *(self._probe(link) for link in self.shards.values())
        )
        return sum(results)

    async def _probe(self, link: ShardLink) -> bool:
        self.counters["health_probes"] += 1
        try:
            reply = await self._roundtrip(
                link, encode({"op": "ping"}), timeout=PROBE_TIMEOUT
            )
            ok = bool(decode(reply).get("ok"))
        except (OSError, asyncio.TimeoutError, ProtocolError):
            ok = False
        was = link.healthy
        link.healthy = ok
        if ok:
            link.last_ok = time.monotonic()
        if was != ok:
            self.log.log(
                request="-",
                op="health",
                outcome="up" if ok else "down",
                shard=link.shard_id,
            )
        return ok

    # ----------------------------------------------------------------- #
    # Dispatch.                                                         #
    # ----------------------------------------------------------------- #

    async def _handle(self, op: str, message: dict, rid: str):
        """Answer control ops; place, forward and fail over the rest."""
        if op == "ping":
            return {
                "ok": True,
                "op": "ping",
                "protocol": PROTOCOL,
                "request": rid,
                "role": "router",
                "shards": len(self.shards),
            }, False
        if op == "status":
            return await self._status(rid), False
        if op == "shutdown":
            self.log.log(request=rid, op="shutdown", outcome="drained")
            self.request_shutdown()
            return {
                "ok": True,
                "op": "shutdown",
                "request": rid,
                "role": "router",
                "drained": True,
            }, True
        if op == "solvers":
            # Any shard's catalogue is every shard's catalogue.
            return await self._forward(message, rid, op), False

        # solve / check: place on the ring, forward, fail over.
        if self._draining:
            self.counters["errors"] += 1
            return error_response(
                op,
                "router is draining; resubmit elsewhere",
                code="draining",
                request=rid,
            ), False
        try:
            normalize = (
                check_request_to_jobspec
                if op == "check"
                else solve_request_to_jobspec
            )
            spec, _ = normalize(message)
            key = spec_fingerprint(spec)
        except ProtocolError as err:
            return self._bad_request(rid, op, err), False
        return await self._forward(message, rid, op, key), False

    # ----------------------------------------------------------------- #
    # Forwarding (shard side).                                          #
    # ----------------------------------------------------------------- #

    async def _roundtrip(
        self, link: ShardLink, payload: bytes, timeout: float
    ) -> bytes:
        """One request/response line against a shard, bounded.

        Runs on an idle pooled connection when ``link`` has one, else on
        a new one.  A reused connection that fails before its first
        reply byte is retried once on a new connection; every other
        failure raises, so only a new connection's failure (or a torn
        reply) counts against the shard.
        """

        async def exchange() -> bytes:
            reply = b""
            connection = link.take(self._max_idle)
            if connection is not None:
                with contextlib.suppress(OSError):
                    reply = await self._exchange(link, connection, payload)
            if not reply:
                connection = await asyncio.open_unix_connection(
                    link.socket_path, limit=MAX_LINE_BYTES
                )
                link.connects += 1
                reply = await self._exchange(link, connection, payload)
            if not reply.endswith(b"\n"):
                raise ConnectionResetError("shard closed mid-response")
            return reply

        return await asyncio.wait_for(exchange(), timeout=timeout)

    async def _exchange(
        self, link: ShardLink, connection: Connection, payload: bytes
    ) -> bytes:
        """Write ``payload`` and read one line; ``b""`` if the shard
        closed the connection first.

        Only a complete reply line returns the connection to ``link``'s
        pool (until the router drains); a failure, a timeout or a
        cancellation closes it, so a late reply is never read as the
        answer to another request.
        """
        reader, writer = connection
        reply = b""
        try:
            writer.write(payload)
            await writer.drain()
            reply = await reader.readline()
        finally:
            if reply.endswith(b"\n") and not self._draining:
                link.idle.append((time.monotonic(), reader, writer))
            else:
                writer.close()
        return reply

    async def _forward(
        self, message: dict, rid: str, op: str, key: Optional[str] = None
    ) -> bytes:
        """Forward to the first shard that answers: healthy shards in
        ``key``'s ring preference order, then unhealthy ones as a last
        resort (a probe may be stale).  Without a key (``solvers``, whose
        catalogue every shard shares) the order is the configured one.
        """
        payload = encode(message)
        order = self.ring.preference(key) if key is not None else self.shards
        links = [self.shards[s] for s in order]
        owner = links[0].shard_id if key is not None else None
        attempts = 0
        for link in [x for x in links if x.healthy] + [
            x for x in links if not x.healthy
        ]:
            attempts += 1
            try:
                reply = await self._roundtrip(
                    link, payload, timeout=self.config.shard_timeout
                )
            except (OSError, asyncio.TimeoutError) as err:
                link.failures += 1
                link.healthy = False
                self.counters["failovers"] += 1
                self.log.log(
                    request=rid,
                    op=op,
                    outcome="failover",
                    shard=link.shard_id,
                    error=f"{type(err).__name__}: {err}",
                )
                continue
            except ValueError:  # a reply line above MAX_LINE_BYTES
                return encode(self._bad_request(rid, op, ProtocolError(
                    f"the reply exceeds {MAX_LINE_BYTES} bytes"
                )))
            link.forwarded += 1
            link.healthy = True
            link.last_ok = time.monotonic()
            self.counters["forwarded"] += 1
            self.log.log(
                request=rid,
                op=op,
                outcome="forwarded",
                shard=link.shard_id,
                owner=owner,
                key=key,
                attempts=attempts,
            )
            return reply
        self.counters["unavailable"] += 1
        self.log.log(
            request=rid, op=op, outcome="unavailable", key=key,
            attempts=attempts,
        )
        return encode(
            error_response(
                op,
                f"no shard reachable for this request "
                f"({len(self.shards)} tried); retry once the fleet "
                f"recovers",
                code="unavailable",
                retry_after_ms=500,
                request=rid,
            )
        )

    # ----------------------------------------------------------------- #
    # Status aggregation.                                               #
    # ----------------------------------------------------------------- #

    async def _shard_status(self, link: ShardLink) -> Optional[dict]:
        try:
            reply = decode(
                await self._roundtrip(
                    link, encode({"op": "status"}), timeout=STATUS_TIMEOUT
                )
            )
        except (OSError, asyncio.TimeoutError, ProtocolError):
            return None
        if not reply.get("ok"):
            return None
        return reply

    async def _status(self, rid: str) -> dict:
        """The aggregated fleet status document.

        The ``fleet`` section is a stable schema (see ``docs/fleet.md``):
        shard count, per-shard health + counters, ring version, and the
        summed shared-index counters.  Top-level ``requests`` sums the
        shards' counters so existing status consumers keep working
        against a router unmodified.
        """
        statuses = await asyncio.gather(
            *(self._shard_status(link) for link in self.shards.values())
        )
        requests_total: Dict[str, int] = {}
        shared_total: Dict[str, int] = {}
        per_shard = []
        in_flight = 0
        for link, status in zip(self.shards.values(), statuses):
            row = link.to_json()
            if status is not None:
                for name, value in status.get("requests", {}).items():
                    if isinstance(value, int):
                        requests_total[name] = (
                            requests_total.get(name, 0) + value
                        )
                shared = status.get("shared") or {}
                for name, value in shared.items():
                    if isinstance(value, int):
                        shared_total[name] = shared_total.get(name, 0) + value
                in_flight += int(status.get("in_flight", 0))
                row.update(
                    pid=status.get("pid"),
                    uptime_s=status.get("uptime_s"),
                    in_flight=status.get("in_flight", 0),
                    requests=status.get("requests", {}),
                    cache=status.get("cache", {}),
                    shared=shared,
                )
            else:
                row.update(pid=None, uptime_s=None, in_flight=0)
                row["healthy"] = False
            per_shard.append(row)
        healthy = sum(1 for row in per_shard if row["healthy"])
        return {
            "ok": True,
            "op": "status",
            "request": rid,
            "protocol": PROTOCOL,
            "role": "router",
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "draining": self._draining,
            "in_flight": in_flight,
            "requests": requests_total,
            "router": dict(self.counters),
            "fleet": {
                "shards": len(self.shards),
                "healthy": healthy,
                "ring": self.ring.stats(),
                "shared": shared_total,
                "per_shard": per_shard,
            },
        }


#: Deadline for a liveness ping against one shard, seconds.
PROBE_TIMEOUT = 2.0
#: Deadline for one shard's status reply during aggregation, seconds.
STATUS_TIMEOUT = 5.0
