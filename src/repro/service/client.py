"""Synchronous, *resilient* client for the analysis daemon.

:class:`ServiceClient` speaks the NDJSON protocol over a UNIX or TCP
socket with plain blocking sockets -- no asyncio required on the client
side, so the CLI, tests and third-party scripts stay trivial::

    with ServiceClient(socket_path="/tmp/repro.sock") as client:
        reply = client.solve("int main() { return 0; }")
        assert reply["cache"] in ("hit", "warm", "miss")

One request maps to one response line; the connection is reusable for
any number of requests.

Resilience (see ``docs/service-reliability.md``):

* **typed failures** -- transport problems and daemon error replies
  surface as distinct :class:`ServiceError` subclasses, so callers can
  tell "no daemon is running" (:class:`DaemonUnavailableError`, with an
  actionable message) from "the daemon shed my request"
  (:class:`ServiceOverloadedError`) from "my request was invalid";
* **retries with exponential backoff and full jitter** -- transient
  failures (connect refused, connection reset, ``overloaded`` /
  ``draining`` replies, timeouts before the request was written) are
  retried under a :class:`RetryPolicy`, honouring the daemon's
  ``retry_after_ms`` hints and a total per-call deadline budget.
  Timeouts *after* the request was fully written are not retried
  automatically -- the work may still be running server-side;
* **a circuit breaker** -- after ``breaker_threshold`` consecutive
  transport errors the client fails fast with
  :class:`CircuitOpenError` for ``breaker_cooldown`` seconds instead of
  hammering a dead daemon, then lets a single probe through.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass
from typing import Optional

from repro.service.protocol import MAX_LINE_BYTES, decode, encode


class ServiceError(RuntimeError):
    """A transport failure or an ``ok: false`` reply from the daemon."""

    #: Whether an automatic retry may succeed (class default; instances
    #: may override).
    retryable = False

    def __init__(self, message: str, response: Optional[dict] = None) -> None:
        super().__init__(message)
        #: The daemon's full error reply, when one was received.
        self.response = response

    @property
    def code(self) -> Optional[str]:
        """The daemon's machine-readable error code, when one was sent."""
        if self.response is None:
            return None
        return self.response.get("code")


class ServiceTransportError(ServiceError):
    """The connection failed below the protocol (reset, refused, EOF)."""

    retryable = True


class DaemonUnavailableError(ServiceTransportError):
    """No daemon answered at the configured address at all."""

    def __init__(self, target: str, cause: object) -> None:
        super().__init__(
            f"cannot reach the daemon at {target}: {cause} -- is the "
            f"daemon running? start one with `repro serve`"
        )
        self.target = target


class ServiceTimeout(ServiceTransportError):
    """The daemon did not answer within the socket timeout.

    Only retryable when the request was *not* yet fully written
    (``wrote=False``): after a complete write the work may still be
    running server-side, and whether to re-submit is the caller's call.
    """

    def __init__(self, message: str, wrote: bool) -> None:
        super().__init__(message)
        #: Whether the request line had been fully written.
        self.wrote = wrote
        self.retryable = not wrote


class ServiceOverloadedError(ServiceError):
    """The request was shed (``overloaded``/``draining``) or, against a
    fleet router, no shard was reachable (``unavailable``) -- all
    retryable after the reply's ``retry_after_ms`` hint."""

    retryable = True

    @property
    def retry_after_ms(self) -> Optional[int]:
        """The daemon's backoff hint, when one was sent."""
        if self.response is None:
            return None
        return self.response.get("retry_after_ms")


class CircuitOpenError(ServiceError):
    """The client's circuit breaker is open; no attempt was made."""


@dataclass(frozen=True)
class RetryPolicy:
    """How a :class:`ServiceClient` call retries transient failures.

    Delays follow exponential backoff with **full jitter**: attempt
    ``n`` sleeps a uniform random time in ``[0, min(max_delay,
    base_delay * multiplier**(n-1))]``, floored by the daemon's
    ``retry_after_ms`` hint when one was sent.  ``total_timeout``
    bounds the whole call (attempts plus sleeps); the breaker fields
    configure the consecutive-transport-error circuit breaker
    (``breaker_threshold=None`` disables it).
    """

    attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    total_timeout: Optional[float] = 60.0
    breaker_threshold: Optional[int] = 5
    breaker_cooldown: float = 5.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("attempts must be at least 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1")
        if self.total_timeout is not None and self.total_timeout <= 0:
            raise ValueError("total_timeout must be positive")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        if self.breaker_cooldown < 0:
            raise ValueError("breaker_cooldown must be non-negative")


#: A policy that never retries and never opens the breaker -- the
#: pre-hardening single-attempt behaviour, for callers that want it.
NO_RETRY = RetryPolicy(attempts=1, breaker_threshold=None)


class ServiceClient:
    """A blocking connection to one analysis daemon.

    :param socket_path: UNIX socket path (wins over host/port).
    :param host: TCP host (with ``port``) when no socket path is given.
    :param port: TCP port.
    :param timeout: per-attempt socket timeout in seconds (``None``:
        block indefinitely -- solves can legitimately take a while).
    :param retry: the :class:`RetryPolicy`; ``None`` uses the default
        (3 attempts, jittered backoff, breaker at 5).  Pass
        :data:`NO_RETRY` for strict single-attempt behaviour.
    :param chaos: optional transport fault injector
        (:class:`repro.supervise.chaos.TransportChaosPolicy`) -- the
        socket chaos suite's hook, never set in production.
    :param rng: randomness source for jitter, injectable for tests.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: Optional[int] = None,
        timeout: Optional[float] = 60.0,
        retry: Optional[RetryPolicy] = None,
        chaos=None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if socket_path is None and port is None:
            raise ValueError("need a socket path or a TCP port")
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        self._rng = rng if rng is not None else random.Random()
        self._sock: Optional[socket.socket] = None
        self._buffer = b""
        # Operational counters (see :meth:`stats`).
        self.requests_total = 0
        self.attempts_total = 0
        self.retries = 0
        self.transport_errors = 0
        self._consecutive_errors = 0
        self._opened_at: Optional[float] = None

    # ----------------------------------------------------------------- #
    # Connection plumbing.                                              #
    # ----------------------------------------------------------------- #

    @property
    def target(self) -> str:
        """Human-readable address, for error messages."""
        if self.socket_path is not None:
            return self.socket_path
        return f"{self.host}:{self.port}"

    def connect(self) -> "ServiceClient":
        if self._sock is not None:
            return self
        try:
            if self.socket_path is not None:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    sock.settimeout(self.timeout)
                    sock.connect(self.socket_path)
                except OSError:
                    sock.close()
                    raise
            else:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
        except (ConnectionRefusedError, FileNotFoundError) as err:
            raise DaemonUnavailableError(self.target, err) from err
        except socket.timeout as err:
            raise ServiceTimeout(
                f"timed out after {self.timeout}s connecting to "
                f"{self.target}",
                wrote=False,
            ) from err
        except OSError as err:
            raise ServiceTransportError(
                f"cannot reach the daemon: {err}"
            ) from err
        self._sock = sock
        return self

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._buffer = b""

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _read_line(self) -> bytes:
        while b"\n" not in self._buffer:
            if len(self._buffer) > MAX_LINE_BYTES:
                raise ServiceError("response line too long")
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout as err:
                self.close()
                raise ServiceTimeout(
                    f"timed out after {self.timeout}s waiting for the "
                    f"daemon",
                    wrote=True,
                ) from err
            except OSError as err:
                self.close()
                raise ServiceTransportError(
                    f"connection failed: {err}"
                ) from err
            if not chunk:
                self.close()
                raise ServiceTransportError("daemon closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line

    # ----------------------------------------------------------------- #
    # The retry loop.                                                   #
    # ----------------------------------------------------------------- #

    def request(self, message: dict) -> dict:
        """Send one request and return its (``ok: true``) reply.

        Transient failures are retried under :attr:`retry`; see the
        module docstring for what counts as transient.

        :raises ServiceError: (a concrete subclass where one applies)
            on non-retryable failures, or once retries are exhausted.
        """
        policy = self.retry
        self.requests_total += 1
        budget = (
            None
            if policy.total_timeout is None
            else time.monotonic() + policy.total_timeout
        )
        attempt = 1
        while True:
            self._breaker_gate()
            try:
                reply = self._attempt(message)
            except ServiceError as err:
                if isinstance(err, ServiceTransportError):
                    self.transport_errors += 1
                    self._record_transport_failure()
                if not err.retryable or attempt >= policy.attempts:
                    raise
                delay = self._backoff_delay(attempt, err)
                if budget is not None and time.monotonic() + delay > budget:
                    raise
                self.retries += 1
                attempt += 1
                time.sleep(delay)
                continue
            self._record_success()
            return reply

    def _attempt(self, message: dict) -> dict:
        """One connect-write-read round trip; classifies every failure."""
        self.attempts_total += 1
        self.connect()
        payload = encode(message)
        kind = self.chaos.decide() if self.chaos is not None else None
        if kind == "stall":
            time.sleep(self.chaos.delay_seconds)
        try:
            if kind == "drop":
                self._sock.sendall(payload[: max(1, len(payload) // 2)])
                self.close()
                raise ServiceTransportError(
                    "chaos: connection dropped mid-request"
                )
            if kind == "truncate":
                self._sock.sendall(payload[:-1])
                self.close()
                raise ServiceTransportError(
                    "chaos: request line truncated"
                )
            self._sock.sendall(payload)
        except socket.timeout as err:
            self.close()
            raise ServiceTimeout(
                f"timed out after {self.timeout}s writing to the daemon",
                wrote=False,
            ) from err
        except OSError as err:
            self.close()
            raise ServiceTransportError(
                f"connection failed: {err}"
            ) from err
        reply = decode(self._read_line())
        if not reply.get("ok"):
            error = reply.get("error", "daemon reported an error")
            if reply.get("code") in ("overloaded", "draining", "unavailable"):
                raise ServiceOverloadedError(error, reply)
            raise ServiceError(error, reply)
        return reply

    def _backoff_delay(self, attempt: int, err: ServiceError) -> float:
        """Exponential backoff with full jitter, floored by the hint."""
        policy = self.retry
        cap = min(
            policy.max_delay,
            policy.base_delay * (policy.multiplier ** (attempt - 1)),
        )
        delay = self._rng.uniform(0.0, cap)
        hint = getattr(err, "retry_after_ms", None)
        if hint:
            delay = max(delay, hint / 1000.0)
        return delay

    # ----------------------------------------------------------------- #
    # The circuit breaker.                                              #
    # ----------------------------------------------------------------- #

    @property
    def circuit_state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        if self._opened_at is None:
            return "closed"
        elapsed = time.monotonic() - self._opened_at
        if elapsed < self.retry.breaker_cooldown:
            return "open"
        return "half-open"

    def _breaker_gate(self) -> None:
        if self.retry.breaker_threshold is None or self._opened_at is None:
            return
        elapsed = time.monotonic() - self._opened_at
        if elapsed < self.retry.breaker_cooldown:
            remaining = self.retry.breaker_cooldown - elapsed
            raise CircuitOpenError(
                f"circuit open after {self._consecutive_errors} "
                f"consecutive transport errors to {self.target}; "
                f"retry in {remaining:.1f}s"
            )
        # Half-open: let this attempt through as the probe.

    def _record_transport_failure(self) -> None:
        self._consecutive_errors += 1
        threshold = self.retry.breaker_threshold
        if threshold is not None and self._consecutive_errors >= threshold:
            self._opened_at = time.monotonic()

    def _record_success(self) -> None:
        self._consecutive_errors = 0
        self._opened_at = None

    def stats(self) -> dict:
        """Client-side operational counters and circuit state."""
        return {
            "requests": self.requests_total,
            "attempts": self.attempts_total,
            "retries": self.retries,
            "transport_errors": self.transport_errors,
            "consecutive_errors": self._consecutive_errors,
            "circuit": self.circuit_state,
        }

    # ----------------------------------------------------------------- #
    # Operations.                                                       #
    # ----------------------------------------------------------------- #

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def solve(self, source: str, **options) -> dict:
        """Submit a program; options mirror the protocol's solve fields
        (``solver``, ``domain``, ``context``, ``update_op``,
        ``widen_delay``, ``thresholds``, ``max_evals``, ``verify``,
        ``deadline``, ``deadline_ms``, ``fresh``, ``label``, ``id``)."""
        return self.request({"op": "solve", "source": source, **options})

    def check(self, source: str, rules=None, **options) -> dict:
        """Run the checker rules over a program.

        Options mirror :meth:`solve` minus ``verify`` (rejected by the
        protocol for checks); ``rules`` selects a rule subset (``None``:
        all rules).  The reply's ``result`` carries ``findings`` and the
        full ``diagnostics`` list.
        """
        message = {"op": "check", "source": source, **options}
        if rules is not None:
            message["rules"] = list(rules)
        return self.request(message)

    def status(self) -> dict:
        return self.request({"op": "status"})

    def solvers(self) -> list:
        """The daemon's solver capability listing."""
        return self.request({"op": "solvers"})["solvers"]

    def shutdown(self) -> dict:
        """Ask for a graceful drain; the daemon exits after replying."""
        reply = self.request({"op": "shutdown"})
        self.close()
        return reply
