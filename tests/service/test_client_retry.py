"""The resilient client: typed errors, retries, backoff, circuit breaker.

Two layers of tests: scripted fake daemons over a real UNIX socket (the
wire-level failure classification) and a scripted ``_attempt`` (the
retry loop, backoff arithmetic and breaker state machine in isolation).
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
import warnings

import pytest

from repro.service import (
    NO_RETRY,
    CircuitOpenError,
    DaemonUnavailableError,
    RetryPolicy,
    ServiceClient,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeout,
    ServiceTransportError,
)
from repro.supervise.chaos import TransportChaosPolicy


class ZeroJitter:
    """An ``rng`` whose full-jitter draw is always the minimum."""

    def uniform(self, low, high):
        return low


def fast_policy(**overrides) -> RetryPolicy:
    fields = dict(attempts=3, base_delay=0.001, max_delay=0.01)
    fields.update(overrides)
    return RetryPolicy(**fields)


class ScriptedServer(threading.Thread):
    """A fake daemon: answers each request line from a reply script.

    Script entries are either a dict (sent as one NDJSON reply) or the
    string ``"close"`` (the connection is dropped without a reply -- a
    crash/reset as the client sees it).
    """

    def __init__(self, path: str, script):
        super().__init__(daemon=True)
        self.script = list(script)
        self.received = []
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(path)
        self._server.listen(8)
        self._server.settimeout(10.0)

    def run(self) -> None:
        try:
            while self.script:
                conn, _ = self._server.accept()
                with conn:
                    if not self._serve_connection(conn):
                        continue
        except OSError:  # pragma: no cover - teardown race
            pass
        finally:
            self._server.close()

    def _serve_connection(self, conn) -> bool:
        buffer = b""
        while self.script:
            data = conn.recv(65536)
            if not data:
                return False  # client hung up (e.g. chaos truncation)
            buffer += data
            while b"\n" in buffer and self.script:
                line, buffer = buffer.split(b"\n", 1)
                self.received.append(json.loads(line))
                action = self.script.pop(0)
                if action == "close":
                    return False
                conn.sendall(json.dumps(action).encode("utf-8") + b"\n")
        return True


def ok_reply(**extra):
    return {"ok": True, "op": "ping", "protocol": "repro-service/1", **extra}


def scripted(tmp_path, script, **client_kwargs):
    path = str(tmp_path / "fake.sock")
    server = ScriptedServer(path, script)
    server.start()
    kwargs = dict(timeout=5.0, retry=fast_policy(), rng=ZeroJitter())
    kwargs.update(client_kwargs)
    return server, ServiceClient(socket_path=path, **kwargs)


class TestTypedErrors:
    def test_no_daemon_is_an_actionable_error(self, tmp_path):
        client = ServiceClient(
            socket_path=str(tmp_path / "absent.sock"), retry=NO_RETRY
        )
        with pytest.raises(DaemonUnavailableError) as excinfo:
            client.ping()
        # The message tells the user what to *do*, not just what broke.
        assert "is the daemon running" in str(excinfo.value)
        assert "repro serve" in str(excinfo.value)
        assert excinfo.value.retryable

    def test_failed_connect_closes_its_socket(self, tmp_path):
        client = ServiceClient(socket_path=str(tmp_path / "absent.sock"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(DaemonUnavailableError):
                client.connect()
            gc.collect()
        assert [w for w in caught if w.category is ResourceWarning] == []

    def test_bad_request_is_not_retried(self, tmp_path):
        reply = {"ok": False, "op": "ping", "code": "bad-request", "error": "no"}
        server, client = scripted(tmp_path, [reply])
        with client:
            with pytest.raises(ServiceError) as excinfo:
                client.ping()
        assert excinfo.value.code == "bad-request"
        assert not excinfo.value.retryable
        assert client.attempts_total == 1
        server.join(timeout=5)

    def test_overloaded_reply_maps_to_typed_error(self, tmp_path):
        shed = {
            "ok": False,
            "op": "solve",
            "code": "overloaded",
            "error": "queue full",
            "retry_after_ms": 1,
        }
        server, client = scripted(
            tmp_path, [shed, shed], retry=fast_policy(attempts=2)
        )
        with client:
            with pytest.raises(ServiceOverloadedError) as excinfo:
                client.request({"op": "solve", "source": "x"})
        assert excinfo.value.code == "overloaded"
        assert excinfo.value.retry_after_ms == 1
        assert client.attempts_total == 2  # it *did* retry before giving up
        server.join(timeout=5)

    def test_draining_counts_as_overloaded(self, tmp_path):
        drain = {"ok": False, "op": "solve", "code": "draining", "error": "bye"}
        server, client = scripted(tmp_path, [drain], retry=NO_RETRY)
        with client:
            with pytest.raises(ServiceOverloadedError):
                client.request({"op": "solve", "source": "x"})
        server.join(timeout=5)


class TestRetryLoop:
    def test_transient_overload_is_retried_to_success(self, tmp_path):
        shed = {
            "ok": False,
            "op": "ping",
            "code": "overloaded",
            "error": "busy",
            "retry_after_ms": 1,
        }
        server, client = scripted(tmp_path, [shed, ok_reply()])
        with client:
            reply = client.ping()
        assert reply["ok"] is True
        assert client.retries == 1
        assert client.stats()["circuit"] == "closed"
        server.join(timeout=5)

    def test_connection_drop_is_retried_on_a_fresh_socket(self, tmp_path):
        server, client = scripted(tmp_path, ["close", ok_reply()])
        with client:
            reply = client.ping()
        assert reply["ok"] is True
        assert client.transport_errors == 1
        assert len(server.received) == 2
        server.join(timeout=5)

    def test_chaos_truncation_is_survived(self, tmp_path):
        chaos = TransportChaosPolicy(
            seed=7, rate=1.0, kinds=("truncate",), max_faults=1
        )
        server, client = scripted(tmp_path, [ok_reply()], chaos=chaos)
        with client:
            reply = client.ping()
        assert reply["ok"] is True
        assert chaos.fired == 1
        # The torn line never reached the script; only the retry did.
        assert len(server.received) == 1
        server.join(timeout=5)

    def test_overload_hint_floors_the_backoff(self, monkeypatch):
        client = ServiceClient(
            socket_path="/nowhere", retry=fast_policy(), rng=ZeroJitter()
        )
        attempts = iter(
            [
                ServiceOverloadedError(
                    "busy", {"code": "overloaded", "retry_after_ms": 40}
                ),
                ok_reply(),
            ]
        )

        def scripted_attempt(message):
            outcome = next(attempts)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        slept = []
        monkeypatch.setattr(client, "_attempt", scripted_attempt)
        monkeypatch.setattr(time, "sleep", slept.append)
        assert client.ping()["ok"] is True
        # Jitter drew 0, so the daemon's 40 ms hint is the floor.
        assert slept == [0.04]

    def test_total_deadline_budget_cuts_retries_short(self, monkeypatch):
        client = ServiceClient(
            socket_path="/nowhere",
            retry=RetryPolicy(
                attempts=5, base_delay=30.0, max_delay=30.0, total_timeout=0.05
            ),
        )
        monkeypatch.setattr(
            client,
            "_attempt",
            lambda message: (_ for _ in ()).throw(
                ServiceTransportError("reset")
            ),
        )
        started = time.monotonic()
        with pytest.raises(ServiceTransportError):
            client.ping()
        # The 30 s backoff would blow the 0.05 s budget: no sleep happened.
        assert time.monotonic() - started < 5.0
        assert client.retries == 0

    def test_timeout_after_write_is_not_retried(self, monkeypatch):
        client = ServiceClient(socket_path="/nowhere", retry=fast_policy())
        monkeypatch.setattr(
            client,
            "_attempt",
            lambda message: (_ for _ in ()).throw(
                ServiceTimeout("late", wrote=True)
            ),
        )
        with pytest.raises(ServiceTimeout):
            client.ping()
        assert client.retries == 0

    def test_timeout_before_write_is_retried(self, monkeypatch):
        outcomes = iter([ServiceTimeout("early", wrote=False), ok_reply()])

        def scripted_attempt(message):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        client = ServiceClient(socket_path="/nowhere", retry=fast_policy())
        monkeypatch.setattr(client, "_attempt", scripted_attempt)
        assert client.ping()["ok"] is True
        assert client.retries == 1


class TestCircuitBreaker:
    def breaker_client(self, monkeypatch, outcomes):
        client = ServiceClient(
            socket_path="/nowhere",
            retry=RetryPolicy(
                attempts=1,
                base_delay=0.001,
                breaker_threshold=2,
                breaker_cooldown=60.0,
            ),
        )
        script = iter(outcomes)

        def scripted_attempt(message):
            outcome = next(script)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        monkeypatch.setattr(client, "_attempt", scripted_attempt)
        return client

    def test_opens_after_consecutive_transport_errors(self, monkeypatch):
        client = self.breaker_client(
            monkeypatch,
            [ServiceTransportError("reset"), ServiceTransportError("reset")],
        )
        for _ in range(2):
            with pytest.raises(ServiceTransportError):
                client.ping()
        assert client.circuit_state == "open"
        # The third call fails fast -- no attempt reaches the wire.
        with pytest.raises(CircuitOpenError) as excinfo:
            client.ping()
        assert "circuit open" in str(excinfo.value)

    def test_half_open_probe_closes_on_success(self, monkeypatch):
        client = self.breaker_client(
            monkeypatch,
            [
                ServiceTransportError("reset"),
                ServiceTransportError("reset"),
                ok_reply(),
            ],
        )
        for _ in range(2):
            with pytest.raises(ServiceTransportError):
                client.ping()
        # Cooldown elapses: the breaker goes half-open and one probe
        # is let through; its success closes the circuit.
        client._opened_at -= 120.0
        assert client.circuit_state == "half-open"
        assert client.ping()["ok"] is True
        assert client.circuit_state == "closed"
        assert client.stats()["consecutive_errors"] == 0

    def test_overloaded_replies_do_not_trip_the_breaker(self, monkeypatch):
        client = self.breaker_client(
            monkeypatch,
            [
                ServiceOverloadedError("busy", {"code": "overloaded"})
                for _ in range(4)
            ],
        )
        for _ in range(4):
            with pytest.raises(ServiceOverloadedError):
                client.ping()
        # An overloaded daemon is alive: the circuit stays closed.
        assert client.circuit_state == "closed"


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(total_timeout=0)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_threshold=0)
        with pytest.raises(ValueError):
            RetryPolicy(breaker_cooldown=-1)

    def test_no_retry_is_single_attempt(self):
        assert NO_RETRY.attempts == 1
        assert NO_RETRY.breaker_threshold is None

    def test_exceptions_stay_catchable_as_service_error(self):
        # Back-compat: pre-hardening callers catch ServiceError only.
        for exc in (
            ServiceTransportError("x"),
            DaemonUnavailableError("/s", "refused"),
            ServiceTimeout("x", wrote=True),
            ServiceOverloadedError("x"),
            CircuitOpenError("x"),
        ):
            assert isinstance(exc, ServiceError)
