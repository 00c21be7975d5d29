"""Graceful drain under load: in-flight work finishes, new work is
rejected as ``draining``, cache and journal land clean, exit is 0."""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.service import (
    NO_RETRY,
    AnalysisDaemon,
    ServiceClient,
    ServiceOverloadedError,
)
from repro.service import daemon as daemon_module
from repro.service.protocol import decode, encode
from tests.service.test_daemon import PROGRAM, run_scenario, unix_config


class TestDrainUnderLoad:
    def test_drain_finishes_in_flight_and_rejects_new(
        self, tmp_path, monkeypatch
    ):
        cache_path = tmp_path / "cache.json"
        journal_path = tmp_path / "journal.ndjson"

        # Gate the executor so one solve is *provably* in flight when
        # the shutdown arrives -- no timing games.
        solve_started = threading.Event()
        release_solve = threading.Event()
        real_execute = daemon_module.execute_service_job

        def gated_execute(spec, donors=(), **kwargs):
            solve_started.set()
            assert release_solve.wait(timeout=60.0)
            return real_execute(spec, donors, **kwargs)

        monkeypatch.setattr(
            daemon_module, "execute_service_job", gated_execute
        )

        replies = {}
        errors = {}

        def scenario(address):
            path = address[1]

            def slow_solve():
                with ServiceClient(socket_path=path, timeout=120.0) as c:
                    replies["inflight"] = c.solve(PROGRAM)

            def shut_down():
                with ServiceClient(socket_path=path, timeout=120.0) as c:
                    replies["bye"] = c.shutdown()

            solver = threading.Thread(target=slow_solve)
            solver.start()
            assert solve_started.wait(timeout=60.0)

            # Shutdown while the solve holds a worker: the daemon starts
            # draining and the reply will only come once in-flight work
            # is done.
            stopper = threading.Thread(target=shut_down)
            stopper.start()

            # New work during the drain is shed with the typed
            # ``draining`` code, not queued and not dropped silently.
            # Control ops bypass admission, so ``status`` tells us when
            # the shutdown has actually been dispatched.
            with ServiceClient(
                socket_path=path, timeout=60.0, retry=NO_RETRY
            ) as late:
                while not late.status()["draining"]:
                    time.sleep(0.01)
                with pytest.raises(ServiceOverloadedError) as excinfo:
                    late.solve(PROGRAM, label="late")
                errors["late"] = excinfo.value

            release_solve.set()
            solver.join(timeout=60.0)
            stopper.join(timeout=60.0)
            assert not solver.is_alive() and not stopper.is_alive()

        daemon = run_scenario(
            unix_config(
                tmp_path,
                cache_path=str(cache_path),
                journal_path=str(journal_path),
            ),
            scenario,
        )

        # The in-flight solve finished normally despite the drain.
        assert replies["inflight"]["result"]["status"] == "ok"
        assert replies["inflight"]["cache"] == "miss"

        # The late request got the typed rejection.
        assert errors["late"].code == "draining"
        assert daemon.counters["rejected"] >= 1

        # Clean exit: drained, cache persisted, journal empty.
        assert replies["bye"]["drained"] is True
        assert replies["bye"]["persisted_entries"] == 1
        assert replies["bye"]["journal_open"] == 0
        assert cache_path.exists()
        assert journal_path.read_text() == ""

    def test_drain_log_records_shed_reason(self, tmp_path, monkeypatch):
        import json

        log_path = tmp_path / "requests.ndjson"
        solve_started = threading.Event()
        release_solve = threading.Event()
        real_execute = daemon_module.execute_service_job

        def gated_execute(spec, donors=(), **kwargs):
            solve_started.set()
            assert release_solve.wait(timeout=60.0)
            return real_execute(spec, donors, **kwargs)

        monkeypatch.setattr(
            daemon_module, "execute_service_job", gated_execute
        )

        def scenario(address):
            path = address[1]

            def solve():
                with ServiceClient(socket_path=path, timeout=120.0) as client:
                    client.solve(PROGRAM)

            def shutdown():
                with ServiceClient(socket_path=path, timeout=120.0) as client:
                    client.shutdown()

            solver = threading.Thread(target=solve)
            solver.start()
            assert solve_started.wait(timeout=60.0)
            stopper = threading.Thread(target=shutdown)
            stopper.start()
            with ServiceClient(
                socket_path=path, timeout=60.0, retry=NO_RETRY
            ) as late:
                while not late.status()["draining"]:
                    time.sleep(0.01)
                with pytest.raises(ServiceOverloadedError):
                    late.solve(PROGRAM)
            release_solve.set()
            solver.join(timeout=60.0)
            stopper.join(timeout=60.0)

        run_scenario(unix_config(tmp_path, log_path=str(log_path)), scenario)
        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line.strip()
        ]
        shed = [r for r in records if r.get("outcome") == "shed"]
        assert len(shed) == 1
        assert shed[0]["reason"] == "draining"


def reads_eof(sock: socket.socket, timeout: float = 2.0) -> bool:
    """Whether ``sock`` reads end-of-file within ``timeout`` seconds."""
    sock.settimeout(timeout)
    try:
        return sock.recv(1) == b""
    except (socket.timeout, ConnectionResetError):
        return False


class TestDrainClosesIdleConnections:
    """A drain closes the connections waiting for their next request.

    From Python 3.12.1 on, ``Server.wait_closed()`` waits for every open
    connection, so one idle client held a drain forever; before that the
    drain returned but left the idle client connected until the event
    loop ended.
    """

    def test_shutdown_closes_an_idle_connection(self, tmp_path):
        daemon = AnalysisDaemon(unix_config(tmp_path))
        seen = {}

        async def main():
            await daemon.start()
            loop = asyncio.get_running_loop()
            path = daemon.config.socket_path
            idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                idle.connect(path)

                def shut_down():
                    with ServiceClient(socket_path=path) as client:
                        client.ping()  # the idle connection is accepted
                        seen["bye"] = client.shutdown()

                await loop.run_in_executor(None, shut_down)
                await asyncio.wait_for(
                    daemon.serve_until_shutdown(), timeout=5.0
                )
                seen["eof"] = await loop.run_in_executor(
                    None, reads_eof, idle
                )
            finally:
                idle.close()

        asyncio.run(main())
        assert seen["bye"]["drained"] is True
        assert seen["eof"] is True

    def test_request_in_flight_at_close_still_gets_its_reply(
        self, tmp_path, monkeypatch
    ):
        solve_started = threading.Event()
        release_solve = threading.Event()
        real_execute = daemon_module.execute_service_job

        def gated_execute(spec, donors=(), **kwargs):
            solve_started.set()
            assert release_solve.wait(timeout=60.0)
            return real_execute(spec, donors, **kwargs)

        monkeypatch.setattr(
            daemon_module, "execute_service_job", gated_execute
        )
        daemon = AnalysisDaemon(unix_config(tmp_path))
        seen = {}

        async def main():
            await daemon.start()
            loop = asyncio.get_running_loop()
            path = daemon.config.socket_path
            idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                idle.connect(path)

                def solve():
                    # Raw, to see the connection close after the reply.
                    with socket.socket(socket.AF_UNIX) as sock:
                        sock.connect(path)
                        sock.sendall(
                            encode({"op": "solve", "source": PROGRAM})
                        )
                        reply = sock.makefile("rb").readline()
                        return decode(reply), reads_eof(sock)

                solving = loop.run_in_executor(None, solve)
                assert await loop.run_in_executor(
                    None, solve_started.wait, 60.0
                )
                # A signal-style drain while the solve holds a worker:
                # the idle connection closes, the busy one is answered.
                daemon.request_shutdown()
                serving = asyncio.ensure_future(daemon.serve_until_shutdown())
                seen["eof"] = await loop.run_in_executor(
                    None, reads_eof, idle
                )
                release_solve.set()
                seen["reply"], seen["closed_after_reply"] = (
                    await asyncio.wait_for(solving, timeout=60.0)
                )
                await asyncio.wait_for(serving, timeout=5.0)
            finally:
                release_solve.set()
                idle.close()

        asyncio.run(main())
        assert seen["eof"] is True
        assert seen["reply"]["result"]["status"] == "ok"
        assert seen["reply"]["cache"] == "miss"
        # Answered during the drain, the connection then closes rather
        # than wait for another request (3.12 would wait for it).
        assert seen["closed_after_reply"] is True
