"""Chaos at the socket: transport faults against a *real* daemon.

Marker ``service_chaos`` (its own CI job, also part of tier-1).  Where
``tests/supervise/test_chaos_props.py`` injects faults into solver
evaluations, this suite injects them into the transport -- torn NDJSON
lines, connections dropped mid-request, stalled writes, and ``SIGKILL``
between the journal write and the response -- and asserts the daemon
shrugs, the retrying client converges, and the in-flight journal loses
nothing.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.batch.jobs import spec_fingerprint
from repro.service import (
    InflightJournal,
    RetryPolicy,
    ServiceClient,
    solve_request_to_jobspec,
)
from repro.service.journal import FORMAT as JOURNAL_FORMAT
from repro.supervise.chaos import TransportChaosPolicy
from tests.service.test_daemon import PROGRAM

pytestmark = pytest.mark.service_chaos

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..", "src")
)
BOOT_TIMEOUT_S = 30.0


def slow_program(loops: int = 600) -> str:
    """A program whose cold solve takes on the order of a second --
    a wide-open window for killing the daemon mid-request."""
    body = ["int main() {", "  int i; int s; int t;", "  s = 0; t = 0;"]
    for k in range(loops):
        body += [
            "  i = 0;",
            f"  while (i < {10 + (k % 7)}) {{",
            "    t = t + i;",
            "    i = i + 1;",
            "    s = s + 1;",
            "  }",
        ]
    body += ["  return s;", "}"]
    return "\n".join(body)


def spawn_daemon(tmp_path, *extra_args):
    socket_path = str(tmp_path / "daemon.sock")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            *extra_args,
        ],
        env={
            **os.environ,
            "PYTHONPATH": os.pathsep.join(
                p for p in (SRC, os.environ.get("PYTHONPATH")) if p
            ),
        },
        stdout=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT_S
    while time.monotonic() < deadline:
        if os.path.exists(socket_path):
            return process, socket_path
        if process.poll() is not None:
            pytest.fail(f"daemon exited early with code {process.returncode}")
        time.sleep(0.05)
    pytest.fail(f"daemon did not bind {socket_path} in {BOOT_TIMEOUT_S}s")


def stop_daemon(process, socket_path):
    if process.poll() is None:
        try:
            with ServiceClient(socket_path=socket_path, timeout=60.0) as c:
                c.shutdown()
        except Exception:
            process.terminate()
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - teardown
        process.kill()


class TestTornLines:
    def test_truncated_request_does_not_wedge_the_daemon(self, tmp_path):
        process, socket_path = spawn_daemon(tmp_path)
        try:
            # A raw client dies mid-line: bytes, no newline, EOF.
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(socket_path)
            raw.sendall(b'{"op": "solve", "source": "int ma')
            raw.close()

            # The daemon records the disconnect and keeps serving.
            with ServiceClient(socket_path=socket_path, timeout=30.0) as c:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    status = c.status()
                    if status["requests"]["disconnected"] >= 1:
                        break
                    time.sleep(0.02)
                assert status["requests"]["disconnected"] >= 1
                assert c.ping()["ok"] is True
        finally:
            stop_daemon(process, socket_path)

    def test_stalled_connection_trips_the_read_deadline(self, tmp_path):
        process, socket_path = spawn_daemon(tmp_path, "--read-timeout", "0.2")
        try:
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.settimeout(30.0)
            raw.connect(socket_path)
            raw.sendall(b'{"op": "ping"')  # ...and then silence.
            buffered = b""
            while b"\n" not in buffered:
                chunk = raw.recv(65536)
                assert chunk, "connection closed before the timeout reply"
                buffered += chunk
            reply = json.loads(buffered.split(b"\n", 1)[0])
            assert reply["ok"] is False
            assert reply["code"] == "timeout"
            # The deadline also closes the connection: EOF follows.
            assert raw.recv(65536) == b""
            raw.close()

            with ServiceClient(socket_path=socket_path, timeout=30.0) as c:
                assert c.status()["requests"]["stalled"] >= 1
        finally:
            stop_daemon(process, socket_path)


class TestChaoticClient:
    def test_client_faults_converge_against_a_real_daemon(self, tmp_path):
        process, socket_path = spawn_daemon(tmp_path)
        try:
            # Drop/truncate only: every fired fault costs exactly one
            # retry (stalls merely delay), so the ledger must balance.
            chaos = TransportChaosPolicy(
                seed=42, rate=0.5, kinds=("drop", "truncate"), max_faults=4
            )
            client = ServiceClient(
                socket_path=socket_path,
                timeout=60.0,
                retry=RetryPolicy(attempts=8, base_delay=0.01, max_delay=0.1),
                chaos=chaos,
            )
            with client:
                for _ in range(6):
                    assert client.solve(PROGRAM)["result"]["status"] == "ok"
            assert chaos.fired >= 1  # the faults really happened
            assert client.retries == chaos.fired
            assert client.attempts_total == 6 + chaos.fired
        finally:
            stop_daemon(process, socket_path)


class TestCrashRecovery:
    def test_sigkill_mid_request_loses_no_journaled_request(self, tmp_path):
        journal_path = str(tmp_path / "journal.ndjson")
        cache_path = str(tmp_path / "cache.json")
        args = (
            "--journal-file",
            journal_path,
            "--cache-file",
            cache_path,
        )
        process, socket_path = spawn_daemon(tmp_path, *args)
        source = slow_program()

        # Fire the solve and SIGKILL the daemon as soon as its journal
        # holds the whole begin record, newline included (a torn line is
        # skipped on replay) -- deterministically before the reply, since
        # the solve itself takes orders of magnitude longer.
        client = ServiceClient(
            socket_path=socket_path, timeout=120.0, retry=RetryPolicy(attempts=1)
        )
        failure = []

        def submit():
            try:
                client.solve(source)
                failure.append("reply arrived before the kill")
            except Exception:
                pass  # the kill severs the connection; expected

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if os.path.exists(journal_path) and re.search(
                r'"event":"begin"[^\n]*\n', Path(journal_path).read_text()
            ):
                break
            time.sleep(0.002)
        else:
            pytest.fail("journal begin record never appeared")
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
        thread.join(timeout=60)
        assert not failure, failure[0]

        # SIGKILL left a stale socket file behind; clear it so the boot
        # poll below observes the *new* daemon's bind, not the corpse.
        if os.path.exists(socket_path):
            os.unlink(socket_path)

        # Restart on the same journal: the interrupted request is
        # requeued and its result lands in the cache.
        process, socket_path = spawn_daemon(tmp_path, *args)
        try:
            with ServiceClient(socket_path=socket_path, timeout=120.0) as c:
                status = c.status()
                assert status["journal"]["recovered"] == 1
                # The retried request is answered from the recovered
                # work -- a coalesce while the replay is executing, then
                # a cache hit -- never lost.
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    reply = c.solve(source)
                    if reply["cache"] == "hit":
                        break
                    time.sleep(0.1)
                assert reply["cache"] == "hit"
                assert c.status()["requests"]["requeued"] == 1
                assert c.status()["journal"]["open"] == 0
        finally:
            stop_daemon(process, socket_path)

    def test_synthetic_crash_journal_is_replayed(self, tmp_path):
        # The deterministic half: hand-craft the journal a crashed
        # daemon would leave behind, then boot on it.
        journal_path = str(tmp_path / "journal.ndjson")
        message = {"op": "solve", "source": PROGRAM, "id": "lost-1"}
        spec, _ = solve_request_to_jobspec(message)
        journal = InflightJournal(journal_path)
        journal.begin("r-lost", "solve", spec_fingerprint(spec), message)
        journal._stream.close()  # crash: no settle, no compaction

        with open(journal_path) as handle:
            assert json.loads(handle.readline())["format"] == JOURNAL_FORMAT

        process, socket_path = spawn_daemon(
            tmp_path, "--journal-file", journal_path
        )
        try:
            with ServiceClient(socket_path=socket_path, timeout=120.0) as c:
                deadline = time.monotonic() + 60.0
                while time.monotonic() < deadline:
                    status = c.status()
                    if status["requests"].get("requeued", 0) == 1:
                        break
                    time.sleep(0.05)
                assert status["requests"]["requeued"] == 1
                assert status["journal"]["recovered"] == 1
                assert status["journal"]["open"] == 0
                # The replayed request's result is already cached.
                reply = c.solve(PROGRAM)
                assert reply["cache"] == "hit"
                assert reply["served_evaluations"] == 0
        finally:
            stop_daemon(process, socket_path)
