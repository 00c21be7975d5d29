"""The socket layer both servers share: path hygiene and line handling.

A crashed daemon leaves a socket file nothing listens on; a restart
must clear it and bind (the historical ``Address already in use``
failure).  A *live* daemon's socket must never be unlinked, and a
non-socket file at the path is somebody else's data -- refuse.

The daemon and the fleet router read request lines in one connection
loop: lines up to ``MAX_LINE_BYTES`` cross either server in both
directions, and stalled, over-long, torn and blank lines are answered,
counted and logged alike at both.
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import socket
import stat
import threading

import pytest

from repro.service import (
    MAX_LINE_BYTES,
    NO_RETRY,
    AnalysisDaemon,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    SocketInUseError,
    encode,
    prepare_socket_path,
    socket_is_live,
)
from tests.service.test_daemon import PROGRAM


def make_stale_socket(path: str) -> None:
    """Leave behind exactly what a SIGKILL'd daemon leaves: the file."""
    corpse = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    corpse.bind(path)
    corpse.close()  # closed without unlink: nobody accepts here
    assert stat.S_ISSOCK(os.stat(path).st_mode)


class TestPrepareSocketPath:
    def test_missing_path_is_a_noop(self, tmp_path):
        path = str(tmp_path / "never-existed.sock")
        assert prepare_socket_path(path) is False
        assert not os.path.exists(path)

    def test_stale_socket_is_removed(self, tmp_path):
        path = str(tmp_path / "stale.sock")
        make_stale_socket(path)
        assert not socket_is_live(path)
        assert prepare_socket_path(path) is True
        assert not os.path.exists(path)

    def test_live_listener_is_refused(self, tmp_path):
        path = str(tmp_path / "live.sock")
        server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        server.bind(path)
        server.listen(1)
        try:
            assert socket_is_live(path)
            with pytest.raises(SocketInUseError) as info:
                prepare_socket_path(path)
            assert info.value.errno == errno.EADDRINUSE
            assert info.value.path == path
            # The live daemon's address was not stolen.
            assert os.path.exists(path)
        finally:
            server.close()

    def test_non_socket_file_is_never_deleted(self, tmp_path):
        path = str(tmp_path / "precious.txt")
        with open(path, "w", encoding="utf-8") as f:
            f.write("not yours")
        with pytest.raises(OSError) as info:
            prepare_socket_path(path)
        assert not isinstance(info.value, SocketInUseError)
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as f:
            assert f.read() == "not yours"


class TestDaemonRestartAfterCrash:
    def test_daemon_binds_over_a_crashed_predecessors_socket(
        self, tmp_path
    ):
        path = str(tmp_path / "daemon.sock")
        make_stale_socket(path)
        daemon = AnalysisDaemon(ServiceConfig(socket_path=path, workers=1))
        replies = {}

        def scenario(address):
            with ServiceClient(socket_path=address[1]) as client:
                replies["ping"] = client.ping()

        async def main():
            await daemon.start()
            task = asyncio.ensure_future(daemon.serve_until_shutdown())
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(None, scenario, daemon.address)
            finally:
                daemon.request_shutdown()
                await task

        asyncio.run(main())
        assert daemon.stale_socket_removed is True
        assert replies["ping"]["ok"] is True

    def test_daemon_refuses_a_live_siblings_socket(self, tmp_path):
        path = str(tmp_path / "daemon.sock")
        first = AnalysisDaemon(ServiceConfig(socket_path=path, workers=1))
        second = AnalysisDaemon(ServiceConfig(socket_path=path, workers=1))

        async def main():
            await first.start()
            task = asyncio.ensure_future(first.serve_until_shutdown())
            try:
                with pytest.raises(SocketInUseError):
                    await second.start()
            finally:
                first.request_shutdown()
                await task

        asyncio.run(main())
        assert first.stale_socket_removed is False


# --------------------------------------------------------------------- #
# The server core: one connection loop for the daemon and the router.   #
# --------------------------------------------------------------------- #

#: The two servers behind a client's socket: a daemon, or a fleet router
#: in front of one shard daemon.
SERVERS = ("daemon", "router")


def serve(kind, tmp_path, scenario, read_timeout=None):
    """Run ``scenario(front socket path)`` on a thread against ``kind``.

    The front server logs to ``tmp_path / "front.log"`` and applies
    ``read_timeout``; a router's shard applies none.  Returns the front
    server after its drain, with every exception the event loop reported
    in its ``loop_errors``.
    """
    from repro.fleet import RouterConfig, RouterDaemon

    log_path = str(tmp_path / "front.log")
    daemon = AnalysisDaemon(
        ServiceConfig(
            socket_path=str(tmp_path / "daemon.sock"),
            workers=1,
            read_timeout=read_timeout if kind == "daemon" else None,
            log_path=log_path if kind == "daemon" else None,
        )
    )
    servers = [daemon]
    if kind == "router":
        servers.append(
            RouterDaemon(
                RouterConfig(
                    socket_path=str(tmp_path / "router.sock"),
                    shards=(("shard0", daemon.config.socket_path),),
                    health_interval=None,
                    read_timeout=read_timeout,
                    log_path=log_path,
                )
            )
        )
    front = servers[-1]
    front.loop_errors = []

    async def main():
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(
            lambda _, context: front.loop_errors.append(context)
        )
        for server in servers:
            await server.start()
        tasks = [
            asyncio.ensure_future(server.serve_until_shutdown())
            for server in servers
        ]
        try:
            await loop.run_in_executor(
                None, scenario, front.config.socket_path
            )
        finally:
            for server, task in reversed(list(zip(servers, tasks))):
                server.request_shutdown()
                await task

    asyncio.run(main())
    return front


def exchange(path: str, payload: bytes) -> dict:
    """Send ``payload`` on a new connection; the first reply line, once
    the server has closed the connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(path)

        def send():
            try:
                sock.sendall(payload)
            except OSError:
                pass  # the server answered and closed before the end

        sender = threading.Thread(target=send)
        sender.start()
        received = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                received += chunk
        except ConnectionResetError:
            pass  # closed with unread request bytes: the reply came first
        sender.join(timeout=30.0)
    return json.loads(received.split(b"\n", 1)[0])


def torn(path: str, payload: bytes) -> None:
    """Send ``payload`` without a newline, end the request side, and
    wait until the server closes the connection."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.settimeout(30.0)
        sock.connect(path)
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        assert sock.recv(65536) == b""


def log_records(tmp_path) -> list:
    """The front server's request-log records, without their timestamps."""
    with open(tmp_path / "front.log", encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    for record in records:
        del record["ts"]
    return records


def divisions(count: int) -> str:
    """A program with ``count`` divisions by a parameter that may be 0."""
    body = "\n".join(f"    x = x + {k} / n;" for k in range(count))
    return f"int main(int n) {{\n    int x = 0;\n{body}\n    return x;\n}}\n"


#: asyncio's default stream limit, below the protocol's MAX_LINE_BYTES.
ASYNCIO_LIMIT = 64 * 1024


class TestLineLimit:
    """Lines up to ``MAX_LINE_BYTES`` cross both servers both ways."""

    @pytest.mark.parametrize("kind", SERVERS)
    def test_request_line_above_64_kib_is_served(self, kind, tmp_path):
        source = PROGRAM + "// " + "x" * ASYNCIO_LIMIT + "\n"
        assert len(encode({"op": "solve", "source": source})) > ASYNCIO_LIMIT
        replies = {}

        def scenario(path):
            with ServiceClient(socket_path=path, retry=NO_RETRY) as client:
                replies["cold"] = client.solve(source)
                replies["hit"] = client.solve(source)

        front = serve(kind, tmp_path, scenario)
        assert replies["cold"]["cache"] == "miss"
        assert replies["cold"]["result"]["status"] == "ok"
        assert replies["hit"]["cache"] == "hit"
        assert front.loop_errors == []

    @pytest.mark.parametrize("kind", SERVERS)
    def test_reply_line_above_64_kib_is_delivered(self, kind, tmp_path):
        replies = {}

        def scenario(path):
            with ServiceClient(socket_path=path, retry=NO_RETRY) as client:
                replies["check"] = client.check(divisions(400))

        front = serve(kind, tmp_path, scenario)
        reply = replies["check"]
        assert len(encode(reply)) > ASYNCIO_LIMIT
        assert reply["result"]["status"] == "findings"
        assert reply["result"]["findings"] == 400
        assert front.loop_errors == []

    def test_shard_reply_above_the_limit_gets_an_error_reply(self, tmp_path):
        """A reply line the router cannot read answers ``bad-request``."""
        from repro.fleet import RouterConfig, RouterDaemon

        shard_path = str(tmp_path / "shard.sock")
        router = RouterDaemon(
            RouterConfig(
                socket_path=str(tmp_path / "router.sock"),
                shards=(("shard0", shard_path),),
                health_interval=None,
            )
        )
        caught = {}

        async def oversized(reader, writer):
            await reader.readline()
            try:
                writer.write(b"x" * (MAX_LINE_BYTES + 1) + b"\n")
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                pass  # the router stopped reading at the limit
            finally:
                writer.close()

        def scenario():
            with ServiceClient(
                socket_path=router.config.socket_path, retry=NO_RETRY
            ) as client:
                with pytest.raises(ServiceError) as info:
                    client.solvers()
                caught["error"] = info.value

        async def main():
            shard = await asyncio.start_unix_server(oversized, path=shard_path)
            await router.start()
            serving = asyncio.ensure_future(router.serve_until_shutdown())
            try:
                await asyncio.get_running_loop().run_in_executor(
                    None, scenario
                )
            finally:
                router.request_shutdown()
                await serving
                shard.close()
                await shard.wait_closed()

        asyncio.run(main())
        assert caught["error"].code == "bad-request"
        assert f"exceeds {MAX_LINE_BYTES} bytes" in str(caught["error"])
        assert router.counters["errors"] == 1


class TestConnectionBehaviour:
    """Stalled, over-long, torn and blank lines, at either server."""

    @pytest.mark.parametrize("kind", SERVERS)
    def test_both_servers_answer_count_and_log_alike(self, kind, tmp_path):
        replies = {}

        def scenario(path):
            replies["stalled"] = exchange(path, b"")
            replies["long"] = exchange(
                path, b"x" * (MAX_LINE_BYTES + 1) + b"\n"
            )
            torn(path, b'{"op": "ping"')
            replies["blank"] = exchange(
                path, b"\n  \n" + encode({"op": "shutdown"})
            )

        front = serve(kind, tmp_path, scenario, read_timeout=1.0)
        assert replies["stalled"]["code"] == "timeout"
        assert "1s read deadline" in replies["stalled"]["error"]
        assert replies["long"]["code"] == "bad-request"
        assert replies["long"]["error"] == "request line too long"
        # Blank lines are skipped: the first reply answers the request.
        assert replies["blank"]["op"] == "shutdown"
        rid = "r000001" if kind == "daemon" else "f000001"
        assert replies["blank"]["request"] == rid
        assert front.counters["total"] == 1
        assert front.counters["stalled"] == 1
        assert front.counters["disconnected"] == 1
        assert front.counters["errors"] == 1
        assert log_records(tmp_path) == [
            {"request": "-", "op": "?", "outcome": "stalled", "peer": "unix"},
            {
                "request": "-",
                "op": "?",
                "outcome": "error",
                "error": "request line too long",
                "peer": "unix",
            },
            {
                "request": "-",
                "op": "?",
                "outcome": "disconnected",
                "peer": "unix",
                "partial_bytes": 13,
            },
            {"request": rid, "op": "shutdown", "outcome": "drained"},
        ]
        assert front.loop_errors == []
