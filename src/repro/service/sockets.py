"""The socket layer of the analysis daemon and the fleet router.

**Path hygiene.**

A daemon that dies without draining (SIGKILL, interpreter abort, power
loss) leaves its socket *file* behind -- a filesystem entry nothing
listens on.  The naive restart behaviours are both wrong:

* binding anyway fails with ``Address already in use`` (the historical
  failure this module removes), turning every crash into a manual
  ``rm`` before the supervisor's respawn can succeed;
* unlinking unconditionally *steals the address from a live daemon*,
  silently splitting clients between two processes that share nothing.

:func:`prepare_socket_path` does the only safe thing: **probe first**.
A short connect attempt distinguishes a live listener (somebody
accepts) from a stale corpse (``ECONNREFUSED``/``ENOENT``); only the
corpse is unlinked, and a live listener raises a clear
:class:`SocketInUseError` naming the offending path.

**Request lines.**  :class:`RequestLines` reads each connection's next
request line under the read deadline and knows which connections are
idle, waiting for one.  A drain closes those before awaiting
``Server.wait_closed()``, which from Python 3.12.1 on waits for every
open connection: one idle client would otherwise hold the drain open.

**The server core.**  :class:`LineServer` is everything the daemon and
the router share: listening, the connection loop, the dispatch head
that mints request ids, and the lifecycle from ``start`` to the close
sequence.  Lines are read up to :data:`~repro.service.protocol.
MAX_LINE_BYTES`, not asyncio's 64 KiB default.
"""

from __future__ import annotations

import asyncio
import errno
import os
import signal
import socket
import stat
import time
from typing import Callable, Dict, Optional, Sequence, Set, Tuple, Union

from repro.service.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode,
    encode,
    error_response,
    request_operation,
)
from repro.service.reqlog import RequestLog

#: How long the liveness probe waits for a connect, in seconds.  Local
#: UNIX-socket accepts are effectively instant; anything slower than
#: this is either dead or so wedged it should be treated as dead.
PROBE_TIMEOUT_S = 0.5


class SocketInUseError(OSError):
    """The socket path is owned by a *live* listener; refusing to bind."""

    def __init__(self, path: str) -> None:
        super().__init__(
            errno.EADDRINUSE,
            f"socket {path!r} is owned by a live daemon; stop it (or "
            f"point this one at a different --socket path)",
        )
        self.path = path


def socket_is_live(path: str, timeout: float = PROBE_TIMEOUT_S) -> bool:
    """Whether something currently accepts connections on ``path``."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    probe.settimeout(timeout)
    try:
        probe.connect(path)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def prepare_socket_path(path: str) -> bool:
    """Make ``path`` bindable; returns whether a stale socket was removed.

    * nothing at the path: nothing to do;
    * a socket file nobody accepts on: a crashed predecessor's corpse,
      unlinked so the caller can bind;
    * a socket file with a live listener: :class:`SocketInUseError`;
    * a non-socket file: left alone, :class:`OSError` -- refusing to
      delete data that was never ours.
    """
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        return False
    if not stat.S_ISSOCK(mode):
        raise OSError(
            errno.EEXIST,
            f"{path!r} exists and is not a socket; refusing to remove it",
        )
    if socket_is_live(path):
        raise SocketInUseError(path)
    try:
        os.unlink(path)
    except FileNotFoundError:  # pragma: no cover - lost a benign race
        pass
    return True


class RequestLines:
    """The request-line reader of one server, aware of idle connections.

    :param read_timeout: seconds a connection may take to deliver its
        next complete line (``None``: wait forever); a lapse raises
        :class:`asyncio.TimeoutError` from :meth:`read`.
    """

    def __init__(self, read_timeout: Optional[float]) -> None:
        self.read_timeout = read_timeout
        #: Set by :meth:`close_idle`; later reads end the connection.
        self._closing = False
        self._waiting: Set[asyncio.StreamWriter] = set()

    async def read(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bytes:
        """The connection's next request line; ``b""`` ends it.

        While this waits the connection is idle, so a drain may close
        it; once the drain has begun, a connection that has just been
        answered gets ``b""`` instead of waiting for another request.
        """
        if self._closing:
            return b""
        self._waiting.add(writer)
        try:
            if self.read_timeout is None:
                return await reader.readline()
            return await asyncio.wait_for(
                reader.readline(), timeout=self.read_timeout
            )
        finally:
            self._waiting.discard(writer)

    def close_idle(self) -> None:
        """Close every connection waiting for a request line (a drain).

        Requests already being served are answered first; their
        connections close once they come back for the next line.
        """
        self._closing = True
        for writer in list(self._waiting):
            writer.close()


#: The reply to a request line longer than :data:`MAX_LINE_BYTES`.
LINE_TOO_LONG = "request line too long"


class LineServer:
    """The NDJSON server core of the analysis daemon and the fleet router.

    It listens on a UNIX socket (after the stale-socket probe) or on TCP,
    reads every connection's request lines, mints each request's id in
    the dispatch head and answers what is not a valid request there; a
    subclass answers the rest in :meth:`_handle`.  Connections that stall
    past the read deadline, send a line above the limit, end mid-line or
    vanish before their reply are handled, counted and logged here, the
    same way for both servers.

    :param log: the request log, closed by the close sequence.
    :param counters: names of the request counters the ``status`` op
        serves; ``total``, ``errors``, ``stalled`` and ``disconnected``
        must be among them.
    :param socket_path: UNIX socket path; ``None`` listens on TCP.
    """

    #: First character of the request ids this server mints.
    id_prefix = "r"

    def __init__(
        self,
        log: RequestLog,
        counters: Sequence[str],
        *,
        socket_path: Optional[str],
        read_timeout: Optional[float],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.log = log
        self.counters: Dict[str, int] = dict.fromkeys(counters, 0)
        self.started_at = time.time()
        #: Whether :meth:`start` removed a stale predecessor's socket.
        self.stale_socket_removed = False
        self._socket_path = socket_path
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._lines = RequestLines(read_timeout)
        self._seq = 0
        self._draining = False
        self._done = asyncio.Event()

    # ----------------------------------------------------------------- #
    # Lifecycle.                                                        #
    # ----------------------------------------------------------------- #

    @property
    def address(self) -> Tuple:
        """``("unix", path)``, or ``("tcp", host, port)`` once started."""
        if self._socket_path is not None:
            return ("unix", self._socket_path)
        host, port = self._server.sockets[0].getsockname()[:2]
        return ("tcp", host, port)

    async def start(self) -> None:
        """Bind the socket."""
        if self._socket_path is not None:
            # Probe before binding: unlink only a *stale* socket (a
            # crashed predecessor's corpse); a live listener raises
            # SocketInUseError instead of being hijacked.
            self.stale_socket_removed = prepare_socket_path(self._socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_client,
                path=self._socket_path,
                limit=MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client,
                host=self._host,
                port=self._port,
                limit=MAX_LINE_BYTES,
            )

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request or :meth:`request_shutdown`,
        then close: stop listening, close idle connections, let the
        subclass release what it holds, unlink the socket, close the log.
        """
        await self._done.wait()
        if self._server is not None:
            self._server.close()
            self._lines.close_idle()
            await self._server.wait_closed()
        await self._close()
        if self._socket_path is not None and os.path.exists(self._socket_path):
            os.unlink(self._socket_path)
        self.log.close()

    def request_shutdown(self) -> None:
        """Trigger a graceful drain from outside the protocol (signals)."""
        self._draining = True
        self._done.set()

    def run(self, ready: Callable[[], None]) -> None:
        """Serve in the foreground until ``shutdown``, SIGINT or SIGTERM.

        ``ready`` runs once the socket is bound.
        """

        async def main() -> None:
            loop = asyncio.get_running_loop()
            for sig in (signal.SIGINT, signal.SIGTERM):
                try:
                    loop.add_signal_handler(sig, self.request_shutdown)
                except (NotImplementedError, RuntimeError):  # pragma: no cover
                    pass  # non-UNIX loops; Ctrl-C still raises KeyboardInterrupt
            await self.start()
            ready()
            await self.serve_until_shutdown()

        asyncio.run(main())

    async def _close(self) -> None:
        """Release what the subclass holds, once the server is closed."""

    # ----------------------------------------------------------------- #
    # Connections.                                                      #
    # ----------------------------------------------------------------- #

    def _connect(self) -> Optional[dict]:
        """Admit a new connection (``None``), or the reply refusing it."""
        return None

    def _disconnect(self) -> None:
        """An admitted connection has closed."""

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        refusal = self._connect()
        try:
            if refusal is None:
                await self._serve_lines(reader, writer)
            else:
                writer.write(encode(refusal))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if refusal is None:
                self._disconnect()
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # Peer went away, or the loop is tearing down around us
                # after a drain -- either way the connection is gone.
                pass

    async def _serve_lines(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one connection's request lines until it ends."""
        peer = str(writer.get_extra_info("peername") or "unix")
        while True:
            try:
                line = await self._lines.read(reader, writer)
            except asyncio.TimeoutError:
                # A stalled client: no complete request line within the
                # read deadline.  Answer, close, free the slot.
                self._lost("stalled", peer)
                writer.write(
                    encode(
                        error_response(
                            None,
                            f"no request line within the "
                            f"{self._lines.read_timeout:g}s read deadline",
                            code="timeout",
                        )
                    )
                )
                await writer.drain()
                return
            except ValueError:  # readline's LimitOverrunError
                self.counters["errors"] += 1
                self.log.log(
                    request="-", op="?", outcome="error",
                    error=LINE_TOO_LONG, peer=peer,
                )
                writer.write(encode(error_response(None, LINE_TOO_LONG)))
                await writer.drain()
                return
            if not line:
                return
            if not line.endswith(b"\n"):
                # EOF mid-line: the client died (or the connection was
                # cut) partway through writing a request.  There is
                # nothing well-formed to answer.
                self._lost("disconnected", peer, partial_bytes=len(line))
                return
            if not line.strip():
                continue
            rid, op, reply, close = await self._dispatch(line)
            try:
                writer.write(reply)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError):
                # The client vanished between request and reply; the
                # work is done (and cached) but unclaimed.
                self._lost("disconnected", peer, request=rid, op=op)
                return
            if close:
                return

    def _lost(
        self, outcome: str, peer: str, request: str = "-", op: str = "?",
        **fields,
    ) -> None:
        """Count and log a connection that ended without its answer."""
        self.counters[outcome] += 1
        self.log.log(
            request=request, op=op, outcome=outcome, peer=peer, **fields
        )

    # ----------------------------------------------------------------- #
    # Dispatch.                                                         #
    # ----------------------------------------------------------------- #

    async def _dispatch(self, line: bytes) -> Tuple[str, str, bytes, bool]:
        """Answer one request line: ``(request id, op, reply, close?)``.

        The head mints the request id and counts the request; a line
        that is not a valid request is answered ``bad-request`` here, any
        other by :meth:`_handle`.
        """
        self._seq += 1
        rid = f"{self.id_prefix}{self._seq:06d}"
        self.counters["total"] += 1
        try:
            message = decode(line)
            op = request_operation(message)
        except ProtocolError as err:
            return rid, "?", encode(self._bad_request(rid, None, err)), False
        reply, close = await self._handle(op, message, rid)
        if isinstance(reply, dict):
            reply = encode(reply)
        return rid, op, reply, close

    async def _handle(
        self, op: str, message: dict, rid: str
    ) -> Tuple[Union[dict, bytes], bool]:
        """Answer a valid request: a reply message (or an encoded reply
        line, passed on verbatim) and whether to close the connection."""
        raise NotImplementedError

    def _bad_request(
        self, rid: str, op: Optional[str], err: Exception
    ) -> dict:
        """Count, log and answer a request that is not valid."""
        self.counters["errors"] += 1
        self.log.log(request=rid, op=op or "?", outcome="error", error=str(err))
        return error_response(op, str(err), request=rid)
