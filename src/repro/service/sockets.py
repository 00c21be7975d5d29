"""Socket plumbing shared by the daemon and the fleet router.

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
"""

from __future__ import annotations

import asyncio
import errno
import os
import socket
import stat
from typing import Optional, Set

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
