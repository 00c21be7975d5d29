"""Process-level supervision for the analysis daemon.

:class:`RestartSupervisor` keeps a daemon process alive across crashes:
``repro serve --supervise`` runs the daemon as a child process and
respawns it whenever it dies abnormally, with exponential restart
backoff and a bounded restart budget so a daemon that crashes on start
cannot flap forever.

The division of labour with :mod:`repro.supervise` is deliberate: that
package supervises a *solver run* inside one process (deadlines,
budgets, escalation); this module supervises the *process* itself --
the only defence against faults no in-process watchdog survives, such
as ``SIGKILL`` or an interpreter abort.  Crash-safety of the requests
that were in flight at the kill is the in-flight journal's job
(:mod:`.journal`): the respawned daemon replays it on start.

A clean exit (code 0 -- a graceful drain) stops the supervisor; so does
a forwarded ``SIGINT``/``SIGTERM``, which the supervisor relays to the
child so the drain semantics are unchanged.  Runs that stay up at least
``stable_after`` seconds reset the restart budget, distinguishing a
crash loop from occasional faults spread over a long service life.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from typing import Callable, List, Optional, Sequence


class RestartSupervisor:
    """Respawn a child command until it exits cleanly.

    :param command: the child argv (e.g. ``[sys.executable, "-m",
        "repro", "serve", "--socket", ...]``).
    :param max_restarts: consecutive abnormal exits tolerated before
        giving up and propagating the child's exit code.
    :param base_backoff: first restart delay in seconds; doubles per
        consecutive crash up to ``max_backoff``.
    :param max_backoff: restart delay ceiling in seconds.
    :param stable_after: a run surviving this many seconds resets the
        consecutive-crash count (it was not a crash loop).
    :param spawn: process launcher, injectable for tests; must return
        an object with ``wait()``, ``send_signal(sig)`` and ``pid``.
    :param sleep: delay function, injectable for tests.
    :param clock: monotonic time source, injectable for tests.
    """

    def __init__(
        self,
        command: Sequence[str],
        max_restarts: int = 5,
        base_backoff: float = 0.5,
        max_backoff: float = 10.0,
        stable_after: float = 30.0,
        spawn: Optional[Callable] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        if base_backoff < 0 or max_backoff < 0:
            raise ValueError("backoff delays must be non-negative")
        self.command = list(command)
        self.max_restarts = max_restarts
        self.base_backoff = base_backoff
        self.max_backoff = max_backoff
        self.stable_after = stable_after
        self._spawn = spawn if spawn is not None else subprocess.Popen
        self._sleep = sleep
        self._clock = clock
        #: Total respawns performed across the supervisor's lifetime.
        self.restarts = 0
        #: ``(exit_code, uptime_seconds)`` per finished child run.
        self.history: List[tuple] = []
        self._consecutive = 0
        self._stopping = False
        self._child = None

    def _note(self, message: str) -> None:
        print(f"supervise: {message}", file=sys.stderr, flush=True)

    def _relay(self, signum, frame) -> None:  # pragma: no cover - signals
        self._stopping = True
        child = self._child
        if child is not None:
            try:
                child.send_signal(signum)
            except (ProcessLookupError, OSError):
                pass

    def stop(self, sig: int = signal.SIGTERM) -> None:
        """Stop supervising: signal the child and exit after it dies.

        The fleet's :class:`~repro.fleet.manager.ShardManager` uses this
        to tear down shards whose graceful drain failed; it is also the
        programmatic equivalent of the relayed ``SIGTERM``.
        """
        self._stopping = True
        child = self._child
        if child is not None:
            try:
                child.send_signal(sig)
            except (ProcessLookupError, OSError):
                pass

    def backoff_delay(self, consecutive: int) -> float:
        """The delay before restart number ``consecutive`` (1-based)."""
        return min(
            self.max_backoff,
            self.base_backoff * (2 ** max(0, consecutive - 1)),
        )

    def run(self) -> int:
        """Run the child until it exits cleanly or the budget is spent.

        Returns the final child exit code (0 after a graceful drain).
        """
        previous = {}
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                previous[sig] = signal.signal(sig, self._relay)
        except ValueError:  # pragma: no cover - non-main thread (tests)
            previous = {}
        try:
            while True:
                started = self._clock()
                self._child = self._spawn(self.command)
                try:
                    code = self._child.wait()
                except KeyboardInterrupt:  # pragma: no cover - Ctrl-C race
                    self._stopping = True
                    code = self._child.wait()
                uptime = self._clock() - started
                self._child = None
                self.history.append((code, uptime))
                if code == 0 or self._stopping:
                    return code
                if uptime >= self.stable_after:
                    self._consecutive = 0
                self._consecutive += 1
                if self._consecutive > self.max_restarts:
                    self._note(
                        f"daemon exited with code {code}; giving up after "
                        f"{self._consecutive - 1} consecutive restarts"
                    )
                    return code
                delay = self.backoff_delay(self._consecutive)
                self.restarts += 1
                self._note(
                    f"daemon exited with code {code} after {uptime:.1f}s; "
                    f"restart {self._consecutive}/{self.max_restarts} "
                    f"in {delay:.1f}s"
                )
                self._sleep(delay)
        finally:
            for sig, handler in previous.items():
                signal.signal(sig, handler)


#: The per-daemon options of ``repro serve``, by argparse destination:
#: each is replayed as ``--<name with dashes> VALUE`` when set.
DAEMON_OPTIONS = (
    "workers", "cache_entries", "cache_ttl", "cache_file", "deadline",
    "warm_ratio", "log_file", "queue_high", "queue_low", "max_connections",
    "shed_retry_ms", "read_timeout", "journal_file", "shared_dir",
)


def option_flags(args, names: Sequence[str] = DAEMON_OPTIONS) -> List[str]:
    """The ``repro serve`` flags replaying the options ``names`` set in
    the parsed namespace ``args``."""
    argv = []
    for name in names:
        value = getattr(args, name, None)
        if value is not None:
            argv += ["--" + name.replace("_", "-"), str(value)]
    return argv


def serve_command(args) -> List[str]:
    """The child argv replaying a parsed ``repro serve`` invocation.

    Reconstructs the ``serve`` command line from the parsed namespace,
    *without* ``--supervise`` -- the child must run the daemon directly.
    """
    argv = [sys.executable, "-m", "repro", "serve"]
    if args.socket is not None:
        argv += ["--socket", args.socket]
    if args.port is not None:
        argv += ["--host", args.host, "--port", str(args.port)]
    return argv + option_flags(args)
