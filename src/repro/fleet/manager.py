"""Shard lifecycle: spawn, supervise, drain N analysis daemons.

The fleet's scaling unit is a whole *process* -- a stock ``repro
serve`` daemon on its own UNIX socket -- because processes are what
sidestep the GIL and what the batch farm's crash-isolation experience
says actually fail independently.  :class:`ShardManager` owns those
processes:

* each shard runs under its own
  :class:`~repro.service.supervisor.RestartSupervisor` (on a thread, N
  supervisors side by side), so a crashed shard respawns with backoff
  exactly like ``repro serve --supervise`` would;
* each shard gets its own **in-flight journal**, so a SIGKILL'd shard's
  admitted requests are re-executed into the cache by its replacement
  -- the fleet-wide no-lost-requests story is the per-shard journal
  story, N times;
* every shard points at the same **shared store** directory
  (:class:`~repro.fleet.store.SharedStore`), which is what makes warm
  donors and results fleet-wide;
* **drain** asks every shard for a graceful shutdown (exit 0 stops its
  supervisor) and joins the supervisor threads.

:func:`serve_fleet` is the composition ``repro serve --shards N`` runs:
spawn the shards, wait until they answer pings, run the
:class:`~repro.fleet.router.RouterDaemon` in the foreground, and drain
the shards once the router exits.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.ring import DEFAULT_REPLICAS
from repro.fleet.router import RouterConfig, RouterDaemon
from repro.service.client import NO_RETRY, ServiceClient, ServiceError
from repro.service.supervisor import RestartSupervisor

#: How long :meth:`ShardManager.wait_ready` waits for the fleet to boot.
DEFAULT_BOOT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class ShardPlan:
    """Everything needed to spawn and address one shard."""

    shard_id: str
    socket_path: str
    argv: Tuple[str, ...]


@dataclass
class FleetConfig:
    """One fleet: a front socket, N shards, one shared directory.

    ``run_dir`` holds everything the fleet writes (shard sockets,
    journals, logs, the shared store) so one directory is the whole
    operational footprint; it defaults to ``<socket_path>.fleet``.
    """

    #: The router's front socket.
    socket_path: str
    #: Number of shard daemons.
    shards: int = 3
    #: Worker threads per shard daemon.
    workers: int = 1
    #: Runtime directory; ``None``: ``<socket_path>.fleet``.
    run_dir: Optional[str] = None
    #: Shared-store directory; ``None``: ``<run_dir>/shared``.
    shared_dir: Optional[str] = None
    #: Virtual nodes per shard on the router's ring.
    replicas: int = DEFAULT_REPLICAS
    #: Router health-probe cadence, seconds.
    health_interval: Optional[float] = 2.0
    #: Per-forward deadline against a shard, seconds.
    shard_timeout: float = 600.0
    #: Consecutive-crash budget per shard supervisor.
    max_restarts: int = 5
    #: Default per-request deadline handed to every shard, seconds.
    default_deadline: Optional[float] = None
    #: Local cache entries per shard.
    cache_entries: int = 256
    #: Admission high watermark per shard.
    queue_high: int = 32
    #: Read deadline per connection, seconds: every shard's and the
    #: router's (see :attr:`RouterConfig.read_timeout`).
    read_timeout: Optional[float] = None
    #: Extra argv appended to every shard command (tests use this).
    extra_shard_args: Tuple[str, ...] = ()
    #: Router request log; ``None`` disables it.
    log_path: Optional[str] = None

    def resolved_run_dir(self) -> str:
        return self.run_dir or f"{self.socket_path}.fleet"

    def resolved_shared_dir(self) -> str:
        return self.shared_dir or os.path.join(
            self.resolved_run_dir(), "shared"
        )


def shard_plans(config: FleetConfig) -> List[ShardPlan]:
    """The per-shard spawn plans for a fleet configuration.

    Shard ids are stable (``shard0..shardN-1``) so ring placement and
    the shared store survive restarts; each shard gets its own socket,
    journal and request log under the run directory, and all of them
    share one store directory.
    """
    if config.shards < 1:
        raise ValueError("a fleet needs at least one shard")
    run_dir = config.resolved_run_dir()
    shared = config.resolved_shared_dir()
    plans = []
    for index in range(config.shards):
        shard_id = f"shard{index}"
        socket_path = os.path.join(run_dir, f"{shard_id}.sock")
        argv = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            socket_path,
            "--workers",
            str(config.workers),
            "--cache-entries",
            str(config.cache_entries),
            "--queue-high",
            str(config.queue_high),
            "--shared-dir",
            shared,
            "--journal-file",
            os.path.join(run_dir, f"{shard_id}.journal"),
            "--log-file",
            os.path.join(run_dir, f"{shard_id}.log"),
        ]
        if config.default_deadline is not None:
            argv += ["--deadline", str(config.default_deadline)]
        if config.read_timeout is not None:
            argv += ["--read-timeout", str(config.read_timeout)]
        argv += list(config.extra_shard_args)
        plans.append(ShardPlan(shard_id, socket_path, tuple(argv)))
    return plans


class ShardManager:
    """Spawn and supervise one fleet's shard processes.

    :param plans: the shards to run (see :func:`shard_plans`).
    :param max_restarts: per-shard consecutive-crash budget.
    :param env: environment for the children; defaults to the parent's
        with ``PYTHONPATH`` guaranteed to reach this ``repro`` package
        (children must import the same code the parent runs).
    """

    def __init__(
        self,
        plans: Sequence[ShardPlan],
        max_restarts: int = 5,
        env: Optional[Dict[str, str]] = None,
    ) -> None:
        if not plans:
            raise ValueError("a fleet needs at least one shard")
        self.plans = list(plans)
        if env is None:
            import repro

            src = os.path.dirname(os.path.dirname(os.path.abspath(
                repro.__file__
            )))
            env = dict(os.environ)
            parts = [src] + (
                env.get("PYTHONPATH", "").split(os.pathsep)
                if env.get("PYTHONPATH")
                else []
            )
            env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(parts))
        self._env = env
        self.supervisors: Dict[str, RestartSupervisor] = {}
        self._threads: List[threading.Thread] = []
        for plan in self.plans:
            directory = os.path.dirname(plan.socket_path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            self.supervisors[plan.shard_id] = RestartSupervisor(
                plan.argv,
                max_restarts=max_restarts,
                spawn=self._spawn,
            )

    def _spawn(self, command):
        import subprocess

        return subprocess.Popen(
            command,
            env=self._env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    # ----------------------------------------------------------------- #
    # Lifecycle.                                                        #
    # ----------------------------------------------------------------- #

    def start(self) -> None:
        """Spawn every shard under its supervisor thread."""
        if self._threads:
            raise RuntimeError("the fleet is already running")
        for plan in self.plans:
            thread = threading.Thread(
                target=self.supervisors[plan.shard_id].run,
                name=f"supervise-{plan.shard_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def wait_ready(self, timeout: float = DEFAULT_BOOT_TIMEOUT_S) -> None:
        """Block until every shard answers a ping.

        :raises TimeoutError: naming the shards still unreachable.
        """
        deadline = time.monotonic() + timeout
        waiting = {plan.shard_id: plan for plan in self.plans}
        while waiting and time.monotonic() < deadline:
            for shard_id, plan in list(waiting.items()):
                if not os.path.exists(plan.socket_path):
                    continue
                try:
                    with ServiceClient(
                        socket_path=plan.socket_path,
                        timeout=2.0,
                        retry=NO_RETRY,
                    ) as client:
                        client.ping()
                    del waiting[shard_id]
                except ServiceError:
                    pass
            if waiting:
                time.sleep(0.05)
        if waiting:
            raise TimeoutError(
                f"shards not ready after {timeout:g}s: "
                f"{', '.join(sorted(waiting))}"
            )

    def drain(self, timeout: float = DEFAULT_BOOT_TIMEOUT_S) -> int:
        """Gracefully shut down every shard; returns how many drained.

        A drained shard exits 0, which stops its supervisor.  Shards
        that cannot be reached are stopped hard instead, so ``drain``
        always leaves no child processes behind.
        """
        drained = 0
        for plan in self.plans:
            try:
                with ServiceClient(
                    socket_path=plan.socket_path,
                    timeout=timeout,
                    retry=NO_RETRY,
                ) as client:
                    client.shutdown()
                drained += 1
            except ServiceError:
                self.supervisors[plan.shard_id].stop()
        for thread in self._threads:
            thread.join(timeout=timeout)
        self._threads = []
        return drained

    def stop(self) -> None:
        """Hard-stop every shard (SIGTERM) and join the supervisors."""
        for supervisor in self.supervisors.values():
            supervisor.stop()
        for thread in self._threads:
            thread.join(timeout=10.0)
        self._threads = []

    def restarts(self) -> Dict[str, int]:
        """Respawn counts per shard (crash visibility for status/tests)."""
        return {
            shard_id: supervisor.restarts
            for shard_id, supervisor in self.supervisors.items()
        }


def build_router(config: FleetConfig) -> RouterDaemon:
    """The router daemon for a fleet configuration."""
    plans = shard_plans(config)
    return RouterDaemon(
        RouterConfig(
            socket_path=config.socket_path,
            shards=tuple(
                (plan.shard_id, plan.socket_path) for plan in plans
            ),
            replicas=config.replicas,
            shard_timeout=config.shard_timeout,
            health_interval=config.health_interval,
            read_timeout=config.read_timeout,
            log_path=config.log_path,
        )
    )


def serve_fleet(config: FleetConfig) -> int:
    """Run a whole fleet in the foreground; ``repro serve --shards N``.

    Spawns the shards, waits for them, serves the router until a
    ``shutdown`` request or signal, then drains the shards.  Returns a
    CLI exit code.
    """
    os.makedirs(config.resolved_run_dir(), exist_ok=True)
    os.makedirs(config.resolved_shared_dir(), exist_ok=True)
    manager = ShardManager(
        shard_plans(config), max_restarts=config.max_restarts
    )
    router = build_router(config)
    manager.start()
    try:
        manager.wait_ready()
    except TimeoutError as err:
        print(f"error: {err}", file=sys.stderr)
        manager.stop()
        return 4

    def ready() -> None:
        print(
            f"fleet: {config.shards} shard(s) ready; router listening on "
            f"unix socket {config.socket_path}",
            flush=True,
        )
        if router.stale_socket_removed:
            print("router: removed a stale socket left by a crash", flush=True)

    try:
        router.run(ready)
    finally:
        drained = manager.drain()
        print(
            f"fleet stopped; {drained}/{config.shards} shard(s) drained "
            f"gracefully",
            flush=True,
        )
    return 0
