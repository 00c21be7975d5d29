"""Router end-to-end: an in-process fleet over real UNIX sockets.

Each test boots N :class:`AnalysisDaemon` shards plus a
:class:`RouterDaemon` front inside one ``asyncio.run``, then drives a
stock synchronous :class:`ServiceClient` at the *router* socket from a
worker thread -- the router must be indistinguishable from a daemon to
every existing client.  Downed shards are simulated by configuring a
shard on the ring without starting its daemon.
"""

from __future__ import annotations

import asyncio
import socket
import sys
import threading
import time

import pytest

from repro.batch.jobs import spec_fingerprint
from repro.fleet import RouterConfig, RouterDaemon
from repro.service import (
    NO_RETRY,
    AnalysisDaemon,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceOverloadedError,
)
from repro.service import daemon as daemon_module
from repro.service.executor import execute_service_job
from repro.service.protocol import solve_request_to_jobspec
from tests.service.test_drain import reads_eof

PROGRAM = """
int main() {
  int i;
  int s;
  i = 0;
  s = 0;
  while (i < 10) {
    s = s + 2;
    i = i + 1;
  }
  return s;
}
"""
EDITED = PROGRAM.replace("i < 10", "i < 12")


def build_fleet(tmp_path, shards=3, read_timeout=None, shard_timeout=60.0):
    """A router over ``shards`` daemons; ``read_timeout`` is the fleet's
    ``--read-timeout``, given to every shard and to the router."""
    shared = str(tmp_path / "shared")
    daemons = {}
    for i in range(shards):
        shard_id = f"shard{i}"
        daemons[shard_id] = AnalysisDaemon(
            ServiceConfig(
                socket_path=str(tmp_path / f"{shard_id}.sock"),
                workers=1,
                shared_dir=shared,
                read_timeout=read_timeout,
            )
        )
    router = RouterDaemon(
        RouterConfig(
            socket_path=str(tmp_path / "front.sock"),
            shards=tuple(
                (sid, d.config.socket_path) for sid, d in daemons.items()
            ),
            health_interval=None,  # probes on demand in tests
            shard_timeout=shard_timeout,
            read_timeout=read_timeout,
        )
    )
    return router, daemons


def run_fleet(
    tmp_path, scenario, shards=3, start=None, fleet=None, **fleet_options
):
    """Boot a fleet, run ``scenario(front_socket)`` on a thread.

    ``start`` names the shards actually started; the rest stay
    configured-but-dead (the router sees connection refusals).
    ``fleet`` is a ``(router, daemons)`` pair from :func:`build_fleet`;
    without one, ``shards`` and ``fleet_options`` build it.
    """
    router, daemons = fleet or build_fleet(
        tmp_path, shards=shards, **fleet_options
    )
    live = [
        d for sid, d in daemons.items() if start is None or sid in start
    ]

    async def main():
        for daemon in live:
            await daemon.start()
        await router.start()
        shard_tasks = [
            asyncio.ensure_future(d.serve_until_shutdown()) for d in live
        ]
        front = asyncio.ensure_future(router.serve_until_shutdown())
        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(
                None, scenario, router.config.socket_path
            )
        finally:
            router.request_shutdown()
            await front
            for daemon in live:
                daemon.request_shutdown()
            await asyncio.gather(*shard_tasks)

    asyncio.run(main())
    return router, daemons


def owner_of(router: RouterDaemon, program: str) -> str:
    """The shard the router will pick for ``program`` (same math)."""
    spec, _ = solve_request_to_jobspec({"op": "solve", "source": program})
    return router.ring.lookup(spec_fingerprint(spec))


def program_owned_by(router: RouterDaemon, shard_id: str, invert=False):
    """A program variant whose ring owner is (or is not) ``shard_id``."""
    return programs_owned_by(router, shard_id, 1, invert=invert)[0]


def programs_owned_by(router, shard_id, count, invert=False):
    """``count`` distinct program variants owned (or not) by ``shard_id``."""
    found = []
    for bound in range(10, 400):
        candidate = PROGRAM.replace("i < 10", f"i < {bound}")
        owned = owner_of(router, candidate) == shard_id
        if owned != invert:
            found.append(candidate)
            if len(found) == count:
                return found
    raise AssertionError("no variant found -- ring badly skewed?")


def expected_hash(program: str, **options) -> str:
    """The cold solution hash of ``program``, solved in this process."""
    spec, _ = solve_request_to_jobspec(
        {"op": "solve", "source": program, **options}
    )
    return execute_service_job(spec).result.to_json()["hash"]


class TestRouting:
    def test_miss_hit_warm_through_the_router(self, tmp_path):
        replies = {}

        def scenario(front):
            with ServiceClient(socket_path=front) as client:
                assert client.ping()["role"] == "router"
                replies["cold"] = client.solve(PROGRAM)
                replies["hit"] = client.solve(PROGRAM)
                replies["warm"] = client.solve(EDITED)

        router, _ = run_fleet(tmp_path, scenario)
        cold, hit, warm = replies["cold"], replies["hit"], replies["warm"]
        assert cold["cache"] == "miss" and cold["served_evaluations"] > 0
        # Deterministic placement: the resubmission lands on the same
        # shard and is a zero-work cache hit.
        assert hit["cache"] == "hit" and hit["served_evaluations"] == 0
        assert hit["result"]["hash"] == cold["result"]["hash"]
        # The edit warm-starts -- via the shard's local cache when both
        # landed together, via the shared store when they split.
        assert warm["cache"] == "warm"
        assert warm["warm_donor"] == cold["key"]
        assert 0 < warm["served_evaluations"] < cold["served_evaluations"]
        assert router.counters["forwarded"] == 3
        assert router.counters["unavailable"] == 0

    def test_requests_spread_across_shards(self, tmp_path):
        programs = [
            PROGRAM.replace("i < 10", f"i < {bound}")
            for bound in range(10, 26)
        ]

        def scenario(front):
            with ServiceClient(socket_path=front) as client:
                for program in programs:
                    assert client.solve(program)["result"]["status"] == "ok"

        router, _ = run_fleet(tmp_path, scenario)
        used = {
            link.shard_id
            for link in router.shards.values()
            if link.forwarded > 0
        }
        assert len(used) >= 2, "16 distinct programs all on one shard"

    def test_bad_requests_are_rejected_at_the_front(self, tmp_path):
        def scenario(front):
            with ServiceClient(socket_path=front, retry=NO_RETRY) as client:
                with pytest.raises(ServiceError, match="solver"):
                    client.solve(PROGRAM, solver="no-such-solver")

        router, daemons = run_fleet(tmp_path, scenario)
        # Normalization failed before placement: nothing was forwarded.
        assert router.counters["forwarded"] == 0
        assert router.counters["errors"] == 1

    def test_solvers_catalogue_is_forwarded(self, tmp_path):
        names = {}

        def scenario(front):
            with ServiceClient(socket_path=front) as client:
                names["solvers"] = client.solvers()

        run_fleet(tmp_path, scenario)
        assert any(s.get("name") for s in names["solvers"])


class TestFailover:
    def test_dead_owner_fails_over_to_the_ring_successor(self, tmp_path):
        router_probe, _ = build_fleet(tmp_path / "probe")
        victim = "shard2"
        program = program_owned_by(router_probe, victim)
        replies = {}

        def scenario(front):
            with ServiceClient(socket_path=front) as client:
                replies["r"] = client.solve(program)

        live = {"shard0", "shard1"}
        router, _ = run_fleet(tmp_path, scenario, start=live)
        assert replies["r"]["result"]["status"] == "ok"
        assert router.counters["failovers"] >= 1
        assert router.counters["forwarded"] == 1
        assert not router.shards[victim].healthy
        assert router.shards[victim].failures >= 1

    def test_all_shards_down_is_unavailable(self, tmp_path):
        caught = {}

        def scenario(front):
            with ServiceClient(
                socket_path=front, retry=NO_RETRY, timeout=10.0
            ) as client:
                with pytest.raises(ServiceOverloadedError) as info:
                    client.solve(PROGRAM)
                caught["error"] = info.value

        router, _ = run_fleet(tmp_path, scenario, start=set())
        assert router.counters["unavailable"] == 1
        assert "no shard reachable" in str(caught["error"])

    def test_probe_marks_dead_and_recovered_shards(self, tmp_path):
        router, daemons = build_fleet(tmp_path, shards=2)

        async def main():
            d0 = daemons["shard0"]
            await d0.start()
            task = asyncio.ensure_future(d0.serve_until_shutdown())
            try:
                assert await router.probe_shards() == 1
                assert router.shards["shard0"].healthy
                assert not router.shards["shard1"].healthy
                # shard1 comes up: the next probe restores it.
                d1 = daemons["shard1"]
                await d1.start()
                task1 = asyncio.ensure_future(d1.serve_until_shutdown())
                assert await router.probe_shards() == 2
                assert router.shards["shard1"].healthy
            finally:
                # Teardown: close the probes' pooled connections.
                router.request_shutdown()
                await router.serve_until_shutdown()
            for daemon, t in ((d0, task), (d1, task1)):
                daemon.request_shutdown()
                await t

        asyncio.run(main())


class TestConnectionPool:
    """Forwards reuse idle router-to-shard connections.

    ``ShardLink.connects`` counts the connections a link has opened; a
    router that connected per forward would open one per request.
    """

    def test_sequential_solves_reuse_one_connection(self, tmp_path):
        router_probe, _ = build_fleet(tmp_path / "probe")
        programs = programs_owned_by(router_probe, "shard1", 20)
        replies = {}

        def scenario(front):
            with ServiceClient(socket_path=front) as client:
                for program in programs:
                    assert client.solve(program)["result"]["status"] == "ok"
                replies["status"] = client.status()

        router, _ = run_fleet(tmp_path, scenario)
        owner = router.shards["shard1"]
        assert owner.forwarded == 20
        assert owner.connects == 1
        rows = {r["id"]: r for r in replies["status"]["fleet"]["per_shard"]}
        # ``status`` asks every shard once: the owner on its pooled
        # connection, the others on one new connection each.
        assert rows["shard1"]["forwarded"] == 20
        assert rows["shard1"]["connects"] == 1
        assert rows["shard0"]["forwarded"] == 0
        assert rows["shard0"]["connects"] == 1
        # Closing the router closed its pool.
        assert all(not link.idle for link in router.shards.values())

    def test_restarted_shard_is_retried_on_a_new_connection(self, tmp_path):
        router, daemons = build_fleet(tmp_path)
        program = program_owned_by(router, "shard0")
        replies = {}

        async def main():
            loop = asyncio.get_running_loop()
            serving = {}
            for sid, daemon in daemons.items():
                await daemon.start()
                serving[sid] = asyncio.ensure_future(
                    daemon.serve_until_shutdown()
                )
            await router.start()
            front = asyncio.ensure_future(router.serve_until_shutdown())

            async def restart_shard0():
                # Same socket, new daemon: the router's idle connection
                # to the old one is closed by its drain.
                old = daemons["shard0"]
                old.request_shutdown()
                await serving["shard0"]
                daemons["shard0"] = AnalysisDaemon(old.config)
                await daemons["shard0"].start()
                serving["shard0"] = asyncio.ensure_future(
                    daemons["shard0"].serve_until_shutdown()
                )

            def scenario():
                with ServiceClient(socket_path=router.config.socket_path) as c:
                    replies["first"] = c.solve(program)
                    asyncio.run_coroutine_threadsafe(
                        restart_shard0(), loop
                    ).result(timeout=30.0)
                    replies["second"] = c.solve(program)

            try:
                await loop.run_in_executor(None, scenario)
            finally:
                router.request_shutdown()
                await front
                for sid, daemon in daemons.items():
                    daemon.request_shutdown()
                await asyncio.gather(*serving.values())

        asyncio.run(main())
        assert replies["first"]["cache"] == "miss"
        # The new daemon answered (from the shared store): no failover.
        assert replies["second"]["result"]["hash"] == (
            replies["first"]["result"]["hash"]
        )
        assert daemons["shard0"].counters["solve"] == 1
        assert router.counters["failovers"] == 0
        assert router.shards["shard0"].connects == 2
        assert router.shards["shard0"].healthy

    def test_connection_idle_past_the_read_deadline_is_not_reused(
        self, tmp_path
    ):
        router_probe, _ = build_fleet(tmp_path / "probe")
        program = program_owned_by(router_probe, "shard0")
        replies = {}

        def scenario(front):
            # The router enforces the same 0.3 s deadline on its own
            # clients, so each request brings a new client connection.
            with ServiceClient(socket_path=front, retry=NO_RETRY) as c:
                replies["first"] = c.solve(program)
            time.sleep(0.5)  # shard0 has timed out the idle connection
            with ServiceClient(socket_path=front, retry=NO_RETRY) as c:
                replies["second"] = c.solve(program)

        router, _ = run_fleet(tmp_path, scenario, read_timeout=0.3)
        assert replies["second"]["cache"] == "hit"
        assert replies["second"]["result"]["hash"] == (
            replies["first"]["result"]["hash"]
        )
        assert router.counters["failovers"] == 0
        assert router.shards["shard0"].connects == 2

    def test_connection_idle_half_the_read_deadline_is_replaced(
        self, tmp_path
    ):
        router_probe, _ = build_fleet(tmp_path / "probe")
        program = program_owned_by(router_probe, "shard0")
        replies = {}

        def scenario(front):
            with ServiceClient(socket_path=front, retry=NO_RETRY) as c:
                replies["first"] = c.solve(program)
            # Idle past half the 2 s deadline: shard0 would still serve
            # the connection, but it may time it out at any moment.
            time.sleep(1.1)
            with ServiceClient(socket_path=front, retry=NO_RETRY) as c:
                replies["second"] = c.solve(program)

        router, _ = run_fleet(tmp_path, scenario, read_timeout=2.0)
        assert replies["second"]["cache"] == "hit"
        assert router.counters["failovers"] == 0
        assert router.shards["shard0"].connects == 2

    def test_concurrent_forwards_keep_their_own_replies(self, tmp_path):
        clients, per_client = 8, 25
        programs = {
            f"c{c}-r{r}": PROGRAM.replace(
                "i < 10", f"i < {10 + c * per_client + r}"
            )
            for c in range(clients)
            for r in range(per_client)
        }
        # A budget of its own puts each request in its own warm-donor
        # group, so every one is solved cold, like its expected hash.
        budget = {rid: 1_000_000 + n for n, rid in enumerate(programs)}
        expected = {
            rid: expected_hash(p, max_evals=budget[rid])
            for rid, p in programs.items()
        }
        replies = {}
        errors = []

        def client_thread(front, c):
            try:
                with ServiceClient(socket_path=front) as client:
                    for r in range(per_client):
                        rid = f"c{c}-r{r}"
                        replies[rid] = client.solve(
                            programs[rid], id=rid, max_evals=budget[rid]
                        )
            except Exception as err:  # reported below
                errors.append(err)

        def scenario(front):
            threads = [
                threading.Thread(target=client_thread, args=(front, c))
                for c in range(clients)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # interleave the clients densely
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)

        router, _ = run_fleet(tmp_path, scenario)
        assert errors == []
        assert set(replies) == set(programs)
        for rid, reply in replies.items():
            assert reply["id"] == rid
            assert reply["result"]["hash"] == expected[rid]
        for link in router.shards.values():
            # Never more connections than concurrent forwards.
            assert link.connects <= clients
        assert sum(link.forwarded for link in router.shards.values()) == 200
        assert router.counters["failovers"] == 0

    def test_timed_out_forward_does_not_return_its_connection(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()
        gated = []
        real_execute = daemon_module.execute_service_job

        def gated_execute(spec, donors=(), **kwargs):
            if not gated:  # only the first execution blocks
                gated.append(spec)
                assert release.wait(timeout=60.0)
            return real_execute(spec, donors, **kwargs)

        monkeypatch.setattr(
            daemon_module, "execute_service_job", gated_execute
        )
        replies = {}
        router, daemons = build_fleet(tmp_path, shards=1, shard_timeout=1.0)
        shard = daemons["shard0"]

        def scenario(front):
            try:
                with ServiceClient(
                    socket_path=front, retry=NO_RETRY, timeout=30.0
                ) as client:
                    with pytest.raises(ServiceOverloadedError) as info:
                        client.solve(PROGRAM, id="slow")
                    replies["slow"] = info.value.code
                    release.set()
                    # The shard answers the timed-out request late, on
                    # the connection the router closed.
                    deadline = time.monotonic() + 60.0
                    while shard.counters["miss"] < 1:
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                    replies["next"] = client.solve(PROGRAM, id="next")
            finally:
                release.set()

        run_fleet(tmp_path, scenario, fleet=(router, daemons))
        assert replies["slow"] == "unavailable"
        assert replies["next"]["id"] == "next"
        assert replies["next"]["result"]["hash"] == expected_hash(PROGRAM)
        assert router.shards["shard0"].connects == 2

    def test_forward_in_flight_at_shutdown_is_answered_not_pooled(
        self, tmp_path, monkeypatch
    ):
        started = threading.Event()
        release = threading.Event()
        real_execute = daemon_module.execute_service_job

        def gated_execute(spec, donors=(), **kwargs):
            started.set()
            assert release.wait(timeout=60.0)
            return real_execute(spec, donors, **kwargs)

        monkeypatch.setattr(
            daemon_module, "execute_service_job", gated_execute
        )
        router, daemons = build_fleet(tmp_path, shards=1)
        shard = daemons["shard0"]
        seen = {}

        async def main():
            await shard.start()
            await router.start()
            serving = asyncio.ensure_future(shard.serve_until_shutdown())
            loop = asyncio.get_running_loop()

            def solve():
                with ServiceClient(socket_path=router.config.socket_path) as c:
                    return c.solve(PROGRAM)

            try:
                solving = loop.run_in_executor(None, solve)
                assert await loop.run_in_executor(None, started.wait, 60.0)
                router.request_shutdown()
                front = asyncio.ensure_future(router.serve_until_shutdown())
                release.set()
                seen["reply"] = await asyncio.wait_for(solving, timeout=60.0)
                await asyncio.wait_for(front, timeout=5.0)
                seen["idle"] = len(router.shards["shard0"].idle)
            finally:
                release.set()
                shard.request_shutdown()
                await asyncio.wait_for(serving, timeout=5.0)

        asyncio.run(main())
        assert seen["reply"]["result"]["status"] == "ok"
        # The forward ended after the drain began: its connection was
        # closed, not put back into a pool nobody will close.
        assert seen["idle"] == 0

    def test_shutdown_closes_an_idle_client_connection(self, tmp_path):
        router, daemons = build_fleet(tmp_path, shards=1)
        shard = daemons["shard0"]
        seen = {}

        async def main():
            await shard.start()
            await router.start()
            serving = asyncio.ensure_future(shard.serve_until_shutdown())
            loop = asyncio.get_running_loop()
            path = router.config.socket_path
            idle = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                idle.connect(path)

                def shut_down():
                    with ServiceClient(socket_path=path) as client:
                        client.solve(PROGRAM)
                        client.shutdown()

                await loop.run_in_executor(None, shut_down)
                await asyncio.wait_for(
                    router.serve_until_shutdown(), timeout=5.0
                )
                seen["eof"] = await loop.run_in_executor(
                    None, reads_eof, idle
                )
                # The router closed its pool, so the shard drains too.
                shard.request_shutdown()
                await asyncio.wait_for(serving, timeout=5.0)
            finally:
                idle.close()

        asyncio.run(main())
        assert seen["eof"] is True
        assert not router.shards["shard0"].idle


class TestFleetStatus:
    def test_status_aggregates_and_exposes_the_fleet_section(self, tmp_path):
        replies = {}

        def scenario(front):
            with ServiceClient(socket_path=front) as client:
                client.solve(PROGRAM)
                client.solve(PROGRAM)
                replies["status"] = client.status()

        run_fleet(tmp_path, scenario, shards=3, start={"shard0", "shard1"})
        status = replies["status"]
        assert status["role"] == "router"
        # Summed shard counters keep the existing schema alive.
        assert status["requests"]["miss"] == 1
        assert status["requests"]["hit"] == 1
        fleet = status["fleet"]
        assert fleet["shards"] == 3
        assert fleet["healthy"] == 2
        assert fleet["ring"]["version"] == 3
        assert fleet["ring"]["shards"] == 3
        assert isinstance(fleet["shared"], dict)
        rows = {row["id"]: row for row in fleet["per_shard"]}
        assert set(rows) == {"shard0", "shard1", "shard2"}
        assert rows["shard2"]["healthy"] is False
        assert rows["shard2"]["pid"] is None
        live_rows = [rows["shard0"], rows["shard1"]]
        assert all(isinstance(r["pid"], int) for r in live_rows)
        assert sum(r["forwarded"] for r in live_rows) == 2

    def test_router_rejects_an_empty_fleet(self, tmp_path):
        with pytest.raises(ValueError):
            RouterDaemon(
                RouterConfig(socket_path=str(tmp_path / "front.sock"))
            )
        with pytest.raises(ValueError):
            RouterDaemon(
                RouterConfig(
                    socket_path=str(tmp_path / "front.sock"),
                    shards=(("a", "x.sock"), ("a", "y.sock")),
                )
            )


class TestSharedAcrossShards:
    """Cross-shard reuse through the shared store, no router involved:
    two sequential daemons over one shared directory stand in for two
    shards (or one fleet before and after a restart)."""

    def run_daemon(self, tmp_path, name, scenario):
        daemon = AnalysisDaemon(
            ServiceConfig(
                socket_path=str(tmp_path / f"{name}.sock"),
                workers=1,
                shared_dir=str(tmp_path / "shared"),
            )
        )

        async def main():
            await daemon.start()
            task = asyncio.ensure_future(daemon.serve_until_shutdown())
            loop = asyncio.get_running_loop()
            try:
                await loop.run_in_executor(
                    None, scenario, daemon.config.socket_path
                )
            finally:
                daemon.request_shutdown()
                await task

        asyncio.run(main())
        return daemon

    def test_exact_hit_from_a_siblings_result(self, tmp_path):
        replies = {}

        def first(sock):
            with ServiceClient(socket_path=sock) as client:
                replies["cold"] = client.solve(PROGRAM)

        def second(sock):
            with ServiceClient(socket_path=sock) as client:
                replies["hot"] = client.solve(PROGRAM)

        self.run_daemon(tmp_path, "a", first)
        other = self.run_daemon(tmp_path, "b", second)
        # Daemon B never solved this program, yet serves it as a hit
        # promoted from the shared index -- zero solver work.
        assert replies["hot"]["cache"] == "hit"
        assert replies["hot"]["served_evaluations"] == 0
        assert replies["hot"]["result"]["hash"] == (
            replies["cold"]["result"]["hash"]
        )
        assert other.counters["shared_hit"] == 1

    def test_warm_start_from_a_siblings_donor(self, tmp_path):
        replies = {}

        def first(sock):
            with ServiceClient(socket_path=sock) as client:
                replies["cold"] = client.solve(PROGRAM)

        def second(sock):
            with ServiceClient(socket_path=sock) as client:
                replies["warm"] = client.solve(EDITED)

        self.run_daemon(tmp_path, "a", first)
        other = self.run_daemon(tmp_path, "b", second)
        warm = replies["warm"]
        assert warm["cache"] == "warm"
        assert warm["warm_donor"] == replies["cold"]["key"]
        assert warm["served_evaluations"] < (
            replies["cold"]["served_evaluations"]
        )
        assert other.counters["shared_warm"] == 1
        assert other.counters["shared_hit"] == 0
