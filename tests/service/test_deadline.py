"""Per-request deadlines: ``deadline_ms`` on the wire, exit-code-3
taxonomy in the reply, ``deadline`` outcome in the request log."""

from __future__ import annotations

import itertools
import json
import types

import pytest

from repro.service import ProtocolError, ServiceClient, solve_request_to_jobspec
from repro.supervise import watchdog
from tests.service.test_daemon import PROGRAM, run_scenario, unix_config


class TestProtocolField:
    def test_deadline_ms_converts_to_seconds(self):
        spec, _ = solve_request_to_jobspec(
            {"op": "solve", "source": PROGRAM, "deadline_ms": 1500}
        )
        assert spec.deadline == 1.5

    def test_deadline_ms_overrides_the_default(self):
        spec, _ = solve_request_to_jobspec(
            {"op": "solve", "source": PROGRAM, "deadline_ms": 250},
            default_deadline=60.0,
        )
        assert spec.deadline == 0.25

    def test_both_deadline_fields_is_an_error(self):
        with pytest.raises(ProtocolError, match="not both"):
            solve_request_to_jobspec(
                {
                    "op": "solve",
                    "source": PROGRAM,
                    "deadline": 1.0,
                    "deadline_ms": 1000,
                }
            )

    @pytest.mark.parametrize("bad", [0, -5, 1.5, True, "100"])
    def test_deadline_ms_must_be_a_positive_integer(self, bad):
        with pytest.raises(ProtocolError, match="deadline_ms"):
            solve_request_to_jobspec(
                {"op": "solve", "source": PROGRAM, "deadline_ms": bad}
            )


class TestDeadlineKill:
    def test_expired_deadline_reports_the_divergence_taxonomy(
        self, tmp_path, monkeypatch
    ):
        # The watchdog's clock advances a full second per reading, so a
        # 1 ms deadline has passed by the first evaluation of every
        # escalation attempt, however fast the machine solves.
        ticks = itertools.count(start=0.0, step=1.0)
        monkeypatch.setattr(
            watchdog, "time", types.SimpleNamespace(monotonic=ticks.__next__)
        )
        log_path = tmp_path / "requests.ndjson"
        replies = {}

        def scenario(address):
            with ServiceClient(socket_path=address[1]) as client:
                replies["killed"] = client.solve(PROGRAM, deadline_ms=1)
                replies["status"] = client.status()

        daemon = run_scenario(
            unix_config(tmp_path, log_path=str(log_path)), scenario
        )

        killed = replies["killed"]
        # Divergence taxonomy: status "divergence", exit code 3, and the
        # failure kind names the deadline specifically.
        assert killed["result"]["status"] == "divergence"
        assert killed["result"]["code"] == 3
        assert killed["failure"] == "deadline"
        assert daemon.counters["deadline"] == 1

        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
            if line.strip()
        ]
        kills = [r for r in records if r["outcome"] == "deadline"]
        assert len(kills) == 1
        assert kills[0]["failure"] == "deadline"
        assert kills[0]["code"] == 3

    def test_generous_deadline_does_not_interfere(self, tmp_path):
        replies = {}

        def scenario(address):
            with ServiceClient(socket_path=address[1]) as client:
                replies["ok"] = client.solve(PROGRAM, deadline_ms=60_000)

        run_scenario(unix_config(tmp_path), scenario)
        assert replies["ok"]["result"]["status"] == "ok"
        assert "failure" not in replies["ok"]
