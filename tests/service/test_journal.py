"""Unit tests for the crash-safe in-flight journal."""

from __future__ import annotations

import json

import pytest

from repro.service import InflightJournal
from repro.service.journal import FORMAT


def read_lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


@pytest.fixture
def open_journal():
    """Open journals like ``InflightJournal(...)``; close them all at
    teardown, so no test leaves its journal file open."""
    opened = []

    def factory(*args, **kwargs):
        journal = InflightJournal(*args, **kwargs)
        opened.append(journal)
        return journal

    yield factory
    for journal in opened:
        journal.close()


class TestDisabled:
    def test_every_operation_is_a_no_op(self):
        journal = InflightJournal(path=None)
        journal.begin("r1", "solve", "k1", {"op": "solve"})
        journal.settle("r1")
        journal.close()
        assert not journal.enabled
        assert len(journal) == 0
        assert journal.stats()["begun"] == 0

    def test_rejects_bad_compact_every(self):
        with pytest.raises(ValueError):
            InflightJournal(compact_every=0)


class TestBeginSettle:
    def test_begin_is_durable_before_settle(self, tmp_path, open_journal):
        path = str(tmp_path / "journal.ndjson")
        journal = open_journal(path)
        journal.begin("r1", "solve", "k1", {"op": "solve", "source": "x"})
        # The begin record is on disk *now*, not at close.
        records = read_lines(path)
        assert len(records) == 1
        assert records[0]["event"] == "begin"
        assert records[0]["format"] == FORMAT
        assert records[0]["rid"] == "r1"
        assert records[0]["key"] == "k1"
        assert records[0]["message"] == {"op": "solve", "source": "x"}
        assert len(journal) == 1

        journal.settle("r1")
        records = read_lines(path)
        assert [r["event"] for r in records] == ["begin", "end"]
        assert len(journal) == 0

    def test_settle_of_unknown_rid_is_ignored(self, tmp_path, open_journal):
        journal = open_journal(str(tmp_path / "j.ndjson"))
        journal.settle("never-begun")
        assert journal.settled == 0

    def test_clean_close_leaves_an_empty_file(self, tmp_path, open_journal):
        path = str(tmp_path / "journal.ndjson")
        journal = open_journal(path)
        journal.begin("r1", "solve", "k1", {})
        journal.settle("r1")
        journal.close()
        assert read_lines(path) == []
        journal.close()  # idempotent


class TestRecovery:
    def test_unsettled_begins_are_recovered(self, tmp_path, open_journal):
        path = str(tmp_path / "journal.ndjson")
        first = open_journal(path)
        first.begin("done", "solve", "k1", {"id": "done"})
        first.settle("done")
        first.begin("lost", "solve", "k2", {"id": "lost"})
        # Simulate SIGKILL: no settle, no close, just drop the handle.
        first._stream.close()

        second = open_journal(path)
        assert [r["rid"] for r in second.recovered] == ["lost"]
        assert second.recovered[0]["message"] == {"id": "lost"}
        # The recovered begin is still journaled as open.
        assert len(second) == 1

    def test_recovery_compacts_but_keeps_unsettled_begins(self, tmp_path, open_journal):
        path = str(tmp_path / "journal.ndjson")
        first = open_journal(path)
        for index in range(5):
            first.begin(f"r{index}", "solve", "k", {})
            first.settle(f"r{index}")
        first.begin("lost", "solve", "k", {})
        first._stream.close()

        second = open_journal(path)
        # Compacted to exactly the unsettled begin -- a crash during
        # recovery itself would still find it on disk.
        records = read_lines(path)
        assert [r["rid"] for r in records] == ["lost"]
        second.settle("lost")
        assert len(second) == 0

    def test_torn_trailing_line_is_tolerated(self, tmp_path, open_journal):
        path = str(tmp_path / "journal.ndjson")
        first = open_journal(path)
        first.begin("whole", "solve", "k", {})
        first._stream.close()
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"format": "repro-service-jour')  # died mid-write

        second = open_journal(path)
        assert [r["rid"] for r in second.recovered] == ["whole"]

    def test_missing_file_recovers_to_empty(self, tmp_path, open_journal):
        journal = open_journal(str(tmp_path / "absent.ndjson"))
        assert journal.recovered == []
        assert journal.enabled


class TestCompaction:
    def test_idle_journal_compacts_after_enough_lines(self, tmp_path, open_journal):
        path = str(tmp_path / "journal.ndjson")
        journal = open_journal(path, compact_every=4)
        for index in range(2):
            journal.begin(f"r{index}", "solve", "k", {})
            journal.settle(f"r{index}")
        assert journal.compactions == 1
        assert read_lines(path) == []
        # Post-compaction writes land in the fresh file.
        journal.begin("r9", "solve", "k", {})
        assert [r["rid"] for r in read_lines(path)] == ["r9"]

    def test_busy_journal_does_not_compact(self, tmp_path, open_journal):
        journal = open_journal(str(tmp_path / "j.ndjson"), compact_every=2)
        journal.begin("held", "solve", "k", {})
        journal.begin("r1", "solve", "k", {})
        journal.settle("r1")
        # Three lines written, but "held" is still open: no compaction.
        assert journal.compactions == 0


class TestStats:
    def test_stats_schema(self, tmp_path, open_journal):
        journal = open_journal(str(tmp_path / "j.ndjson"))
        journal.begin("r1", "solve", "k", {})
        assert journal.stats() == {
            "enabled": True,
            "open": 1,
            "begun": 1,
            "settled": 0,
            "recovered": 0,
            "compactions": 0,
        }
