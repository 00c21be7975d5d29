"""Crash-safe in-flight request journal for the analysis daemon.

The daemon's contract is that an admitted request is answered -- but a
crashed process cannot answer anything, and before this journal existed
a SIGKILL mid-solve silently lost every in-flight request.  The journal
closes that hole with the cheapest durable structure there is: an
append-only NDJSON file, written at admission and settled at response.

* ``begin`` records carry the request id, content key, operation and
  the *full original message*, so an interrupted request is not merely
  reportable but **re-executable**: a restarted daemon can requeue it
  through the normal pipeline and land its result in the cache.
* ``end`` records settle a begin by request id.  The file is never
  edited in place -- crash-safety comes from append-only writes plus
  atomic whole-file compaction (:func:`repro.atomicfile.write_atomic`,
  as in :meth:`repro.service.cache.ResultCache.save`).

On open, the journal replays the file: begins without a matching end
are the requests a previous process died holding; they are surfaced via
:attr:`recovered` and *carried forward* into the compacted file, so a
crash during recovery itself still loses nothing.  A truncated trailing
line -- the normal signature of dying mid-write -- is tolerated and
ignored.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional

from repro.atomicfile import write_atomic

#: Format marker stamped into every record.
FORMAT = "repro-service-journal/1"

#: Settled lines accumulated before an idle journal is compacted.
COMPACT_EVERY = 512


class InflightJournal:
    """Append-only journal of admitted-but-unanswered requests.

    :param path: journal file; ``None`` disables journaling entirely
        (every operation becomes a no-op, so callers need no guards).
    :param compact_every: settled records to accumulate before the
        file is rewritten empty (only when nothing is in flight).
    """

    def __init__(
        self, path: Optional[str] = None, compact_every: int = COMPACT_EVERY
    ) -> None:
        if compact_every < 1:
            raise ValueError("compact_every must be at least 1")
        self.path = path
        self.compact_every = compact_every
        #: rid -> begin record still awaiting its end.
        self._open: Dict[str, dict] = {}
        #: Begin records a previous process never settled.
        self.recovered: List[dict] = []
        self.begun = 0
        self.settled = 0
        self.compactions = 0
        self._stream = None
        self._lines = 0
        if path is not None:
            self._recover()

    @property
    def enabled(self) -> bool:
        return self._stream is not None

    def __len__(self) -> int:
        """Requests currently journaled as in flight."""
        return len(self._open)

    # ----------------------------------------------------------------- #
    # Recovery and compaction.                                          #
    # ----------------------------------------------------------------- #

    def _recover(self) -> None:
        """Replay the file, collect unsettled begins, compact, reopen."""
        pending: Dict[str, dict] = {}
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError:
                        # A torn trailing line is how crashing mid-write
                        # looks; nothing before it is affected.
                        continue
                    if not isinstance(record, dict):
                        continue
                    rid = record.get("rid")
                    if record.get("event") == "begin" and rid:
                        pending[rid] = record
                    elif record.get("event") == "end" and rid:
                        pending.pop(rid, None)
        self.recovered = list(pending.values())
        # Compact to exactly the unsettled begins -- atomically, so a
        # crash here leaves either the old journal or the new one.
        self._rewrite(self.recovered)
        self._open = {r["rid"]: r for r in self.recovered}

    def _rewrite(self, records: List[dict]) -> None:
        """Atomically replace the file with ``records``, reopen append."""
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        write_atomic(self.path, "".join(map(self._dumps, records)))
        self._stream = open(self.path, "a", encoding="utf-8")
        self._lines = len(records)

    @staticmethod
    def _dumps(record: dict) -> str:
        return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"

    # ----------------------------------------------------------------- #
    # The admission/response protocol.                                  #
    # ----------------------------------------------------------------- #

    def begin(self, rid: str, op: str, key: str, message: dict) -> None:
        """Journal one admitted request before any work happens on it."""
        if self._stream is None:
            return
        record = {
            "format": FORMAT,
            "event": "begin",
            "rid": rid,
            "op": op,
            "key": key,
            "message": message,
            "ts": round(time.time(), 3),
        }
        self._open[rid] = record
        self._stream.write(self._dumps(record))
        self._stream.flush()
        self._lines += 1
        self.begun += 1

    def settle(self, rid: str) -> None:
        """The journaled request was answered (any outcome)."""
        if self._stream is None or rid not in self._open:
            return
        del self._open[rid]
        self._stream.write(
            self._dumps(
                {"event": "end", "rid": rid, "ts": round(time.time(), 3)}
            )
        )
        self._stream.flush()
        self._lines += 1
        self.settled += 1
        if not self._open and self._lines >= self.compact_every:
            self._rewrite([])
            self.compactions += 1

    # ----------------------------------------------------------------- #
    # Introspection and lifecycle.                                      #
    # ----------------------------------------------------------------- #

    def stats(self) -> dict:
        """Counters and occupancy, as served by the ``status`` op."""
        return {
            "enabled": self.enabled,
            "open": len(self._open),
            "begun": self.begun,
            "settled": self.settled,
            "recovered": len(self.recovered),
            "compactions": self.compactions,
        }

    def close(self) -> None:
        """Compact (when idle) and close; safe to call twice."""
        if self._stream is None:
            return
        if not self._open:
            self._rewrite([])
        self._stream.close()
        self._stream = None
