"""The fleet's shared warm-donor + result index: one directory, no locks.

Every shard process keeps its private in-memory LRU
(:class:`~repro.service.cache.ResultCache`), which is fast but invisible
to its siblings.  :class:`SharedStore` is the fleet-wide complement: an
on-disk index of verified results and their resume snapshots that *any*
shard can read and write concurrently -- so a warm-start donor produced
on shard 0 accelerates an edited resubmission that consistent-hashes
onto shard 2, and a fleet restarted from scratch answers its first
repeat request as a hit.

Consistency rules (see ``docs/fleet.md``):

* **entries are immutable and atomic** -- one JSON file per content key
  under ``entries/``, written via :func:`~repro.atomicfile.write_atomic`
  (as the cache index and the journal are), so a reader sees either a
  complete entry or none.  Keys are content addresses
  (:func:`~repro.batch.jobs.spec_fingerprint`), so two writers racing on
  one key are by construction writing equivalent verified results --
  last writer wins and nothing is corrupted;
* **discovery is marker-based** -- ``options/<options_fp>/<key>``
  marker files index entries by their options-only fingerprint (the
  warm-donor grouping).  A marker is only created *after* its entry
  file is fully in place, so discovery never yields a torn entry; a
  marker whose entry has since been pruned is skipped and reaped
  lazily;
* **no cross-process counters** -- hit/store counts are per-process
  (each daemon reports its own through ``status``; the router sums
  them).  The *files* are the shared truth, the numbers are telemetry.

The store is bounded by :meth:`prune` (drop the oldest entries beyond a
cap), which shards run opportunistically after writes.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Optional

from repro.atomicfile import write_atomic
from repro.service.cache import CacheEntry

#: Format marker stamped into every entry file.
FORMAT = "repro-fleet-store/1"

#: Default bound on stored entries (pruned oldest-first beyond it).
DEFAULT_MAX_ENTRIES = 4096


class SharedStore:
    """A multi-process warm-donor and result index rooted at ``root``.

    :param root: index directory (created on first use).
    :param max_entries: prune target for :meth:`prune`; opportunistic
        pruning after :meth:`put` keeps the store near this bound.
    :param ttl: entry lifetime in seconds (``None``: no expiry).
    """

    def __init__(
        self,
        root: str,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        ttl: Optional[float] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive")
        self.root = root
        self.max_entries = max_entries
        self.ttl = ttl
        self._entries_dir = os.path.join(root, "entries")
        self._options_dir = os.path.join(root, "options")
        os.makedirs(self._entries_dir, exist_ok=True)
        os.makedirs(self._options_dir, exist_ok=True)
        # Per-process telemetry (the files are the shared truth).
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.pruned = 0

    def __len__(self) -> int:
        return len(self._entry_keys())

    def __contains__(self, key: str) -> bool:
        return self.get(key, count=False) is not None

    # ----------------------------------------------------------------- #
    # Paths.                                                            #
    # ----------------------------------------------------------------- #

    def _entry_path(self, key: str) -> str:
        return os.path.join(self._entries_dir, f"{key}.json")

    def _marker_dir(self, options: str) -> str:
        return os.path.join(self._options_dir, options)

    def _entry_keys(self) -> List[str]:
        try:
            names = os.listdir(self._entries_dir)
        except FileNotFoundError:  # pragma: no cover - root removed
            return []
        return [n[:-5] for n in names if n.endswith(".json")]

    def _expired(self, entry: CacheEntry) -> bool:
        return self.ttl is not None and time.time() - entry.created > self.ttl

    # ----------------------------------------------------------------- #
    # Core operations.                                                  #
    # ----------------------------------------------------------------- #

    def get(self, key: str, count: bool = True) -> Optional[CacheEntry]:
        """The stored entry under ``key``; ``None`` when absent/expired."""
        try:
            with open(self._entry_path(key), "r", encoding="utf-8") as f:
                doc = json.load(f)
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            if count:
                self.misses += 1
            return None
        if not isinstance(doc, dict) or doc.get("format") != FORMAT:
            if count:
                self.misses += 1
            return None
        entry = CacheEntry.from_json(doc["entry"])
        if self._expired(entry):
            if count:
                self.misses += 1
            return None
        if count:
            self.hits += 1
        return entry

    def put(self, entry: CacheEntry) -> None:
        """Publish an entry fleet-wide: entry file first, marker second.

        The ordering is the consistency argument: a sibling that
        discovers the marker is guaranteed a complete entry file, and a
        crash between the two writes costs only discoverability (the
        exact-key path still serves it), never integrity.
        """
        payload = json.dumps(
            {"format": FORMAT, "entry": entry.to_json()},
            sort_keys=True,
            separators=(",", ":"),
        )
        write_atomic(self._entry_path(entry.key), payload)
        marker_dir = self._marker_dir(entry.options)
        os.makedirs(marker_dir, exist_ok=True)
        marker = os.path.join(marker_dir, entry.key)
        if not os.path.exists(marker):
            with open(marker, "w", encoding="utf-8"):
                pass
        self.stores += 1

    def warm_candidates(
        self, options: str, exclude: Optional[str] = None, limit: int = 8
    ) -> List[CacheEntry]:
        """Donor entries sharing ``options``, newest first.

        Only entries carrying a resume snapshot qualify (results without
        a snapshot serve exact hits but cannot seed a warm start).
        Markers whose entry file has been pruned are reaped on sight.
        """
        marker_dir = self._marker_dir(options)
        try:
            names = os.listdir(marker_dir)
        except FileNotFoundError:
            return []
        stamped = []
        for key in names:
            if key == exclude:
                continue
            try:
                mtime = os.path.getmtime(self._entry_path(key))
            except OSError:
                # Entry pruned out from under its marker: reap it.
                try:
                    os.unlink(os.path.join(marker_dir, key))
                except OSError:
                    pass
                continue
            stamped.append((mtime, key))
        stamped.sort(reverse=True)
        out: List[CacheEntry] = []
        for _, key in stamped:
            entry = self.get(key, count=False)
            if entry is not None and entry.state is not None:
                out.append(entry)
                if len(out) >= limit:
                    break
        return out

    def prune(self, max_entries: Optional[int] = None) -> int:
        """Drop the oldest entries beyond the bound; returns how many.

        Expired entries go first regardless of the bound.  Concurrent
        pruners are safe: unlinking an already-unlinked file is a no-op.
        """
        bound = self.max_entries if max_entries is None else max_entries
        stamped = []
        for key in self._entry_keys():
            path = self._entry_path(key)
            try:
                mtime = os.path.getmtime(path)
            except OSError:
                continue
            expired = False
            if self.ttl is not None:
                expired = time.time() - mtime > self.ttl
            stamped.append((mtime, key, expired))
        stamped.sort()
        doomed = [key for _, key, expired in stamped if expired]
        live = [key for _, key, expired in stamped if not expired]
        if len(live) > bound:
            doomed.extend(live[: len(live) - bound])
        dropped = 0
        for key in doomed:
            try:
                os.unlink(self._entry_path(key))
                dropped += 1
            except OSError:
                pass
        self.pruned += dropped
        return dropped

    # ----------------------------------------------------------------- #
    # Introspection.                                                    #
    # ----------------------------------------------------------------- #

    def stats(self) -> dict:
        """Per-process counters plus the on-disk occupancy."""
        return {
            "root": self.root,
            "entries": len(self._entry_keys()),
            "max_entries": self.max_entries,
            "ttl": self.ttl,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "pruned": self.pruned,
        }
