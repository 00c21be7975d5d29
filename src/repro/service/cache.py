"""The content-addressed result cache behind the analysis daemon.

Entries are keyed by :func:`repro.batch.jobs.spec_fingerprint` -- a
SHA-256 over the program text *and* every result-relevant option -- so a
hit is, by construction, the answer to exactly the requested analysis:
two requests differing only in solver, domain, context, operator, delay,
thresholds, budget or verification mode can never alias.

Beyond the result itself an entry may carry the producing run's
serialized :class:`~repro.incremental.state.SolverState`.  That is what
makes the cache more than a memo table: a *near miss* (same options,
edited program) can locate a donor entry through the options-only index
(:func:`repro.batch.jobs.options_fingerprint`) and resume the solver
warm from the stored snapshot instead of solving cold.

Operational behaviour:

* **LRU bound** -- at most ``max_entries`` entries; inserting beyond the
  bound evicts the least recently *used* entry (gets refresh recency).
* **TTL** -- entries older than ``ttl`` seconds are expired lazily on
  access and eagerly on :meth:`sweep`.
* **Counters** -- hits, misses, warm donor hits, evictions, expirations,
  and stores, exposed verbatim through the daemon's ``status`` op.
* **Persistence** -- :meth:`save` writes the full index (entries,
  snapshots and all) as one JSON document via an atomic rename;
  :meth:`load` restores it on daemon start, honouring TTL, so a
  restarted service answers warm from its first request.
"""

from __future__ import annotations

import json
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.atomicfile import write_atomic

#: Format marker of the persisted cache index.
FORMAT = "repro-service-cache/1"


@dataclass
class CacheEntry:
    """One cached analysis result (plus optional resume snapshot)."""

    #: Content address: :func:`~repro.batch.jobs.spec_fingerprint`.
    key: str
    #: Options-only address, the warm-start candidate index.
    options: str
    #: The analysed program text (diff donor for near misses).
    source: str
    #: The :class:`~repro.batch.jobs.JobResult` as a JSON dict.
    result: dict
    #: Serialized :class:`~repro.incremental.state.SolverState` of the
    #: producing run, when the solver supports warm starts.
    state: Optional[str] = None
    #: Wall-clock creation time (``time.time``; survives restarts).
    created: float = field(default_factory=time.time)
    #: How often this entry has been served.
    hits: int = 0

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "options": self.options,
            "source": self.source,
            "result": self.result,
            "state": self.state,
            "created": self.created,
            "hits": self.hits,
        }

    @classmethod
    def from_json(cls, data: dict) -> "CacheEntry":
        return cls(**data)


class ResultCache:
    """LRU + TTL cache of :class:`CacheEntry`, with a warm-donor index.

    :param max_entries: LRU bound (at least 1).
    :param ttl: entry lifetime in seconds (``None``: no expiry).
    :param clock: time source, injectable for tests (``time.time``).
    """

    def __init__(
        self,
        max_entries: int = 256,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive")
        self.max_entries = max_entries
        self.ttl = ttl
        self._clock = clock
        #: key -> entry, in LRU order (last = most recently used).
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        #: options fingerprint -> keys sharing it (insertion order).
        self._by_options: Dict[str, List[str]] = {}
        self.hits = 0
        self.misses = 0
        self.warm_hits = 0
        self.evictions = 0
        self.expirations = 0
        self.stores = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    # ----------------------------------------------------------------- #
    # Core operations.                                                  #
    # ----------------------------------------------------------------- #

    def _expired(self, entry: CacheEntry) -> bool:
        return (
            self.ttl is not None
            and self._clock() - entry.created > self.ttl
        )

    def _drop(self, key: str) -> None:
        entry = self._entries.pop(key)
        keys = self._by_options.get(entry.options)
        if keys is not None:
            try:
                keys.remove(key)
            except ValueError:  # pragma: no cover - index invariant
                pass
            if not keys:
                del self._by_options[entry.options]

    def get(self, key: str) -> Optional[CacheEntry]:
        """The entry under ``key``, counting a hit; ``None`` on miss.

        Expired entries are dropped and count as a miss plus an
        expiration -- a TTL lapse *is* a miss from the client's view.
        """
        entry = self._entries.get(key)
        if entry is not None and self._expired(entry):
            self._drop(key)
            self.expirations += 1
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.hits += 1
        return entry

    def peek(self, key: str) -> Optional[CacheEntry]:
        """Like :meth:`get` but without touching any counter or recency."""
        entry = self._entries.get(key)
        if entry is not None and self._expired(entry):
            return None
        return entry

    def put(self, entry: CacheEntry) -> None:
        """Insert (or replace) an entry, evicting LRU beyond the bound."""
        if entry.key in self._entries:
            self._drop(entry.key)
        self._entries[entry.key] = entry
        self._by_options.setdefault(entry.options, []).append(entry.key)
        self.stores += 1
        while len(self._entries) > self.max_entries:
            oldest = next(iter(self._entries))
            self._drop(oldest)
            self.evictions += 1

    def warm_candidates(
        self, options: str, exclude: Optional[str] = None
    ) -> List[CacheEntry]:
        """Donor entries for a near-miss request, best first.

        All live entries with the same options fingerprint that carry a
        resume snapshot, ordered most-recently-used first (the most
        recent version of an evolving program is the likeliest smallest
        diff).  ``exclude`` omits the request's own key.
        """
        keys = self._by_options.get(options, ())
        recency = {k: i for i, k in enumerate(self._entries)}
        ranked = sorted(
            (k for k in keys if k != exclude),
            key=recency.__getitem__,
            reverse=True,
        )
        out = []
        for key in ranked:
            entry = self._entries[key]
            if self._expired(entry):
                continue
            if entry.state is not None:
                out.append(entry)
        return out

    def sweep(self) -> int:
        """Drop every expired entry now; returns how many went."""
        dead = [k for k, e in self._entries.items() if self._expired(e)]
        for key in dead:
            self._drop(key)
        self.expirations += len(dead)
        return len(dead)

    # ----------------------------------------------------------------- #
    # Introspection and persistence.                                    #
    # ----------------------------------------------------------------- #

    def stats(self) -> dict:
        """Counters and occupancy, as served by the ``status`` op."""
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "ttl": self.ttl,
            "hits": self.hits,
            "misses": self.misses,
            "warm_hits": self.warm_hits,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "stores": self.stores,
        }

    def save(self, path: str) -> int:
        """Persist the index to ``path`` atomically; returns entry count.

        The document carries every live entry in LRU order (snapshots
        included) -- a restarted daemon that loads it serves its first
        identical request as a hit and its first near miss warm.
        """
        doc = {
            "format": FORMAT,
            "entries": [e.to_json() for e in self._entries.values()],
        }
        write_atomic(path, json.dumps(doc, sort_keys=True, separators=(",", ":")))
        return len(self._entries)

    def load(self, path: str) -> int:
        """Restore entries persisted by :meth:`save`; returns how many.

        Entries past their TTL at load time are skipped (not counted as
        expirations -- they died while the daemon was down).  Counters
        are *not* restored: they describe one daemon lifetime.

        :raises ValueError: for documents in an unknown format.
        """
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if not isinstance(doc, dict) or doc.get("format") != FORMAT:
            raise ValueError(
                f"{path}: not a {FORMAT} cache index"
            )
        loaded = 0
        for data in doc.get("entries", []):
            entry = CacheEntry.from_json(data)
            if self._expired(entry):
                continue
            stores = self.stores
            self.put(entry)
            self.stores = stores  # loading is not storing
            loaded += 1
        return loaded
