"""Priority worklists: the paper's ``Q`` with set semantics.

:class:`PriorityWorklist` is the queue of SW and the two-phase baseline
(historically it lived in :mod:`repro.solvers.sw`, which still
re-exports it); the local solvers queue records in the engine.
:class:`ObservedWorklist` is the engine-aware variant that records its
high-water mark and emits ``on_queue`` whenever the queue *grows*, which
observes the true maximum -- the seed solvers sampled the size at
extraction points instead, so additions drained by an inner loop or left
pending at loop exit were never seen.
"""

from __future__ import annotations

import heapq


class PriorityWorklist:
    """A priority queue of unknowns with set semantics (paper's ``add``).

    ``add`` inserts an element or leaves the queue unchanged if present;
    ``extract_min`` removes and returns the unknown with the least key.
    """

    def __init__(self, key_of) -> None:
        self._key_of = key_of
        self._heap: list = []
        self._present: set = set()

    def __len__(self) -> int:
        return len(self._present)

    def __bool__(self) -> bool:
        return bool(self._present)

    def add(self, x) -> None:
        """Insert ``x`` unless it is already enqueued."""
        if x not in self._present:
            self._present.add(x)
            heapq.heappush(self._heap, (self._key_of(x), len(self._heap), x))

    def extract_min(self):
        """Remove and return the unknown with the smallest key."""
        while self._heap:
            _, _, x = heapq.heappop(self._heap)
            if x in self._present:
                self._present.discard(x)
                return x
        raise IndexError("extract_min from an empty worklist")

    def min_key(self):
        """The smallest key currently enqueued."""
        while self._heap and self._heap[0][2] not in self._present:
            heapq.heappop(self._heap)
        if not self._heap:
            raise IndexError("min_key of an empty worklist")
        return self._heap[0][0]


class ObservedWorklist(PriorityWorklist):
    """A :class:`PriorityWorklist` that records its growth in ``stats``
    and, given a ``bus``, reports it as ``on_queue`` events."""

    def __init__(self, key_of, stats, bus=None) -> None:
        super().__init__(key_of)
        self._stats = stats
        self._bus = bus

    def add(self, x) -> None:
        present = self._present
        if x in present:
            return
        present.add(x)
        heap = self._heap
        heapq.heappush(heap, (self._key_of(x), len(heap), x))
        self._stats.observe_queue(len(present))
        if self._bus is not None:
            self._bus.emit_queue(len(present))
