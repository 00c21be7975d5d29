"""Priority worklists: the paper's ``Q`` with set semantics.

:class:`PriorityWorklist` is the queue shared by SW, SLR, SLR+ and the
two-phase baseline (historically it lived in :mod:`repro.solvers.sw`,
which still re-exports it).  :class:`ObservedWorklist` is the
engine-aware variant that reports its high-water mark through the event
bus: it emits ``on_queue`` whenever the queue *grows*, which observes the
true maximum -- the seed solvers sampled the size at extraction points
instead, so additions that were drained by an inner loop (SLR) or left
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

    @property
    def heap(self) -> list:
        """The underlying heap of ``(key, seq, x)`` entries, for reading.

        Every entry belongs to an enqueued unknown and every enqueued
        unknown has exactly one entry, so ``heap[0][0]`` is the least
        enqueued key whenever ``heap`` is non-empty -- the test a solver
        loop can make without a method call.
        """
        return self._heap

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
    """A :class:`PriorityWorklist` that reports growth on the event bus.

    Given ``stats`` (the engine does so when no observer besides the
    stats one listens), growth updates ``stats.max_queue`` directly
    instead.
    """

    def __init__(self, key_of, bus, stats=None) -> None:
        super().__init__(key_of)
        self._bus = bus
        self._stats = stats

    def add(self, x) -> None:
        present = self._present
        if x in present:
            return
        present.add(x)
        heap = self._heap
        heapq.heappush(heap, (self._key_of(x), len(heap), x))
        if self._stats is not None:
            self._stats.observe_queue(len(present))
        else:
            self._bus.emit_queue(len(present))
