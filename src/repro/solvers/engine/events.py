"""Event-hook instrumentation for the solver engine.

Every solver in this package drives its iteration through a
:class:`~repro.solvers.engine.core.SolverEngine`, and the engine reports
what it does through an :class:`EventBus`.  Observers subscribe to the
hooks ``on_start``, ``on_eval``, ``on_update``, ``on_destabilize``,
``on_restart``, ``on_queue`` and ``on_done`` (plus ``on_memo`` for the
memoization cache) -- so tracing, timing, per-phase counters, watchdogs and
divergence diagnostics are pluggable instead of being hard-coded into
every solver loop.

The engine keeps the classic :class:`~repro.solvers.stats.SolverStats`
counters itself, so a run without observers emits nothing.
"""

from __future__ import annotations

import time
from typing import Hashable, Iterable, List, Optional, Tuple


class SolverObserver:
    """Base class for event-bus observers; every hook is a no-op.

    Subclass and override the hooks of interest.  Hooks must not mutate
    solver state: they observe one solver run.
    """

    def on_start(self, engine) -> None:
        """The engine was constructed; ``engine`` is the live instance.

        This is the only hook that hands out the engine itself, so that
        stateful observers (watchdogs, checkpointers, salvage probes) can
        read solver state later without the solver threading it through.
        """

    def on_eval(self, x: Hashable) -> None:
        """One budgeted evaluation of the right-hand side of ``x``."""

    def on_update(self, x: Hashable, old, new) -> None:
        """The value of ``x`` changed from ``old`` to ``new``."""

    def on_destabilize(self, x: Hashable, work: Iterable[Hashable]) -> None:
        """A change of ``x`` destabilised the unknowns in ``work``."""

    def on_restart(self, x: Hashable, region: Iterable[Hashable]) -> None:
        """A downward reversal at widening point ``x`` restarted ``region``.

        The restarting solvers (SLR3, TDR) discard the over-widened
        values of every unknown in ``region`` and destabilise them; the
        region is the dependent influence closure of ``x``, computed the
        same way as the incremental layer's destabilisation closures.
        """

    def on_queue(self, size: int) -> None:
        """The pending queue/worklist grew to ``size`` elements."""

    def on_memo(self, x: Hashable, hit: bool) -> None:
        """The memoization cache was consulted for ``x``."""

    def on_done(self, engine) -> None:
        """The solver run finished; ``engine`` carries the final state."""


class EventBus:
    """Fan-out of engine events to subscribed observers, in order.

    Dispatch is *filtered*: for each hook the bus precomputes the list of
    observers that actually override it, so an observer that ignores an
    event costs nothing on that event's path.  This is what keeps
    supervision-style observers (probes, watchdogs, checkpointers) close
    to free per evaluation -- the hot loop only ever calls methods that
    do real work.
    """

    _HOOKS = (
        "on_start",
        "on_eval",
        "on_update",
        "on_destabilize",
        "on_restart",
        "on_queue",
        "on_memo",
        "on_done",
    )

    __slots__ = ("observers", "_listeners")

    def __init__(self, observers: Iterable[SolverObserver] = ()) -> None:
        self.observers: List[SolverObserver] = list(observers)
        self._listeners = {
            hook: [
                getattr(obs, hook)
                for obs in self.observers
                if getattr(type(obs), hook) is not getattr(SolverObserver, hook)
            ]
            for hook in self._HOOKS
        }

    # The emit methods are spelled out (rather than dispatched by name)
    # to keep the per-evaluation hot path free of string lookups.

    def emit_start(self, engine) -> None:
        for hook in self._listeners["on_start"]:
            hook(engine)

    def emit_eval(self, x) -> None:
        for hook in self._listeners["on_eval"]:
            hook(x)

    def emit_update(self, x, old, new) -> None:
        for hook in self._listeners["on_update"]:
            hook(x, old, new)

    def emit_destabilize(self, x, work) -> None:
        for hook in self._listeners["on_destabilize"]:
            hook(x, work)

    def emit_restart(self, x, region) -> None:
        for hook in self._listeners["on_restart"]:
            hook(x, region)

    def emit_queue(self, size: int) -> None:
        for hook in self._listeners["on_queue"]:
            hook(size)

    def emit_memo(self, x, hit: bool) -> None:
        for hook in self._listeners["on_memo"]:
            hook(x, hit)

    def emit_done(self, engine) -> None:
        for hook in self._listeners["on_done"]:
            hook(engine)


class RecordingObserver(SolverObserver):
    """Records the ordered stream of events -- the tracing observer.

    Each event is a plain tuple whose first element is the kind
    (``"eval"``, ``"update"``, ``"destabilize"``, ``"queue"``, ``"memo"``,
    ``"done"``); destabilised work sets are recorded sorted by ``repr`` so
    traces are deterministic regardless of set iteration order.
    """

    def __init__(self, kinds: Optional[Iterable[str]] = None) -> None:
        """Record only the event ``kinds`` given (default: all)."""
        self.events: List[Tuple] = []
        self._kinds = frozenset(kinds) if kinds is not None else None

    def _wants(self, kind: str) -> bool:
        return self._kinds is None or kind in self._kinds

    def on_eval(self, x) -> None:
        if self._wants("eval"):
            self.events.append(("eval", x))

    def on_update(self, x, old, new) -> None:
        if self._wants("update"):
            self.events.append(("update", x, old, new))

    def on_destabilize(self, x, work) -> None:
        if self._wants("destabilize"):
            self.events.append(
                ("destabilize", x, tuple(sorted(work, key=repr)))
            )

    def on_restart(self, x, region) -> None:
        if self._wants("restart"):
            self.events.append(
                ("restart", x, tuple(sorted(region, key=repr)))
            )

    def on_queue(self, size: int) -> None:
        if self._wants("queue"):
            self.events.append(("queue", size))

    def on_memo(self, x, hit: bool) -> None:
        if self._wants("memo"):
            self.events.append(("memo", x, hit))

    def on_done(self, engine) -> None:
        if self._wants("done"):
            self.events.append(("done",))


class TimingObserver(SolverObserver):
    """Wall-clock timing of one solver run (first event to ``on_done``)."""

    def __init__(self) -> None:
        self.started: Optional[float] = None
        self.seconds: float = 0.0

    def on_eval(self, x) -> None:
        if self.started is None:
            self.started = time.perf_counter()

    def on_done(self, engine) -> None:
        if self.started is not None:
            self.seconds = time.perf_counter() - self.started


class DivergenceMonitor(SolverObserver):
    """Divergence diagnostics: which unknowns churn the most?

    Where the evaluation budget merely *detects* divergence, this observer
    localises it: the per-unknown update counts name the oscillating
    unknowns (the tables of the paper's Examples 1-2 are exactly such
    hotspot listings).
    """

    def __init__(self) -> None:
        self.update_counts: dict = {}

    def on_update(self, x, old, new) -> None:
        self.update_counts[x] = self.update_counts.get(x, 0) + 1

    def hotspots(self, top: int = 5) -> List[Tuple[Hashable, int]]:
        """The ``top`` most-updated unknowns, most churn first."""
        ranked = sorted(
            self.update_counts.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        )
        return ranked[:top]
