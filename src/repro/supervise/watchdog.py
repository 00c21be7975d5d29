"""Watchdog observers: runtime termination enforcement for solver runs.

The paper's termination theorems hold under assumptions (monotonicity,
finitely many encountered unknowns) that real non-monotonic workloads can
violate, and Examples 1-2 prove that even finite monotonic systems defeat
naive iteration under the combined operator.  Watchdogs are the runtime
answer: they ride on the engine's event bus and abort a run that shows
the symptoms of divergence -- too much wall-clock time, too many
evaluations, or an unknown whose value keeps flip-flopping between
growing and shrinking under ⌴.

Every trip raises a :class:`WatchdogError` (a structured
:class:`~repro.solvers.stats.DivergenceError`) carrying the partial
``sigma``, the statistics, and the offending unknown, so the supervision
layer can *salvage* the accumulated work, escalate the oscillating
unknowns to pure widening, and resume -- instead of discarding everything.
"""

from __future__ import annotations

import time
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.solvers.engine.events import SolverObserver
from repro.solvers.stats import DivergenceError


class WatchdogError(DivergenceError):
    """A supervision watchdog aborted the run.

    Like its base, carries ``sigma``/``stats``/``unknown``; the concrete
    subclass names the tripped watchdog.
    """


class DeadlineExceeded(WatchdogError):
    """The run exceeded its wall-clock deadline."""


class BudgetExceeded(WatchdogError):
    """The run exceeded the watchdog's evaluation budget."""


class OscillationDetected(WatchdogError):
    """An unknown flip-flopped between widening and narrowing too often."""


class EngineProbe(SolverObserver):
    """Keeps a reference to the live engine of the current run.

    The cheapest possible observer: it reacts to no events.  The
    supervisor installs one so that after *any* exception -- a watchdog
    trip, an injected fault, a crashing user right-hand side -- the
    engine's ``sigma``/``infl``/``stable`` can be inspected, salvaged,
    and checked for consistency.
    """

    def __init__(self) -> None:
        self.engine = None

    def on_start(self, engine) -> None:
        self.engine = engine


class Watchdog(SolverObserver):
    """Base class: binds the engine at start so trips carry partial state."""

    def __init__(self) -> None:
        self.engine = None

    def on_start(self, engine) -> None:
        self.engine = engine

    def trip(
        self, exc: type, message: str, unknown: Optional[Hashable] = None
    ) -> None:
        """Raise ``exc`` with the partial state of the bound engine."""
        eng = self.engine
        sigma = dict(eng.sigma) if eng is not None else {}
        stats = eng.stats if eng is not None else None
        raise exc(message, sigma, stats, unknown=unknown)


class DeadlineWatchdog(Watchdog):
    """Aborts the run once a wall-clock deadline passes.

    The clock is read on the first evaluation, so a deadline that has
    already passed trips before any work, and then every
    ``check_every`` evaluations: the check must not cost measurable time
    on the no-fault hot path, and a deadline is meaningful at a much
    coarser granularity than single evaluations anyway.
    """

    def __init__(self, seconds: float, check_every: int = 16) -> None:
        super().__init__()
        if seconds <= 0:
            raise ValueError("deadline must be positive")
        if check_every < 1:
            raise ValueError("check_every must be at least 1")
        self.seconds = seconds
        self.check_every = check_every
        self.deadline: Optional[float] = None
        self._until_check = 1

    def on_start(self, engine) -> None:
        super().on_start(engine)
        self.deadline = time.monotonic() + self.seconds

    def on_eval(self, x) -> None:
        self._until_check -= 1
        if self._until_check:
            return
        self._until_check = self.check_every
        if self.deadline is not None and time.monotonic() > self.deadline:
            self.trip(
                DeadlineExceeded,
                f"exceeded the {self.seconds:g}s wall-clock deadline",
                unknown=x,
            )


class BudgetWatchdog(Watchdog):
    """Aborts the run after ``max_evals`` right-hand-side evaluations.

    The engine's own ``max_evals`` budget performs the same check; this
    watchdog exists so the supervisor can enforce a budget on solvers
    invoked without one, and so the trip is distinguishable (a
    :class:`BudgetExceeded`) from a caller-requested budget.
    """

    def __init__(self, max_evals: int) -> None:
        super().__init__()
        if max_evals < 1:
            raise ValueError("max_evals must be at least 1")
        self.max_evals = max_evals
        self._evals = 0

    def on_eval(self, x) -> None:
        self._evals += 1
        if self._evals > self.max_evals:
            self.trip(
                BudgetExceeded,
                f"exceeded the watchdog budget of {self.max_evals} "
                f"right-hand-side evaluations",
                unknown=x,
            )


class OscillationWatchdog(Watchdog):
    """Flags unknowns that keep flip-flopping under the combined operator.

    For every update the watchdog classifies the direction of the move
    (``new <= old`` is a shrink, anything else a growth) and counts, per
    unknown, how often a shrink is followed by a growth -- the switch
    from narrowing back to widening that the end of the paper's Section 4
    identifies as the divergence mode of non-monotonic systems.  Unknowns
    past ``flag_after`` switches land in :attr:`flagged` (the escalation
    ladder widens exactly those); with ``trip_after`` set, the run is
    additionally aborted once any unknown reaches that many switches.

    The per-unknown update counts double as the divergence histogram:
    :meth:`histogram` names the hottest unknowns, like the tables of the
    paper's Examples 1-2.

    Direction classification costs one ``leq`` per update -- expensive on
    the big environment lattices of the interprocedural analyses -- so it
    only starts once an unknown has accumulated ``warmup`` updates.  A
    healthy run updates each unknown a handful of times and never pays;
    an oscillating unknown racks up updates quickly and is classified
    from its ``warmup``-th update on.
    """

    def __init__(
        self,
        flag_after: int = 3,
        trip_after: Optional[int] = None,
        warmup: int = 4,
    ) -> None:
        super().__init__()
        if flag_after < 1:
            raise ValueError("flag_after must be at least 1")
        if trip_after is not None and trip_after < flag_after:
            raise ValueError("trip_after must be >= flag_after")
        if warmup < 0:
            raise ValueError("warmup must be non-negative")
        self.flag_after = flag_after
        self.trip_after = trip_after
        self.warmup = warmup
        #: Per-unknown update counts.
        self.update_counts: Dict[Hashable, int] = {}
        #: Per-unknown narrow-to-widen switch counts.
        self.switches: Dict[Hashable, int] = {}
        #: Unknowns whose switch count reached ``flag_after``.
        self.flagged: Set[Hashable] = set()
        self._shrinking: Set[Hashable] = set()
        self._lattice = None

    def on_start(self, engine) -> None:
        super().on_start(engine)
        self._lattice = engine.lattice

    def on_update(self, x, old, new) -> None:
        count = self.update_counts.get(x, 0) + 1
        self.update_counts[x] = count
        if count <= self.warmup:
            return
        if self._lattice is None or not self._lattice.leq(new, old):
            # A growth: if the unknown was last seen shrinking, that is
            # one narrow-to-widen switch.
            if x in self._shrinking:
                self._shrinking.discard(x)
                switches = self.switches.get(x, 0) + 1
                self.switches[x] = switches
                if switches >= self.flag_after:
                    self.flagged.add(x)
                if self.trip_after is not None and switches >= self.trip_after:
                    self.trip(
                        OscillationDetected,
                        f"unknown {x!r} switched from narrowing back to "
                        f"widening {switches} times (oscillation under "
                        f"the combined operator)",
                        unknown=x,
                    )
        else:
            self._shrinking.add(x)

    def histogram(self, top: Optional[int] = None) -> List[Tuple[Hashable, int]]:
        """Update counts per unknown, most-updated first."""
        ranked = sorted(
            self.update_counts.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        )
        return ranked if top is None else ranked[:top]
