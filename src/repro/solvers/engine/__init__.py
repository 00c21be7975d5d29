"""The shared solver-engine core: state, events, worklists, memoization.

See :mod:`repro.solvers.engine.core` for the architecture overview and
``docs/engine.md`` for the user-facing tour.
"""

from repro.solvers.engine.core import Record, SolverEngine
from repro.solvers.engine.events import (
    DivergenceMonitor,
    EventBus,
    RecordingObserver,
    SolverObserver,
    TimingObserver,
)
from repro.solvers.engine.memo import MISS, MemoCache
from repro.solvers.engine.worklist import ObservedWorklist, PriorityWorklist

__all__ = [
    "SolverEngine",
    "Record",
    "EventBus",
    "SolverObserver",
    "RecordingObserver",
    "TimingObserver",
    "DivergenceMonitor",
    "MemoCache",
    "MISS",
    "PriorityWorklist",
    "ObservedWorklist",
]
