"""Periodic crash-safe checkpoints of a running solver.

A :class:`Checkpointer` rides on the engine's event bus and, every
``every`` evaluations, captures the engine's resumable state as a
:class:`~repro.incremental.state.SolverState`
(:func:`~repro.incremental.state.capture_engine` -- the mid-run variant
that excludes in-flight evaluations from the stability set).  Snapshots
are kept in memory and, when a path is given, persisted crash-safely:
the JSON is written to a temporary sibling and atomically renamed over
the target, so a kill at any instant leaves either the previous or the
new checkpoint intact, never a torn file.

Recovery reuses the incremental warm-start machinery unchanged: an
interrupted run resumes via :func:`repro.incremental.warmstart.warm_solve`
with the dirty set ``state.dom - state.stable``
(:func:`~repro.incremental.state.resume_dirty`) -- the work the crash cut
short -- instead of restarting from bottom.
"""

from __future__ import annotations

from typing import List, Optional

from repro.atomicfile import write_atomic
from repro.incremental.state import SolverState, capture_engine
from repro.solvers.engine.events import SolverObserver


class Checkpointer(SolverObserver):
    """Captures the engine state every ``every`` evaluations.

    :param solver: registry name recorded in each snapshot (drives the
        warm-start dispatch on recovery).
    :param every: checkpoint interval in right-hand-side evaluations.
    :param path: when given, each snapshot is also serialized to this
        file (atomic replace; see :meth:`write`).
    :param keep: how many snapshots to retain in memory (older ones are
        dropped); the newest is always :attr:`latest`.
    :param include_combine: also snapshot the update operator's
        per-unknown state (widening delays, ⌴ₖ budgets) into
        :attr:`SolverState.combine`, so a resume can restore the
        operator with :func:`repro.strategies.import_combine_state`.
    """

    def __init__(
        self,
        solver: str,
        every: int = 1000,
        path: Optional[str] = None,
        keep: int = 2,
        include_combine: bool = False,
    ) -> None:
        if every < 1:
            raise ValueError("checkpoint interval must be at least 1")
        if keep < 1:
            raise ValueError("must keep at least one snapshot")
        self.solver = solver
        self.every = every
        self.path = path
        self.keep = keep
        self.include_combine = include_combine
        #: Retained snapshots, oldest first; the last one is the newest.
        self.states: List[SolverState] = []
        #: Total snapshots taken over the observer's lifetime.
        self.taken = 0
        #: Snapshots written to :attr:`path`.
        self.written = 0
        self.engine = None
        self._ticks = 0

    def on_start(self, engine) -> None:
        self.engine = engine

    def on_eval(self, x) -> None:
        self._ticks += 1
        if self._ticks % self.every == 0:
            self.snapshot()

    @property
    def latest(self) -> Optional[SolverState]:
        """The newest snapshot, or ``None`` before the first interval."""
        return self.states[-1] if self.states else None

    def snapshot(self) -> SolverState:
        """Capture the bound engine now (also called on the interval)."""
        if self.engine is None:
            raise RuntimeError("checkpointer is not bound to an engine")
        state = capture_engine(
            self.engine, self.solver, include_combine=self.include_combine
        )
        self.states.append(state)
        del self.states[: -self.keep]
        self.taken += 1
        if self.path is not None:
            self.write(state)
        return state

    def write(self, state: SolverState) -> None:
        """Serialize ``state`` to :attr:`path`, atomically
        (:func:`~repro.atomicfile.write_atomic`): a reader (or a crash)
        observes either the old checkpoint or the new one in full.
        """
        if self.path is None:
            raise RuntimeError("checkpointer has no target path")
        write_atomic(self.path, state.dumps(self.engine.lattice))
        self.written += 1


def load_checkpoint(path: str, lattice) -> SolverState:
    """Restore a checkpoint written by :class:`Checkpointer`."""
    with open(path, "r", encoding="utf-8") as handle:
        return SolverState.loads(handle.read(), lattice)
