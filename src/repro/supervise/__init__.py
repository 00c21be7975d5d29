"""Solver supervision: watchdogs, chaos, checkpoints, graceful degradation.

The supervision layer wraps any registered solver with the operational
machinery a long-running analysis service needs::

    from repro.supervise import supervised_solve

    report = supervised_solve(system, x0="main",
                              solver="slr", fallback=("sw", "twophase"),
                              deadline=30.0, checkpoint_every=10_000)
    assert report.ok and report.verified

See :doc:`docs/supervision.md` for the escalation ladder, the fault
model, and the soundness argument for each degradation step.
"""

from repro.supervise.chaos import (
    KINDS,
    ChaosPolicy,
    ChaosSystem,
    FaultEvent,
    FaultSpec,
    InjectedFault,
    check_engine_invariants,
    fail_on_eval,
)
from repro.supervise.checkpoint import Checkpointer, load_checkpoint
from repro.supervise.escalate import escalation_router, escalation_targets
from repro.supervise.report import Attempt, Degradation, SupervisionReport
from repro.supervise.run import supervised_solve
from repro.supervise.watchdog import (
    BudgetWatchdog,
    DeadlineExceeded,
    DeadlineWatchdog,
    EngineProbe,
    OscillationDetected,
    OscillationWatchdog,
    BudgetExceeded,
    Watchdog,
    WatchdogError,
)

__all__ = [
    "Attempt",
    "BudgetExceeded",
    "BudgetWatchdog",
    "ChaosPolicy",
    "ChaosSystem",
    "Checkpointer",
    "DeadlineExceeded",
    "DeadlineWatchdog",
    "Degradation",
    "EngineProbe",
    "FaultEvent",
    "FaultSpec",
    "InjectedFault",
    "KINDS",
    "OscillationDetected",
    "OscillationWatchdog",
    "SupervisionReport",
    "Watchdog",
    "WatchdogError",
    "check_engine_invariants",
    "escalation_router",
    "escalation_targets",
    "fail_on_eval",
    "load_checkpoint",
    "supervised_solve",
]
