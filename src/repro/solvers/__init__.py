"""Generic fixpoint solvers parameterised by a binary update operator.

This package is the reproduction of the paper's algorithmic core.  Every
solver is a thin strategy over the shared
:class:`~repro.solvers.engine.SolverEngine` and registers itself in the
solver registry, so it can be selected by name via
:func:`~repro.solvers.registry.get_solver`:

==========  ========  =================================  ====================
Registry    Solver    Paper reference                    Function
==========  ========  =================================  ====================
``rr``      RR        Fig. 1, round robin                :func:`solve_rr`
``wl``      W         Fig. 2, worklist                   :func:`solve_wl`
``srr``     SRR       Fig. 3, structured round robin     :func:`solve_srr`
``sw``      SW        Fig. 4, structured worklist        :func:`solve_sw`
``rld``     RLD       Fig. 5, Hofmann et al. local       :func:`solve_rld`
``slr``     SLR       Fig. 6, structured local rec.      :func:`solve_slr`
``slr+``    SLR+      Section 6, side-effecting SLR      :func:`solve_slr_side`
``slr2``    SLR2      successor paper, localized ⌴       :func:`solve_slr2`
``slr3``    SLR3      successor paper, restarting        :func:`solve_slr3`
``td``      TD        [22], top-down baseline            :func:`solve_td`
``tdr``     TDR       restarting top-down variant        :func:`solve_tdr`
``rr-local``  --      Section 5 local round-robin        :func:`solve_rr_local`
``twophase``  --      two-phase widen/narrow baseline    :func:`solve_twophase`
``kleene``    --      naive Kleene iteration baseline    :func:`solve_kleene`
==========  ========  =================================  ====================

Every generic solver takes a :class:`~repro.solvers.combine.Combine`
operator; the paper's combined widening/narrowing operator is
:class:`~repro.solvers.combine.WarrowCombine`.  Instrumentation is
pluggable through the engine's event bus (``observers=...``), and the
atomically-evaluating solvers accept ``memoize=True`` to skip
re-evaluations whose dependencies are unchanged.
"""

from repro.solvers.combine import (
    BoundedJoinNarrowCombine,
    BoundedNarrowCombine,
    BoundedWarrowCombine,
    Combine,
    JoinCombine,
    MeetCombine,
    NarrowCombine,
    OverrideCombine,
    PerVariableCombine,
    WarrowCombine,
    WidenCombine,
    warrow,
)
from repro.solvers.engine import (
    DivergenceMonitor,
    EventBus,
    MemoCache,
    ObservedWorklist,
    RecordingObserver,
    SolverEngine,
    SolverObserver,
    TimingObserver,
)
from repro.solvers.improve import improve_post_solution
from repro.solvers.kleene import solve_kleene
from repro.solvers.ordering import dfs_priority_order, weak_topological_order
from repro.solvers.registry import (
    SolverCapabilityError,
    SolverSpec,
    UnknownSolverError,
    all_specs,
    get_solver,
    register_solver,
    resolve_solver,
    solver_names,
)
from repro.solvers.rld import solve_rld
from repro.solvers.rr import solve_rr
from repro.solvers.rr_local import solve_rr_local
from repro.solvers.slr import LocalResult, solve_slr
from repro.solvers.slr_restart import (
    RestartResult,
    solve_slr2,
    solve_slr3,
    solve_tdr,
)
from repro.solvers.slr_side import SideEffectError, SideResult, solve_slr_side
from repro.solvers.srr import solve_srr
from repro.solvers.stats import (
    Budget,
    DivergenceError,
    SolverResult,
    SolverStats,
)
from repro.solvers.sw import PriorityWorklist, solve_sw
from repro.solvers.td import solve_td
from repro.solvers.twophase import TwoPhaseResult, solve_twophase
from repro.solvers.wl import solve_wl
from repro.solvers.wpoints import (
    selective_combine,
    selective_warrow_combine,
    widening_points,
)

__all__ = [
    "BoundedJoinNarrowCombine",
    "BoundedNarrowCombine",
    "BoundedWarrowCombine",
    "Combine",
    "JoinCombine",
    "MeetCombine",
    "NarrowCombine",
    "OverrideCombine",
    "PerVariableCombine",
    "WarrowCombine",
    "WidenCombine",
    "warrow",
    "DivergenceMonitor",
    "EventBus",
    "MemoCache",
    "ObservedWorklist",
    "RecordingObserver",
    "SolverEngine",
    "SolverObserver",
    "TimingObserver",
    "SolverCapabilityError",
    "SolverSpec",
    "UnknownSolverError",
    "all_specs",
    "get_solver",
    "register_solver",
    "resolve_solver",
    "solver_names",
    "improve_post_solution",
    "solve_kleene",
    "dfs_priority_order",
    "weak_topological_order",
    "solve_rld",
    "solve_rr",
    "solve_rr_local",
    "LocalResult",
    "solve_slr",
    "SideEffectError",
    "SideResult",
    "solve_slr_side",
    "RestartResult",
    "solve_slr2",
    "solve_slr3",
    "solve_tdr",
    "solve_srr",
    "Budget",
    "DivergenceError",
    "SolverResult",
    "SolverStats",
    "PriorityWorklist",
    "solve_sw",
    "solve_td",
    "TwoPhaseResult",
    "solve_twophase",
    "solve_wl",
    "selective_combine",
    "selective_warrow_combine",
    "widening_points",
]
