"""Incremental re-solving: snapshots, program diffs, warm starts.

The subsystem turns the one-shot solvers of the reproduction into a
warm-startable analysis pipeline::

    from repro.incremental import analyze_and_snapshot, reanalyze_program

    result, state = analyze_and_snapshot(old_cfg, IntervalDomain())
    report = reanalyze_program(old_cfg, new_cfg, state, IntervalDomain(),
                               compare_scratch=True)
    assert report.sound

See :doc:`docs/incremental.md` for the state model, the diff algorithm,
and the destabilization closure.
"""

from repro.incremental.analysis import (
    IncrementalReport,
    PostViolation,
    analyze_and_snapshot,
    check_post_solution,
    check_post_solution_pure,
    diff_finite_systems,
    reanalyze_program,
    transfer_state,
)
from repro.incremental.codecs import (
    CodecError,
    UnknownCodec,
    ValueCodec,
    register_value_codec,
    value_codec,
)
from repro.incremental.state import (
    SolverState,
    StateFormatError,
    capture,
    capture_engine,
    resume_dirty,
)
from repro.incremental.warmstart import (
    influence_closure,
    warm_solve,
    warm_solve_slr,
    warm_solve_slr_side,
    warm_solve_sw,
)

__all__ = [
    "CodecError",
    "IncrementalReport",
    "PostViolation",
    "SolverState",
    "StateFormatError",
    "UnknownCodec",
    "ValueCodec",
    "analyze_and_snapshot",
    "capture",
    "capture_engine",
    "resume_dirty",
    "check_post_solution",
    "check_post_solution_pure",
    "diff_finite_systems",
    "influence_closure",
    "reanalyze_program",
    "register_value_codec",
    "transfer_state",
    "value_codec",
    "warm_solve",
    "warm_solve_slr",
    "warm_solve_slr_side",
    "warm_solve_sw",
]


def _register_warm_starts() -> None:
    from repro.solvers.registry import register_warm_start

    register_warm_start("sw", warm_solve_sw)
    register_warm_start("slr", warm_solve_slr)
    register_warm_start("slr+", warm_solve_slr_side)
    register_warm_start("slr2", warm_solve_slr_side)
    register_warm_start("slr3", warm_solve_slr_side)


_register_warm_starts()
