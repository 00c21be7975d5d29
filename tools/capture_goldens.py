"""Capture golden solver behaviour on fixed inputs.

Two golden sets, each run at a commit *before* a solver refactor to pin
ground truth that the refactored code must reproduce bit-for-bit:

* the pure-system solvers (eval counts, updates, sigma) on seeded random
  systems -- ``tests/solvers/goldens_seed.json``;
* the side-effecting local solvers ``slr+``, ``slr2`` and ``slr3``, cold
  and warm-started, on mini-C programs -- ``tests/solvers/
  goldens_side.json``.  Each case records the counters, the solution
  fingerprint, a digest of the serialized snapshot, the result's
  widening points, restarted points, contributor map and accumulated
  set, and a digest of the recorded event stream.  Observed cases also
  record the digests of mid-run snapshots (``capture_engine``) taken
  every ``CHECKPOINT_EVERY`` evaluations, which pins what a checkpointer
  reads from the engine while the solver runs.

Usage::

    PYTHONPATH=src python tools/capture_goldens.py        # pure solvers
    PYTHONPATH=src python tools/capture_goldens.py side   # SLR+/SLR2/SLR3
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
from pathlib import Path

from repro.bench.randsys import (
    RandomSystemConfig,
    random_interval_system,
    random_monotone_system,
)
from repro.solvers import (
    WarrowCombine,
    solve_kleene,
    solve_rld,
    solve_rr,
    solve_rr_local,
    solve_slr,
    solve_srr,
    solve_sw,
    solve_td,
    solve_twophase,
    solve_wl,
)


def fingerprint(result):
    return {
        "evaluations": result.stats.evaluations,
        "updates": result.stats.updates,
        "unknowns": result.stats.unknowns,
        "sigma": repr(sorted(result.sigma.items())),
    }


def main() -> None:
    goldens = {}
    for seed in (0, 1, 2):
        nat_sys = random_monotone_system(RandomSystemConfig(size=10, seed=seed))
        iv_sys = random_interval_system(RandomSystemConfig(size=10, seed=seed))
        for label, system in (("nat", nat_sys), ("iv", iv_sys)):
            lat = system.lattice
            x0 = "x0"
            cases = {
                "rr": lambda: solve_rr(system, WarrowCombine(lat), max_evals=500_000),
                "wl": lambda: solve_wl(system, WarrowCombine(lat), max_evals=500_000),
                "srr": lambda: solve_srr(system, WarrowCombine(lat), max_evals=500_000),
                "sw": lambda: solve_sw(system, WarrowCombine(lat), max_evals=500_000),
                "slr": lambda: solve_slr(system, WarrowCombine(lat), x0, max_evals=500_000),
                "rld": lambda: solve_rld(system, WarrowCombine(lat), x0, max_evals=500_000),
                "td": lambda: solve_td(system, WarrowCombine(lat), x0, max_evals=500_000),
                "rr_local": lambda: solve_rr_local(system, WarrowCombine(lat), x0, max_evals=500_000),
                "kleene": lambda: solve_kleene(system, max_evals=500_000),
                "twophase": lambda: solve_twophase(system, max_evals=500_000),
            }
            for name, run in cases.items():
                if name == "kleene" and label == "iv":
                    # Plain Kleene iteration needs no acceleration only on
                    # finite-height chains; skip the interval systems.
                    continue
                try:
                    goldens[f"{name}/{label}/{seed}"] = fingerprint(run())
                except Exception as err:  # noqa: BLE001 - capture tool
                    goldens[f"{name}/{label}/{seed}"] = {"error": type(err).__name__}
    print(json.dumps(goldens, indent=1, sort_keys=True))


# --------------------------------------------------------------------- #
# Side-effecting solvers.                                               #
# --------------------------------------------------------------------- #

SIDE_SOLVERS = ("slr+", "slr2", "slr3")
#: ``track_contributions`` on and off.
TRACK = (True, False)
RESETS = ("none", "destabilized")
#: Without and with a RecordingObserver.
OBSERVED = (False, True)
MAX_EVALS = 500_000
#: Observed cases snapshot the running engine every this many evaluations.
CHECKPOINT_EVERY = 10


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def side_programs() -> list:
    """``(label, source, context, op)`` rows of the cold cases."""
    from repro.batch.corpus import example_sources
    from repro.bench.progen import ProgramConfig, generate_program
    from repro.bench.wcet import by_size

    wcet = by_size()
    rows = [(f"restart/{p.name}", p.source, "insensitive", "warrow") for p in wcet[:6]]
    rows += [(f"wcet/{p.name}", p.source, "insensitive", "warrow") for p in wcet[6:9]]
    rows += [(f"fig7/{p.name}", p.source, "insensitive", "widen") for p in wcet[:4]]
    rows += [
        (f"examples/{name}", source, "insensitive", "warrow")
        for name, source in sorted(example_sources().items())
    ]
    for seed in range(3):
        source = generate_program(
            ProgramConfig(functions=2, stmts_per_function=6, global_arrays=1, seed=seed)
        )
        rows += [
            (f"progen/{seed}/{context}", source, context, "warrow")
            for context in ("insensitive", "full")
        ]
    return rows


def warm_programs() -> list:
    """``(label, source, edited)`` rows of the warm cases (wcet edits)."""
    from repro.bench.wcet import by_size

    try:
        from repro.bench.progen import single_constant_edits
    except ImportError:
        # Trees before a1072e4 keep the helper in the incremental benchmark.
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
        from test_bench_incremental import single_constant_edits

    return [
        (f"wcet/{p.name}/edit{i}", p.source, edited)
        for p in by_size()[:6]
        for i, edited in enumerate(single_constant_edits(p.source))
    ]


def _setup(source: str, context: str = "insensitive", op: str = "warrow"):
    from repro.analysis.inter import InterAnalysis
    from repro.batch.jobs import build_domain, build_policy
    from repro.lang import compile_program
    from repro.strategies import BuildContext, build_combine, resolve_spec

    cfg = compile_program(source)
    domain = build_domain("interval")
    analysis = InterAnalysis(cfg, domain, build_policy(context, domain))
    combine = build_combine(
        resolve_spec(op, widen_delay=1), analysis.lattice, ctx=BuildContext(cfg=cfg)
    )
    return cfg, analysis, combine


@functools.lru_cache(maxsize=None)
def _donor(source: str, solver: str, track: bool):
    """The compiled program and cold snapshot a warm case starts from."""
    from repro.incremental import capture
    from repro.solvers.registry import get_solver

    cfg, analysis, combine = _setup(source)
    result = get_solver(solver)(
        analysis.system(), combine, analysis.root(), MAX_EVALS, track
    )
    return cfg, capture(result, solver)


def _unknowns(codec, items) -> str:
    """Count and digest of a set of unknowns."""
    encoded = sorted(json.dumps(codec.encode(u), sort_keys=True) for u in items)
    return f"{len(encoded)}:{_digest(json.dumps(encoded))}"


def side_record(result, solver: str, lattice, recorder, checkpoints=None) -> dict:
    """The pinned fields of one side-effecting solver result."""
    from repro.batch.jobs import solution_fingerprint
    from repro.incremental import UnknownCodec, capture

    codec = UnknownCodec()
    stats = result.stats
    contributors = sorted(
        [json.dumps(codec.encode(z), sort_keys=True), _unknowns(codec, origins)]
        for z, origins in result.contributors.items()
    )
    wpoints = getattr(result, "wpoints", None)
    restarted = getattr(result, "restarted", None)
    return {
        "evaluations": stats.evaluations,
        "updates": stats.updates,
        "unknowns": stats.unknowns,
        "widen_updates": stats.widen_updates,
        "narrow_updates": stats.narrow_updates,
        "direction_switches": stats.direction_switches,
        "restarts": stats.restarts,
        "fingerprint": solution_fingerprint(result.sigma, lattice),
        "state": _digest(capture(result, solver).dumps(lattice)),
        "wpoints": None if wpoints is None else _unknowns(codec, wpoints),
        "restarted": None if restarted is None else _unknowns(codec, restarted),
        "contributors": f"{len(contributors)}:{_digest(json.dumps(contributors))}",
        "accumulated": _unknowns(codec, result.accumulated),
        "events": None if recorder is None else _digest(repr(recorder.events)),
        "checkpoints": (
            None
            if checkpoints is None
            else f"{len(checkpoints.digests)}:{_digest(json.dumps(checkpoints.digests))}"
        ),
    }


def _checkpoint_observer(solver: str, lattice):
    """An observer digesting a mid-run snapshot every ``CHECKPOINT_EVERY``
    evaluations; the engine comes from ``on_start``."""
    from repro.incremental.state import capture_engine
    from repro.solvers.engine import SolverObserver

    class Checkpoints(SolverObserver):
        def __init__(self) -> None:
            self.engine = None
            self.evals = 0
            self.digests = []

        def on_start(self, engine) -> None:
            self.engine = engine

        def on_eval(self, x) -> None:
            self.evals += 1
            if self.evals % CHECKPOINT_EVERY == 0:
                state = capture_engine(self.engine, solver)
                self.digests.append(_digest(state.dumps(lattice)))

    return Checkpoints()


def _observers(observed: bool, solver: str, lattice):
    """``(recorder, checkpoints, observers)`` of one case."""
    from repro.solvers.engine import RecordingObserver

    if not observed:
        return None, None, []
    recorder = RecordingObserver()
    checkpoints = _checkpoint_observer(solver, lattice)
    return recorder, checkpoints, [recorder, checkpoints]


def _cold_case(source, context, op, solver, track, observed) -> dict:
    from repro.solvers.registry import get_solver

    _, analysis, combine = _setup(source, context, op)
    recorder, checkpoints, observers = _observers(observed, solver, analysis.lattice)
    result = get_solver(solver)(
        analysis.system(),
        combine,
        analysis.root(),
        MAX_EVALS,
        track,
        observers=observers,
    )
    return side_record(result, solver, analysis.lattice, recorder, checkpoints)


def _warm_case(source, edited, solver, track, reset, observed) -> dict:
    from repro.incremental import transfer_state
    from repro.lang.diff import diff_cfg
    from repro.solvers.registry import get_warm_start

    old_cfg, donor = _donor(source, solver, track)
    cfg, analysis, combine = _setup(edited)
    state, dirty = transfer_state(donor, diff_cfg(old_cfg, cfg), cfg)
    recorder, checkpoints, observers = _observers(observed, solver, analysis.lattice)
    result = get_warm_start(solver)(
        analysis.system(),
        combine,
        analysis.root(),
        state,
        dirty,
        max_evals=MAX_EVALS,
        track_contributions=track,
        observers=observers,
        reset=reset,
    )
    return side_record(result, solver, analysis.lattice, recorder, checkpoints)


def side_cases() -> dict:
    """Case key -> thunk returning the case's record."""
    cases = {}
    for (label, source, context, op), solver, track, observed in itertools.product(
        side_programs(), SIDE_SOLVERS, TRACK, OBSERVED
    ):
        key = f"cold/{label}/{solver}/track={track}/observed={observed}"
        cases[key] = functools.partial(
            _cold_case, source, context, op, solver, track, observed
        )
    for (label, source, edited), solver, track, reset, observed in itertools.product(
        warm_programs(), SIDE_SOLVERS, TRACK, RESETS, OBSERVED
    ):
        key = (
            f"warm/{label}/{solver}/track={track}/reset={reset}/observed={observed}"
        )
        cases[key] = functools.partial(
            _warm_case, source, edited, solver, track, reset, observed
        )
    return cases


def side_main() -> None:
    goldens = {key: run() for key, run in side_cases().items()}
    print(json.dumps(goldens, indent=1, sort_keys=True))


if __name__ == "__main__":
    if sys.argv[1:] == ["side"]:
        side_main()
    else:
        main()
