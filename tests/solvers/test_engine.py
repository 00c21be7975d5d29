"""The solver engine: event-hook instrumentation and RHS memoization.

The trace-golden test pins the *ordered* event stream of SLR on the
paper's Example 1 system, so any accidental change to the engine's
evaluation or destabilisation order shows up as a diff of a readable
trace rather than as a silently different fixpoint.
"""

from __future__ import annotations

from repro.eqs import DictSystem
from repro.lattices import INF, NatInf
from repro.solvers import (
    WarrowCombine,
    solve_slr,
    solve_sw,
)
from repro.solvers.engine import (
    DivergenceMonitor,
    RecordingObserver,
    SolverObserver,
    TimingObserver,
)

nat = NatInf()


def example1_system() -> DictSystem:
    """x1 = x2;  x2 = x3 + 1;  x3 = x1 over N | {oo} (paper Example 1)."""
    return DictSystem(
        nat,
        {
            "x1": (lambda get: get("x2"), ["x2"]),
            "x2": (lambda get: get("x3") + 1, ["x3"]),
            "x3": (lambda get: get("x1"), ["x1"]),
        },
    )


def interval_system(size: int = 10, seed: int = 0) -> DictSystem:
    from repro.bench.randsys import RandomSystemConfig, random_interval_system

    return random_interval_system(RandomSystemConfig(size=size, seed=seed))


class TestSlrTraceGolden:
    """SLR on Example 1, queried at x1: the exact ordered event stream."""

    def test_trace(self):
        rec = RecordingObserver(kinds=("eval", "update", "destabilize"))
        result = solve_slr(
            example1_system(), WarrowCombine(nat), "x1", observers=[rec]
        )
        assert sorted(result.sigma.items()) == [
            ("x1", INF), ("x2", INF), ("x3", INF)
        ]
        assert rec.events == [
            ("eval", "x1"),
            ("eval", "x2"),
            ("eval", "x3"),
            ("update", "x2", 0, INF),
            ("destabilize", "x2", ("x2",)),
            ("eval", "x2"),
            ("update", "x2", INF, 1),
            ("destabilize", "x2", ("x2",)),
            ("eval", "x2"),
            ("update", "x1", 0, INF),
            ("destabilize", "x1", ("x1", "x3")),
            ("eval", "x3"),
            ("update", "x3", 0, INF),
            ("destabilize", "x3", ("x2", "x3")),
            ("eval", "x3"),
            ("eval", "x2"),
            ("update", "x2", 1, INF),
            ("destabilize", "x2", ("x1", "x2")),
            ("eval", "x2"),
            ("eval", "x1"),
        ]

    def test_trace_matches_stats(self):
        rec = RecordingObserver()
        result = solve_slr(
            example1_system(), WarrowCombine(nat), "x1", observers=[rec]
        )
        kinds = [e[0] for e in rec.events]
        assert kinds.count("eval") == result.stats.evaluations
        assert kinds.count("update") == result.stats.updates
        assert kinds[-1] == "done"


class TestObserverHooks:
    def test_counting_observer_sees_every_event(self):
        class Counter(SolverObserver):
            def __init__(self):
                self.evals = 0
                self.updates = 0
                self.queues = 0
                self.done_with = None

            def on_eval(self, x):
                self.evals += 1

            def on_update(self, x, old, new):
                self.updates += 1

            def on_queue(self, size):
                self.queues += 1

            def on_done(self, engine):
                self.done_with = engine

        counter = Counter()
        result = solve_sw(
            interval_system(), WarrowCombine(interval_system().lattice),
            observers=[counter],
        )
        assert counter.evals == result.stats.evaluations
        assert counter.updates == result.stats.updates
        assert counter.done_with is not None
        assert counter.done_with.stats is result.stats

    def test_multiple_observers_in_order(self):
        first = RecordingObserver(kinds=("eval",))
        second = RecordingObserver(kinds=("eval",))
        solve_slr(
            example1_system(), WarrowCombine(nat), "x1",
            observers=[first, second],
        )
        assert first.events == second.events
        assert first.events

    def test_timing_observer(self):
        timing = TimingObserver()
        solve_slr(
            example1_system(), WarrowCombine(nat), "x1", observers=[timing]
        )
        assert timing.seconds >= 0.0
        assert timing.started is not None

    def test_divergence_monitor_names_hotspots(self):
        monitor = DivergenceMonitor()
        solve_slr(
            example1_system(), WarrowCombine(nat), "x1", observers=[monitor]
        )
        hotspots = monitor.hotspots(top=1)
        # x2 churns the most in the golden trace above (3 updates).
        assert hotspots == [("x2", 3)]

    def test_queue_observation_reports_high_water_mark(self):
        rec = RecordingObserver(kinds=("queue",))
        result = solve_sw(
            interval_system(), WarrowCombine(interval_system().lattice),
            observers=[rec],
        )
        sizes = [size for _, size in rec.events]
        assert sizes, "SW must report queue growth"
        assert max(sizes) == result.stats.max_queue


class TestMemoization:
    def test_sw_identical_sigma_fewer_evals(self):
        system = interval_system()
        lat = system.lattice
        plain = solve_sw(system, WarrowCombine(lat))
        memo = solve_sw(system, WarrowCombine(lat), memoize=True)
        assert set(plain.sigma) == set(memo.sigma)
        for x in plain.sigma:
            assert lat.equal(plain.sigma[x], memo.sigma[x])
        assert memo.stats.evaluations < plain.stats.evaluations
        assert memo.stats.memo_hits > 0
        assert plain.stats.memo_hits == 0

    def test_slr_identical_sigma_fewer_evals(self):
        # A chain system where every solve of the tail re-reads stable
        # dependencies: the memo cache removes those re-evaluations.
        system = example1_system()
        plain = solve_slr(system, WarrowCombine(nat), "x1")
        memo = solve_slr(system, WarrowCombine(nat), "x1", memoize=True)
        assert sorted(plain.sigma.items()) == sorted(memo.sigma.items())
        assert memo.stats.evaluations < plain.stats.evaluations
        assert memo.stats.memo_hits > 0

    def test_memo_events_flow_through_bus(self):
        system = interval_system()
        lat = system.lattice
        rec = RecordingObserver(kinds=("memo",))
        result = solve_sw(
            system, WarrowCombine(lat), memoize=True, observers=[rec]
        )
        hits = sum(1 for _, _, hit in rec.events if hit)
        misses = sum(1 for _, _, hit in rec.events if not hit)
        assert hits == result.stats.memo_hits
        assert misses == result.stats.memo_misses
        # A consultation happens for every evaluation attempt: the misses
        # are exactly the charged evaluations.
        assert misses == result.stats.evaluations

    def test_memo_update_counts_unchanged(self):
        system = interval_system(seed=2)
        lat = system.lattice
        plain = solve_sw(system, WarrowCombine(lat))
        memo = solve_sw(system, WarrowCombine(lat), memoize=True)
        # Skipped evaluations still feed the operator the same value
        # sequence, so the update history is identical.
        assert memo.stats.updates == plain.stats.updates


class TestDirectionCounters:
    """Widen/narrow commit counters maintained by the engine itself."""

    def test_every_changed_commit_is_classified(self):
        system = interval_system()
        result = solve_sw(system, WarrowCombine(system.lattice))
        stats = result.stats
        assert stats.widen_updates + stats.narrow_updates == stats.updates
        assert stats.widen_updates > 0

    def test_warrow_run_switches_direction(self):
        # The combined operator grows values past the fixpoint, then
        # shrinks them back: at least one unknown reverses direction.
        system = interval_system()
        result = solve_sw(system, WarrowCombine(system.lattice))
        assert result.stats.narrow_updates > 0
        assert result.stats.direction_switches > 0

    def test_example1_classification_is_exhaustive(self):
        # Example 1 at x1 ascends to oo; every changed commit is counted
        # in exactly one direction, and the ascent dominates.
        result = solve_slr(example1_system(), WarrowCombine(nat), "x1")
        stats = result.stats
        assert stats.widen_updates + stats.narrow_updates == stats.updates
        assert stats.widen_updates > stats.narrow_updates


class TestDirectStats:
    """Without extra observers the engine counts without the bus; the
    counters must match a run whose every event goes through the bus."""

    PROGRAM = """
int g = 0;
int inc(int x) { return x + 1; }
int main() {
  int i; i = 0;
  while (i < 10) { i = inc(i); g = i; }
  return i;
}
"""

    def stats_of(self, solver, observers):
        from repro.analysis.inter import InterAnalysis
        from repro.analysis.values import IntervalDomain
        from repro.lang import compile_program
        from repro.solvers.registry import get_solver

        analysis = InterAnalysis(compile_program(self.PROGRAM), IntervalDomain())
        result = get_solver(solver)(
            analysis.system(),
            WarrowCombine(analysis.lattice),
            analysis.root(),
            observers=observers,
        )
        return result.stats

    def test_counters_match_the_observed_path(self):
        for solver in ("slr+", "slr2", "slr3"):
            recorder = RecordingObserver()
            direct = self.stats_of(solver, ())
            observed = self.stats_of(solver, [recorder])
            assert direct == observed
            kinds = [event[0] for event in recorder.events]
            assert kinds.count("eval") == direct.evaluations
            assert kinds.count("update") == direct.updates
