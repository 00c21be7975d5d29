"""Unit tests for solver infrastructure: stats, budgets, priority
worklists, and the deep-stack runner."""

from __future__ import annotations

import threading

import pytest

from repro.solvers._deepcall import call_with_deep_stack
from repro.solvers.stats import Budget, DivergenceError, SolverResult, SolverStats
from repro.solvers.sw import PriorityWorklist


class TestSolverStats:
    def test_eval_counting(self):
        stats = SolverStats()
        stats.count_eval("a")
        stats.count_eval("a")
        stats.count_eval("b")
        assert stats.evaluations == 3
        assert stats.per_unknown == {"a": 2, "b": 1}

    def test_update_counting(self):
        stats = SolverStats()
        stats.count_update()
        stats.count_update()
        assert stats.updates == 2

    def test_queue_watermark(self):
        stats = SolverStats()
        stats.observe_queue(3)
        stats.observe_queue(7)
        stats.observe_queue(2)
        assert stats.max_queue == 7


class TestBudget:
    def test_unlimited(self):
        stats = SolverStats()
        budget = Budget(stats, None)
        for _ in range(1000):
            budget.charge("x", {})
        assert stats.evaluations == 1000

    def test_exhaustion_raises_with_state(self):
        stats = SolverStats()
        budget = Budget(stats, 2)
        sigma = {"x": 42}
        budget.charge("x", sigma)
        budget.charge("x", sigma)
        with pytest.raises(DivergenceError) as err:
            budget.charge("x", sigma)
        assert err.value.sigma == {"x": 42}
        assert err.value.stats.evaluations == 3


class TestSolverResult:
    def test_mapping_protocol(self):
        result = SolverResult({"a": 1}, SolverStats())
        assert result["a"] == 1
        assert "a" in result
        assert "b" not in result
        assert result.dom == {"a"}


class TestPriorityWorklist:
    def test_extracts_in_key_order(self):
        q = PriorityWorklist(key_of=lambda x: x)
        for item in (5, 1, 3):
            q.add(item)
        assert [q.extract_min() for _ in range(3)] == [1, 3, 5]

    def test_add_is_idempotent(self):
        q = PriorityWorklist(key_of=lambda x: x)
        q.add(1)
        q.add(1)
        assert len(q) == 1
        q.extract_min()
        assert not q

    def test_min_key(self):
        q = PriorityWorklist(key_of=lambda x: -x)
        q.add(1)
        q.add(5)
        assert q.min_key() == -5

    def test_empty_operations_raise(self):
        q = PriorityWorklist(key_of=lambda x: x)
        with pytest.raises(IndexError):
            q.extract_min()
        with pytest.raises(IndexError):
            q.min_key()

    def test_stale_heap_entries_skipped(self):
        q = PriorityWorklist(key_of=lambda x: x)
        q.add(1)
        q.add(2)
        q.extract_min()
        q.add(1)  # re-inserted after extraction
        assert q.min_key() == 1
        assert q.extract_min() == 1


class TestDeepCall:
    def test_returns_value(self):
        assert call_with_deep_stack(lambda: 42) == 42

    def test_propagates_exceptions(self):
        def boom():
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            call_with_deep_stack(boom)

    def test_survives_very_deep_recursion(self):
        def deep(n: int) -> int:
            # Pass through a C-level call to stress the native stack too.
            if n == 0:
                return 0
            return max(0, deep(n - 1))

        assert call_with_deep_stack(lambda: deep(150_000)) == 0

    def test_concurrent_calls_never_lower_the_recursion_limit(self):
        # Two solves at once, as the service's worker threads run them: a
        # short call that started first finishes while the second call is
        # still running, and the second then recurses 20 000 frames deep.
        short_running = threading.Event()
        long_running = threading.Event()
        short_done = threading.Event()
        outcome = {}

        def deep(n: int) -> int:
            return 0 if n == 0 else deep(n - 1)

        def short() -> str:
            short_running.set()
            assert long_running.wait(timeout=60)
            return "short"

        def long() -> int:
            long_running.set()
            assert short_done.wait(timeout=60)
            return deep(20_000)

        def run(name, fn) -> None:
            try:
                outcome[name] = call_with_deep_stack(fn)
            except BaseException as exc:  # noqa: BLE001 - asserted below
                outcome[name] = exc
            if name == "short":
                short_done.set()

        first = threading.Thread(target=run, args=("short", short))
        second = threading.Thread(target=run, args=("long", long))
        first.start()
        assert short_running.wait(timeout=60)
        second.start()
        first.join(timeout=120)
        second.join(timeout=120)
        assert not first.is_alive() and not second.is_alive()
        assert outcome == {"short": "short", "long": 0}
