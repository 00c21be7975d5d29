"""Tests for the binary update operators, especially the combined operator."""

from __future__ import annotations

from hypothesis import given

from repro.lattices import INF, IntervalLattice, Interval, NatInf, POS_INF
from repro.lattices.interval import const
from repro.solvers import (
    BoundedWarrowCombine,
    JoinCombine,
    MeetCombine,
    NarrowCombine,
    OverrideCombine,
    WarrowCombine,
    WidenCombine,
    warrow,
)
from tests.conftest import interval_elements

nat = NatInf()
iv = IntervalLattice()


class TestSimpleOperators:
    def test_override(self):
        assert OverrideCombine()("x", 3, 7) == 7

    def test_join(self):
        assert JoinCombine(nat)("x", 3, 7) == 7
        assert JoinCombine(nat)("x", 7, 3) == 7

    def test_meet(self):
        assert MeetCombine(nat)("x", 3, 7) == 3

    def test_widen(self):
        assert WidenCombine(nat)("x", 3, 7) == INF
        assert WidenCombine(nat)("x", 7, 3) == 7

    def test_narrow_clips_non_shrinking_contribution(self):
        op = NarrowCombine(iv)
        # Contribution grows beyond old value: it is first met with old.
        out = op("x", Interval(0, 10), Interval(5, 20))
        assert iv.leq(out, Interval(0, 10))


class TestWarrow:
    """The definition from Section 3: narrow if b <= a, else widen."""

    def test_narrows_on_shrink(self):
        assert warrow(nat, INF, 5) == 5  # natinf narrowing improves oo
        assert warrow(nat, 9, 5) == 9  # but keeps finite values

    def test_widens_on_growth(self):
        assert warrow(nat, 5, 6) == INF

    def test_incomparable_values_widen(self):
        a, b = Interval(0, 1), Interval(5, 9)
        out = warrow(iv, a, b)
        assert iv.leq(iv.join(a, b), out)

    @given(interval_elements(), interval_elements())
    def test_result_is_sound_upper_bound_of_shrink(self, a, b):
        """If b <= a then a warrow b is bracketed between b and a."""
        if iv.leq(b, a):
            out = warrow(iv, a, b)
            assert iv.leq(b, out)
            assert iv.leq(out, a)

    @given(interval_elements(), interval_elements())
    def test_growth_branch_covers_join(self, a, b):
        if not iv.leq(b, a):
            out = warrow(iv, a, b)
            assert iv.leq(iv.join(a, b), out)

    def test_not_idempotent_in_general(self):
        # (a warrow b) warrow b may differ from a single application when
        # the first application widens: the second then narrows.
        a, b = Interval(0, 1), Interval(0, 2)
        once = warrow(iv, a, b)
        assert once == Interval(0, POS_INF)
        twice = warrow(iv, once, b)
        assert twice == Interval(0, 2)

    def test_idempotent_narrowing_stabilises_after_two(self):
        """(a warrow b) warrow b == ((a warrow b) warrow b) warrow b."""
        a, b = Interval(0, 1), Interval(0, 2)
        twice = warrow(iv, warrow(iv, a, b), b)
        thrice = warrow(iv, twice, b)
        assert twice == thrice


class TestWarrowCombine:
    def test_stateless_matches_function(self):
        op = WarrowCombine(nat)
        assert op("x", 5, 6) == warrow(nat, 5, 6)
        assert op("x", INF, 5) == warrow(nat, INF, 5)

    def test_delay_joins_before_widening(self):
        op = WarrowCombine(nat, delay=2)
        assert op("x", 0, 1) == 1
        assert op("x", 1, 2) == 2
        assert op("x", 2, 3) == INF

    def test_delay_is_per_unknown(self):
        op = WarrowCombine(nat, delay=1)
        assert op("x", 0, 1) == 1
        assert op("y", 0, 1) == 1  # y has its own budget
        assert op("x", 1, 2) == INF

    def test_fresh_clears_delay_state(self):
        op = WarrowCombine(nat, delay=1)
        assert op("x", 0, 1) == 1
        assert op.fresh()("x", 1, 2) == 2

    def test_shrinking_never_consumes_delay(self):
        op = WarrowCombine(nat, delay=1)
        assert op("x", INF, 3) == 3  # narrow
        assert op("x", 3, 4) == 4  # first growth: join
        assert op("x", 4, 5) == INF  # second growth: widen


class TestBoundedWarrow:
    def test_freezes_after_k_switches(self):
        op = BoundedWarrowCombine(nat, k=1)
        # Oscillation: grow, shrink, grow, shrink ...
        assert op("x", 0, 1) == INF  # widen
        assert op("x", INF, 2) == 2  # narrow (switch count still 0)
        assert op("x", 2, 3) == INF  # widen: 1st narrow->widen switch
        assert op("x", INF, 4) == INF  # narrowing now frozen: keep old
        assert op("x", INF, 5) == INF

    def test_result_remains_post_solution_shape(self):
        """The frozen branch keeps old >= new, preserving soundness."""
        op = BoundedWarrowCombine(nat, k=0)
        out = op("x", 7, 3)
        assert nat.leq(3, out)

    def test_counters_are_per_unknown(self):
        op = BoundedWarrowCombine(nat, k=1)
        for x in ("x", "y"):
            assert op(x, 0, 1) == INF
            assert op(x, INF, 2) == 2
            assert op(x, 2, 3) == INF
            assert op(x, INF, 4) == INF

    def test_negative_k_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            BoundedWarrowCombine(nat, k=-1)
