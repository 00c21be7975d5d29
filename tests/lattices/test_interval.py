"""Unit tests for the interval domain: structure, acceleration, arithmetic."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from repro.lattices import Interval, IntervalLattice, NEG_INF, POS_INF
from repro.lattices.base import LatticeError
from repro.lattices.interval import const, interval

lat = IntervalLattice()


def _reference_check(lo, hi) -> None:
    """The constructor's validation before exact ints skipped ``float``."""
    if lo > hi:
        raise LatticeError(f"empty interval [{lo}, {hi}]")
    if lo != NEG_INF and not float(lo).is_integer():
        raise LatticeError(f"non-integer lower bound {lo}")
    if hi != POS_INF and not float(hi).is_integer():
        raise LatticeError(f"non-integer upper bound {hi}")


def _outcome(check, lo, hi):
    try:
        check(lo, hi)
    except (LatticeError, OverflowError) as err:
        return type(err), str(err)
    return None


#: Bounds of every kind: small and float-overflowing ints, bools,
#: integral and fractional floats, the infinities and NaN.
_BOUNDS = st.one_of(
    st.integers(),
    st.integers(min_value=-(2**1100), max_value=2**1100),
    st.sampled_from([2**1023, 2**1023 + 1, 2**1024, -(2**1023) - 1, -(2**1024)]),
    st.booleans(),
    st.integers(min_value=-(2**60), max_value=2**60).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([NEG_INF, POS_INF, float("nan")]),
)


class TestConstruction:
    def test_singleton(self):
        assert const(5) == Interval(5, 5)
        assert const(5).is_singleton()

    def test_empty_interval_rejected(self):
        with pytest.raises(LatticeError):
            Interval(3, 2)

    def test_non_integer_bounds_rejected(self):
        with pytest.raises(LatticeError):
            Interval(0.5, 2)

    def test_infinite_bounds_allowed(self):
        iv = Interval(NEG_INF, POS_INF)
        assert not iv.is_finite()
        assert iv.contains(0) and iv.contains(-(10**9))

    def test_repr(self):
        assert repr(Interval(1, 2)) == "[1,2]"
        assert repr(Interval(NEG_INF, 2)) == "[-oo,2]"

    @given(_BOUNDS, _BOUNDS)
    @example(2**1100, POS_INF)
    @example(NEG_INF, -(2**1100))
    @example(3, 2**1024)
    @example(True, 1.0)
    @example(0.5, POS_INF)
    @example(float("nan"), 0)
    def test_validation_matches_the_reference_check(self, lo, hi):
        assert _outcome(Interval, lo, hi) == _outcome(_reference_check, lo, hi)


class TestOrder:
    def test_bottom_below_everything(self):
        assert lat.leq(None, const(3))
        assert not lat.leq(const(3), None)

    def test_inclusion(self):
        assert lat.leq(Interval(1, 2), Interval(0, 3))
        assert not lat.leq(Interval(0, 3), Interval(1, 2))

    def test_join_hull(self):
        assert lat.join(Interval(0, 1), Interval(5, 6)) == Interval(0, 6)

    def test_meet_intersection(self):
        assert lat.meet(Interval(0, 4), Interval(2, 6)) == Interval(2, 4)
        assert lat.meet(Interval(0, 1), Interval(3, 4)) is None


class TestWidening:
    def test_stable_bounds_kept(self):
        assert lat.widen(Interval(0, 10), Interval(0, 5)) == Interval(0, 10)

    def test_unstable_upper_jumps(self):
        assert lat.widen(Interval(0, 10), Interval(0, 11)) == Interval(0, POS_INF)

    def test_unstable_lower_jumps(self):
        assert lat.widen(Interval(0, 10), Interval(-1, 10)) == Interval(
            NEG_INF, 10
        )

    def test_bottom_behaves_as_identity(self):
        assert lat.widen(None, Interval(1, 2)) == Interval(1, 2)
        assert lat.widen(Interval(1, 2), None) == Interval(1, 2)

    def test_thresholds_catch_unstable_bound(self):
        t = IntervalLattice(thresholds=[0, 16, 256])
        assert t.widen(Interval(0, 10), Interval(0, 11)) == Interval(0, 16)
        assert t.widen(Interval(0, 16), Interval(0, 17)) == Interval(0, 256)
        assert t.widen(Interval(0, 256), Interval(0, 300)) == Interval(
            0, POS_INF
        )

    def test_thresholds_on_lower_bound(self):
        t = IntervalLattice(thresholds=[-8, 0])
        assert t.widen(Interval(0, 5), Interval(-1, 5)) == Interval(-8, 5)
        assert t.widen(Interval(-8, 5), Interval(-9, 5)) == Interval(
            NEG_INF, 5
        )


class TestNarrowing:
    def test_refines_infinite_bounds_only(self):
        assert lat.narrow(Interval(0, POS_INF), Interval(0, 41)) == Interval(0, 41)
        assert lat.narrow(Interval(0, 100), Interval(0, 41)) == Interval(0, 100)

    def test_refines_lower_infinite_bound(self):
        assert lat.narrow(Interval(NEG_INF, 5), Interval(2, 5)) == Interval(2, 5)

    def test_bottom_new_value(self):
        assert lat.narrow(Interval(0, 3), None) is None


class TestArithmetic:
    def test_add(self):
        assert lat.add(Interval(1, 2), Interval(10, 20)) == Interval(11, 22)

    def test_sub(self):
        assert lat.sub(Interval(1, 2), Interval(10, 20)) == Interval(-19, -8)

    def test_neg(self):
        assert lat.neg(Interval(-3, 5)) == Interval(-5, 3)

    def test_mul_signs(self):
        assert lat.mul(Interval(-2, 3), Interval(4, 5)) == Interval(-10, 15)
        assert lat.mul(Interval(-2, -1), Interval(-3, -2)) == Interval(2, 6)

    def test_mul_with_infinity(self):
        assert lat.mul(Interval(0, POS_INF), Interval(2, 2)) == Interval(
            0, POS_INF
        )
        # 0 * oo resolves to 0 at the bound level.
        assert lat.mul(Interval(0, 0), Interval(NEG_INF, POS_INF)) == Interval(
            0, 0
        )

    def test_div_truncates_toward_zero(self):
        assert lat.div(const(7), const(2)) == const(3)
        assert lat.div(const(-7), const(2)) == const(-3)

    def test_div_by_interval_containing_zero_excludes_zero(self):
        # [10,10] / [-2,2]: quotients over [-2,-1] and [1,2].
        assert lat.div(const(10), Interval(-2, 2)) == Interval(-10, 10)

    def test_div_by_exactly_zero_is_bottom(self):
        assert lat.div(const(10), const(0)) is None

    def test_rem_bounds(self):
        r = lat.rem(Interval(0, 100), const(7))
        assert lat.leq(r, Interval(0, 6))
        r = lat.rem(Interval(-100, -1), const(7))
        assert lat.leq(r, Interval(-6, 0))

    def test_bottom_propagates(self):
        assert lat.add(None, const(1)) is None
        assert lat.mul(const(1), None) is None


class TestComparisons:
    def test_definite_truth(self):
        assert lat.cmp_lt(Interval(0, 1), Interval(5, 9)) == lat.TRUE
        assert lat.cmp_lt(Interval(5, 9), Interval(0, 1)) == lat.FALSE
        assert lat.cmp_lt(Interval(0, 5), Interval(3, 9)) == lat.BOTH

    def test_eq(self):
        assert lat.cmp_eq(const(3), const(3)) == lat.TRUE
        assert lat.cmp_eq(const(3), const(4)) == lat.FALSE
        assert lat.cmp_eq(Interval(0, 5), Interval(3, 9)) == lat.BOTH

    def test_truthiness(self):
        assert lat.truthiness(const(0)) == (False, True)
        assert lat.truthiness(const(7)) == (True, False)
        assert lat.truthiness(Interval(-1, 1)) == (True, True)
        assert lat.truthiness(None) == (False, False)

    def test_logical_not(self):
        assert lat.logical_not(const(0)) == lat.TRUE
        assert lat.logical_not(const(9)) == lat.FALSE
        assert lat.logical_not(Interval(0, 1)) == lat.BOTH


class TestRefinement:
    def test_refine_lt(self):
        a, b = lat.refine_lt(Interval(0, 10), Interval(0, 5))
        assert a == Interval(0, 4)
        assert b == Interval(1, 5)

    def test_refine_le(self):
        a, b = lat.refine_le(Interval(0, 10), Interval(0, 5))
        assert a == Interval(0, 5)
        assert b == Interval(0, 5)

    def test_refine_eq(self):
        a, b = lat.refine_eq(Interval(0, 10), Interval(5, 20))
        assert a == b == Interval(5, 10)

    def test_refine_ne_trims_boundary_singleton(self):
        a, b = lat.refine_ne(Interval(0, 10), const(0))
        assert a == Interval(1, 10)
        a, b = lat.refine_ne(Interval(0, 10), const(10))
        assert a == Interval(0, 9)
        a, b = lat.refine_ne(Interval(0, 10), const(5))
        assert a == Interval(0, 10)  # interior points cannot be expressed

    def test_refine_contradiction_gives_bottom(self):
        a, b = lat.refine_lt(const(5), const(2))
        assert a is None or b is None
