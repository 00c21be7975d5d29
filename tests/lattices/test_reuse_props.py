"""Lattice operations that return an argument when the result equals it.

``IntervalLattice.join/meet/widen/narrow`` pick each bound from one
argument and return that argument itself when both picked bounds are its
own bound objects; ``ArrayEnvLattice`` does the same slot-wise.  The
properties compare against the formulas that always built a new element:
the values (and the bound objects) agree, and an argument comes back only
when it equals the result.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given

from repro.lattices import IntervalLattice
from repro.lattices.envlat import ArrayEnv, ArrayEnvLattice
from repro.lattices.interval import NEG_INF, POS_INF, Interval

plain = IntervalLattice()
thresholded = IntervalLattice(thresholds=(-10, 0, 10, 1000))

#: Small ints share objects, large ones do not, and an integral float is
#: a valid bound too: all three make ``is`` and ``==`` disagree somewhere.
bounds = st.one_of(
    st.integers(min_value=-12, max_value=12),
    st.integers(min_value=10**6, max_value=10**6 + 3),
    st.integers(min_value=-12, max_value=12).map(float),
)


@st.composite
def intervals(draw):
    if draw(st.integers(0, 9)) == 0:
        return None
    lo, hi = sorted((draw(bounds), draw(bounds)))
    if draw(st.booleans()) and draw(st.booleans()):
        lo = NEG_INF
    if draw(st.booleans()) and draw(st.booleans()):
        hi = POS_INF
    return Interval(lo, hi)


def old_join(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


def old_meet(a, b):
    if a is None or b is None:
        return None
    lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
    return Interval(lo, hi) if lo <= hi else None


def old_widen(lat):
    def widen(a, b):
        if a is None:
            return b
        if b is None:
            return a
        lo = a.lo if a.lo <= b.lo else lat._widen_lower(b.lo)
        hi = a.hi if b.hi <= a.hi else lat._widen_upper(b.hi)
        return Interval(lo, hi)

    return widen


def old_narrow(a, b):
    if a is None or b is None:
        return b
    lo = b.lo if a.lo == NEG_INF else a.lo
    hi = b.hi if a.hi == POS_INF else a.hi
    return Interval(lo, hi) if lo <= hi else None


def same(new, old) -> bool:
    """Equal values built from the very same bound objects."""
    if old is None or new is None:
        return new is old
    return new.lo is old.lo and new.hi is old.hi


CASES = [
    (plain.join, old_join),
    (plain.meet, old_meet),
    (plain.widen, old_widen(plain)),
    (thresholded.widen, old_widen(thresholded)),
    (plain.narrow, old_narrow),
]


@given(intervals(), intervals())
def test_interval_ops_agree_with_the_allocating_formulas(a, b):
    for new_op, old_op in CASES:
        new, old = new_op(a, b), old_op(a, b)
        assert new == old
        assert same(new, old)


@given(intervals(), intervals())
def test_an_argument_is_returned_exactly_when_it_holds_the_result(a, b):
    # Where the formula picks both bounds from one argument, that
    # argument itself is the result; otherwise a new interval is.
    for new_op, old_op in CASES:
        new, old = new_op(a, b), old_op(a, b)
        if a is None or b is None or old is None:
            continue
        for arg in (a, b):
            if old.lo is arg.lo and old.hi is arg.hi:
                assert new is a or new is b
        if new is a:
            assert a.lo is old.lo and a.hi is old.hi
        if new is b:
            assert b.lo is old.lo and b.hi is old.hi


env_lat = ArrayEnvLattice(["x", "y", "z"], plain)
envs = st.lists(intervals(), min_size=3, max_size=3).map(
    lambda values: ArrayEnv(env_lat.schema, values)
)


@given(envs, envs)
def test_env_ops_agree_slot_wise_and_reuse_only_identical_arguments(a, b):
    for name in ("join", "meet", "widen", "narrow"):
        new = getattr(env_lat, name)(a, b)
        slot_op = getattr(plain, name)
        expected = [slot_op(x, y) for x, y in zip(a.values_tuple, b.values_tuple)]
        assert list(new.values_tuple) == expected
        for arg in (a, b):
            if new is arg:
                assert all(
                    got is want for got, want in zip(arg.values_tuple, expected)
                )
    assert env_lat.leq(a, b) == all(
        plain.leq(x, y) for x, y in zip(a.values_tuple, b.values_tuple)
    )


@given(envs)
def test_env_join_with_bottom_returns_an_argument(a):
    bottom = env_lat.bottom
    assert env_lat.join(a, bottom) is a
    # Slots equal to bottom's are bottom's own ``None``: either argument
    # holds the result then.
    assert env_lat.join(bottom, a) in (a, bottom)
    assert any(env_lat.join(bottom, a) is arg for arg in (a, bottom))
