"""Tests for product/map/lifted combinators and the widening combinators."""

from __future__ import annotations

import pytest

from repro.lattices import (
    ArrayEnvLattice,
    DelayedWidening,
    Interval,
    IntervalLattice,
    Lifted,
    LiftedBottom,
    NarrowToMeet,
    NatInf,
    ProductLattice,
    Sign,
    ThresholdWidening,
    INF,
    NEG_INF,
    POS_INF,
)
from repro.lattices.base import LatticeError
from repro.lattices.interval import const

iv = IntervalLattice()


class TestProduct:
    prod = ProductLattice([NatInf(), Sign()])

    def test_componentwise_order(self):
        s = Sign()
        assert self.prod.leq((1, s.NEG), (2, s.TOP))
        assert not self.prod.leq((2, s.TOP), (1, s.NEG))

    def test_widen_narrow_componentwise(self):
        s = Sign()
        w = self.prod.widen((1, s.NEG), (2, s.NEG))
        assert w == (INF, s.NEG)
        n = self.prod.narrow(w, (2, s.NEG))
        assert n == (2, s.NEG)

    def test_empty_product_rejected(self):
        with pytest.raises(LatticeError):
            ProductLattice([])

    def test_validate(self):
        with pytest.raises(LatticeError):
            self.prod.validate((1,))

    def test_format(self):
        s = Sign()
        assert self.prod.format((INF, s.BOT)) == "(oo, _|_)"


class TestMapLattice:
    env = ArrayEnvLattice(["x", "y"], iv)

    def test_bottom_and_top(self):
        bot = self.env.bottom
        assert bot["x"] is None and bot["y"] is None
        top = self.env.top
        assert top["x"] == Interval(NEG_INF, POS_INF)

    def test_pointwise_join(self):
        a = self.env.make({"x": const(1), "y": None})
        b = self.env.make({"x": const(3), "y": const(0)})
        j = self.env.join(a, b)
        assert j["x"] == Interval(1, 3)
        assert j["y"] == const(0)

    def test_frozen_map_is_hashable_and_value_equal(self):
        a = self.env.make({"x": const(1), "y": None})
        b = ArrayEnvLattice(["y", "x"], iv).make({"y": None, "x": const(1)})
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_set_returns_new_map(self):
        a = self.env.make({"x": const(1), "y": None})
        b = a.set("x", const(2))
        assert a["x"] == const(1)
        assert b["x"] == const(2)

    def test_validate_requires_exact_keys(self):
        with pytest.raises(LatticeError):
            self.env.validate(ArrayEnvLattice(["x"], iv).make({"x": const(1)}))
        with pytest.raises(LatticeError):
            self.env.validate({"x": const(1), "y": None})

    def test_widen_pointwise(self):
        a = self.env.make({"x": Interval(0, 1), "y": None})
        b = self.env.make({"x": Interval(0, 2), "y": None})
        w = self.env.widen(a, b)
        assert w["x"] == Interval(0, POS_INF)


class TestLifted:
    lifted = Lifted(IntervalLattice())

    def test_fresh_bottom_below_inner_bottom(self):
        assert self.lifted.leq(LiftedBottom, None)
        assert not self.lifted.leq(None, LiftedBottom)

    def test_join_meet(self):
        assert self.lifted.join(LiftedBottom, const(1)) == const(1)
        assert self.lifted.meet(LiftedBottom, const(1)) is LiftedBottom

    def test_widen_narrow_delegate(self):
        w = self.lifted.widen(Interval(0, 1), Interval(0, 2))
        assert w == Interval(0, POS_INF)
        assert self.lifted.widen(LiftedBottom, const(5)) == const(5)
        assert self.lifted.narrow(w, Interval(0, 2)) == Interval(0, 2)

    def test_format(self):
        assert self.lifted.format(LiftedBottom) == "unreachable"


class TestThresholdWidening:
    def test_widens_through_thresholds(self):
        nat = NatInf()
        tw = ThresholdWidening(nat, thresholds=[10, 100])
        assert tw.widen(3, 5) == 10
        assert tw.widen(10, 11) == 100
        assert tw.widen(100, 101) == INF

    def test_still_covers_join(self):
        nat = NatInf()
        tw = ThresholdWidening(nat, thresholds=[10])
        for a in (0, 5, 11):
            for b in (0, 7, 12):
                assert tw.leq(tw.join(a, b), tw.widen(a, b))


class TestDelayedWidening:
    def test_joins_then_widens(self):
        nat = NatInf()
        dw = DelayedWidening(nat, delay=2)
        assert dw.widen(0, 1) == 1  # join
        assert dw.widen(1, 2) == 2  # join
        assert dw.widen(2, 3) == INF  # budget exhausted: real widening

    def test_reset(self):
        nat = NatInf()
        dw = DelayedWidening(nat, delay=1)
        assert dw.widen(0, 1) == 1
        assert dw.widen(1, 2) == INF
        dw.reset()
        assert dw.widen(0, 1) == 1

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            DelayedWidening(NatInf(), delay=-1)


class TestNarrowToMeet:
    def test_narrow_is_meet(self):
        nm = NarrowToMeet(IntervalLattice())
        # The safe interval narrowing would keep the finite bound 100;
        # meet-narrowing takes the full improvement.
        assert nm.narrow(Interval(0, 100), Interval(0, 41)) == Interval(0, 41)

    def test_rest_delegates(self):
        nm = NarrowToMeet(IntervalLattice())
        assert nm.widen(Interval(0, 1), Interval(0, 2)) == Interval(0, POS_INF)
        assert nm.bottom is None
