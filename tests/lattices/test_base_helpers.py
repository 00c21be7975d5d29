"""Tests for base-class helpers and small utilities not covered elsewhere."""

from __future__ import annotations

import pytest

from repro.lattices import (
    ArrayEnv,
    BoolLattice,
    EnvSchema,
    IntervalLattice,
    NatInf,
    Parity,
    Sign,
)
from repro.lattices.base import LatticeError
from repro.lattices.interval import widen_sequence, Interval


class TestFiniteLatticeHeight:
    def test_bool_height(self):
        assert BoolLattice().height() == 2

    def test_parity_height(self):
        assert Parity().height() == 3

    def test_sign_height(self):
        assert Sign().height() == 4


class TestJoinMeetAll:
    nat = NatInf()

    def test_empty_iterables(self):
        assert self.nat.join_all([]) == self.nat.bottom
        assert self.nat.meet_all([]) == self.nat.top

    def test_non_empty(self):
        assert self.nat.join_all([1, 5, 3]) == 5
        assert self.nat.meet_all([4, 2, 9]) == 2


class TestWidenSequence:
    def test_stabilises(self):
        lat = IntervalLattice()
        seq = [Interval(0, i) for i in range(20)]
        out = widen_sequence(lat, seq)
        assert out.lo == 0
        assert out.hi == float("inf")

    def test_single_element(self):
        lat = IntervalLattice()
        assert widen_sequence(lat, [Interval(1, 2)]) == Interval(1, 2)


class TestFrozenMapHelpers:
    def test_set_many(self):
        base = ArrayEnv(EnvSchema("abc"), (1, 2, 3))
        out = base.set_many({"b": 20, "c": 30})
        assert dict(out) == {"a": 1, "b": 20, "c": 30}
        assert dict(base) == {"a": 1, "b": 2, "c": 3}

    def test_equality_with_plain_mapping(self):
        assert ArrayEnv(EnvSchema("a"), (1,)) == {"a": 1}
        assert ArrayEnv(EnvSchema("a"), (1,)) != {"a": 2}

    def test_repr_is_sorted(self):
        assert repr(ArrayEnv(EnvSchema("ba"), (2, 1))) == "{'a': 1, 'b': 2}"

    def test_hash_consistency_after_set(self):
        a = ArrayEnv(EnvSchema("x"), (1,))
        b = a.set("x", 1)
        assert a == b and hash(a) == hash(b)


class TestLatticeRepr:
    def test_repr_contains_name(self):
        assert "nat-inf" in repr(NatInf())

    def test_default_format(self):
        class Trivial(BoolLattice):
            pass

        assert Trivial().format(True) == "True"


class TestDelayedWideningInSolver:
    def test_global_delay_cooperates_with_solver(self):
        """The DelayedWidening lattice wrapper (global budget) keeps one
        join before widening, observable through a solver run."""
        from repro.eqs import DictSystem
        from repro.lattices import DelayedWidening
        from repro.solvers import WidenCombine, solve_sw

        nat = NatInf()
        delayed = DelayedWidening(nat, delay=50)
        system = DictSystem(
            delayed,
            {"x": (lambda get: min(get("x") + 1, 5), ["x"])},
        )
        result = solve_sw(system, WidenCombine(delayed), max_evals=1_000)
        # With a generous join budget the chain climbs to its cap exactly.
        assert result.sigma["x"] == 5
