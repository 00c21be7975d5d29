"""Shared test configuration: hypothesis profiles and element strategies."""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from repro.lattices import (
    ArrayEnvLattice,
    BoolLattice,
    Flat,
    IntervalLattice,
    Interval,
    NatInf,
    NEG_INF,
    POS_INF,
    Parity,
    PowersetLattice,
    ProductLattice,
    Sign,
)

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# --------------------------------------------------------------------- #
# Element strategies, one per shipped domain.                           #
# --------------------------------------------------------------------- #

def natinf_elements() -> st.SearchStrategy:
    """Elements of the N | {oo} chain."""
    return st.one_of(st.integers(min_value=0, max_value=40), st.just(float("inf")))


def interval_elements() -> st.SearchStrategy:
    """Interval elements, including bottom and infinite bounds."""

    def build(pair):
        lo, hi = sorted(pair)
        return Interval(lo, hi)

    bounded = st.tuples(
        st.integers(min_value=-50, max_value=50),
        st.integers(min_value=-50, max_value=50),
    ).map(build)
    lower_ray = st.integers(min_value=-50, max_value=50).map(
        lambda hi: Interval(NEG_INF, hi)
    )
    upper_ray = st.integers(min_value=-50, max_value=50).map(
        lambda lo: Interval(lo, POS_INF)
    )
    return st.one_of(
        st.none(),
        bounded,
        lower_ray,
        upper_ray,
        st.just(Interval(NEG_INF, POS_INF)),
    )


def sign_elements() -> st.SearchStrategy:
    """All eight sign elements."""
    return st.sampled_from(sorted(Sign().elements(), key=sorted))


def parity_elements() -> st.SearchStrategy:
    """All four parity elements."""
    return st.sampled_from(sorted(Parity().elements(), key=sorted))


def bool_elements() -> st.SearchStrategy:
    """The two boolean elements."""
    return st.booleans()


def flat_elements() -> st.SearchStrategy:
    """Flat-lattice elements over small integers."""
    from repro.lattices import FlatBot, FlatTop

    return st.one_of(
        st.just(FlatBot),
        st.just(FlatTop),
        st.integers(min_value=-5, max_value=5),
    )


_POWERSET_UNIVERSE = ("a", "b", "c", "d")


def powerset_lattice() -> PowersetLattice:
    """A small fixed powerset lattice used across tests."""
    return PowersetLattice(_POWERSET_UNIVERSE)


def powerset_elements() -> st.SearchStrategy:
    """Subsets of the fixed four-element universe."""
    return st.sets(st.sampled_from(_POWERSET_UNIVERSE)).map(frozenset)


def congruence_elements() -> st.SearchStrategy:
    """Congruence elements: bottom, constants and proper residues."""
    from repro.lattices.congruence import congruence, const as cg_const

    constants = st.integers(-15, 15).map(cg_const)
    proper = st.tuples(st.integers(1, 10), st.integers(-15, 15)).map(
        lambda mr: congruence(*mr)
    )
    return st.one_of(st.none(), constants, proper)


def lifted_elements() -> st.SearchStrategy:
    """Elements of the bottom-lifted interval lattice."""
    from repro.lattices.lifted import LiftedBottom

    return st.one_of(st.just(LiftedBottom), interval_elements())


def union_elements() -> st.SearchStrategy:
    """Elements of a two-branch tagged union (nat + sign)."""
    from repro.lattices.union import UNION_BOT, UNION_TOP

    return st.one_of(
        st.just(UNION_BOT),
        st.just(UNION_TOP),
        natinf_elements().map(lambda v: ("n", v)),
        sign_elements().map(lambda v: ("s", v)),
    )


def lattice_cases() -> list:
    """(lattice, element-strategy) pairs covering every shipped domain."""
    from repro.lattices import CongruenceLattice, Lifted, TaggedUnionLattice

    interval = IntervalLattice()
    product = ProductLattice([NatInf(), Sign()])
    mapping = ArrayEnvLattice(["x", "y"], interval)
    union = TaggedUnionLattice({"n": NatInf(), "s": Sign()})
    return [
        (NatInf(), natinf_elements()),
        (interval, interval_elements()),
        (Sign(), sign_elements()),
        (Parity(), parity_elements()),
        (BoolLattice(), bool_elements()),
        (Flat(), flat_elements()),
        (powerset_lattice(), powerset_elements()),
        (
            product,
            st.tuples(natinf_elements(), sign_elements()),
        ),
        (
            mapping,
            st.fixed_dictionaries(
                {"x": interval_elements(), "y": interval_elements()}
            ).map(mapping.make),
        ),
        (CongruenceLattice(), congruence_elements()),
        (Lifted(IntervalLattice()), lifted_elements()),
        (union, union_elements()),
    ]
