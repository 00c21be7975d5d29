"""Array-backed environment lattices: interop with FrozenMap, codecs,
and the lattice laws the hot-path rewrite must preserve."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.analysis import IntervalDomain
from repro.lattices import (
    ArrayEnv,
    ArrayEnvLattice,
    EnvSchema,
    Interval,
    IntervalLattice,
    MapLattice,
)
from repro.lattices.base import Lattice
from repro.lattices.interval import const
from repro.lattices.maplat import FrozenMap
from repro.lattices.product import ProductLattice
from tests.conftest import interval_elements

iv = IntervalLattice()
KEYS = ("a", "b", "c")


@pytest.fixture
def lat() -> ArrayEnvLattice:
    return ArrayEnvLattice(KEYS, iv)


def env(lat, **bindings) -> ArrayEnv:
    data = {k: iv.bottom for k in KEYS}
    data.update(bindings)
    return lat.make(data)


class TestFrozenMapInterop:
    """ArrayEnv elements and plain FrozenMaps of the same bindings must
    be interchangeable -- decoded snapshots meet live values as dict
    keys (contexts, memo tables) and in equality checks."""

    def test_is_a_frozen_map(self, lat):
        assert isinstance(lat.top, FrozenMap)

    def test_equal_to_a_frozen_map_of_the_same_bindings(self, lat):
        a = env(lat, a=const(1))
        f = FrozenMap({"a": const(1), "b": iv.bottom, "c": iv.bottom})
        assert a == f
        assert f == a

    def test_hash_agrees_with_frozen_map(self, lat):
        a = env(lat, a=const(1))
        f = FrozenMap(dict(a))
        assert hash(a) == hash(f)
        assert len({a: 1, f: 2}) == 1

    def test_mapping_interface(self, lat):
        a = env(lat, b=Interval(0, 5))
        assert a["b"] == Interval(0, 5)
        assert set(a) == set(KEYS)
        assert len(a) == 3
        assert dict(a)["b"] == Interval(0, 5)

    def test_set_and_set_many_stay_array_backed(self, lat):
        a = env(lat).set("a", const(7))
        assert isinstance(a, ArrayEnv)
        assert a["a"] == const(7)
        b = a.set_many({"b": const(1), "c": const(2)})
        assert isinstance(b, ArrayEnv)
        assert (b["a"], b["b"], b["c"]) == (const(7), const(1), const(2))


class TestLatticeOps:
    def test_bottom_top_are_cached_singletons(self, lat):
        assert lat.bottom is lat.bottom
        assert lat.top is lat.top

    def test_ops_match_map_lattice(self, lat):
        reference = MapLattice(KEYS, iv)
        a = env(lat, a=Interval(0, 3), b=const(1))
        b = env(lat, a=Interval(2, 9), c=const(4))
        for name in ("join", "meet", "widen", "narrow"):
            mine = getattr(lat, name)(a, b)
            theirs = getattr(reference, name)(FrozenMap(dict(a)), FrozenMap(dict(b)))
            assert mine == theirs, name
        assert lat.leq(a, lat.join(a, b))
        assert lat.equal(a, a)
        assert not lat.equal(a, b)

    def test_ops_accept_plain_mappings(self, lat):
        a = env(lat, a=const(1))
        f = FrozenMap(dict(env(lat, a=const(2))))
        joined = lat.join(a, f)
        assert isinstance(joined, ArrayEnv)
        assert joined["a"] == Interval(1, 2)

    def test_validate(self, lat):
        from repro.lattices import LatticeError

        lat.validate(lat.top)
        with pytest.raises(LatticeError):
            lat.validate(FrozenMap({"a": iv.bottom}))

    def test_schema_is_shared(self, lat):
        assert env(lat).schema is lat.schema
        assert EnvSchema(KEYS).keys == lat.schema.keys


class TestCodecRoundTrip:
    def test_round_trip_through_the_map_codec(self, lat):
        from repro.incremental import value_codec

        codec = value_codec(lat)
        a = env(lat, a=Interval(0, 5), b=const(3))
        decoded = codec.decode(codec.encode(a))
        # The codec may decode to a plain FrozenMap; interop guarantees
        # equality, hashing and lattice ops still line up.
        assert decoded == a
        assert hash(decoded) == hash(a)
        assert lat.equal(decoded, a)

    def test_analysis_snapshot_round_trip(self):
        """End-to-end: the interprocedural analysis now solves over
        ArrayEnv environments; snapshots must still encode/decode."""
        from repro.analysis import analyze_program
        from repro.batch.jobs import build_domain, build_policy
        from repro.incremental import analyze_and_snapshot
        from repro.lang import compile_program

        source = """
        int main() {
            int i = 0;
            while (i < 3) { i = i + 1; }
            return i;
        }
        """
        cfg = compile_program(source)
        domain = build_domain("interval", ())
        result, state = analyze_and_snapshot(cfg, domain)
        blob = state.dumps(result.lattice)
        from repro.incremental import SolverState

        restored = SolverState.loads(blob, result.lattice)
        assert restored.sigma == state.sigma


class _UnorderedSets(Lattice):
    """Subsets of {0, 1, 2} kept as tuples in any order: ``equal`` is
    set equality, so equal elements need not be ``==``."""

    name = "unordered-sets"
    bottom = ()
    top = (0, 1, 2)

    def leq(self, a, b):
        return set(a) <= set(b)

    def join(self, a, b):
        return tuple(sorted(set(a) | set(b)))

    def meet(self, a, b):
        return tuple(sorted(set(a) & set(b)))

    def equal(self, a, b):
        return set(a) == set(b)


_SETS = st.lists(st.sampled_from((0, 1, 2)), unique=True).map(tuple)
_PRODUCT = ProductLattice([iv, _UnorderedSets()])


def _pointwise_equal(value, a, b) -> bool:
    return all(value.equal(a[k], b[k]) for k in KEYS)


class TestEqualFastPath:
    """``equal`` compares value tuples with one ``==`` only for value
    lattices that inherit ``equal``; it must agree with the point-wise
    definition either way."""

    @pytest.mark.parametrize("value", [iv, IntervalDomain()])
    @given(
        st.lists(interval_elements(), min_size=6, max_size=6), st.booleans()
    )
    def test_inherited_equal_matches_pointwise(self, value, draws, twin):
        lat = ArrayEnvLattice(KEYS, value)
        a = lat.make(dict(zip(KEYS, draws[:3])))
        # Equal-but-distinct copies of a's values, or independent ones.
        b_values = [_copy(x) for x in draws[:3]] if twin else draws[3:]
        b = lat.make(dict(zip(KEYS, b_values)))
        expected = _pointwise_equal(value, a, b)
        assert lat.equal(a, b) is expected
        assert lat.equal(a, FrozenMap(dict(b))) is expected

    @given(
        st.lists(st.tuples(interval_elements(), _SETS), min_size=3, max_size=3),
        st.lists(st.permutations((0, 1, 2)), min_size=3, max_size=3),
    )
    def test_overridden_equal_stays_pointwise(self, pairs, orders):
        lat = ArrayEnvLattice(KEYS, _PRODUCT)
        a = lat.make(dict(zip(KEYS, pairs)))
        # The same sets, listed in another order: equal, but not ``==``.
        shuffled = [
            (i, tuple(x for x in order if x in s))
            for (i, s), order in zip(pairs, orders)
        ]
        b = lat.make(dict(zip(KEYS, shuffled)))
        assert _pointwise_equal(_PRODUCT, a, b)
        assert lat.equal(a, b)
        c = lat.make({**dict(zip(KEYS, shuffled)), "a": (const(99), ())})
        assert lat.equal(a, c) is _pointwise_equal(_PRODUCT, a, c)


def _copy(value):
    return None if value is None else Interval(value.lo, value.hi)
