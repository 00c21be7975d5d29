"""Round-trip tests for the per-domain value codecs and the unknown codec.

Every codec must satisfy ``decode(json.loads(json.dumps(encode(v)))) == v``
up to lattice equality -- serialization goes through real JSON so that
tuples-vs-lists and infinity handling cannot hide in Python object identity.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import IntervalDomain, IntervalCongruenceDomain, SignDomain
from repro.analysis.inter import GV, PP, InterAnalysis
from repro.incremental import CodecError, UnknownCodec, value_codec
from repro.lang import compile_program
from repro.lattices import (
    INF,
    NEG_INF,
    POS_INF,
    ArrayEnvLattice,
    BoolLattice,
    CongruenceLattice,
    Flat,
    Interval,
    IntervalLattice,
    Lifted,
    NatInf,
    Parity,
    PowersetLattice,
    ProductLattice,
    Sign,
    TaggedUnionLattice,
)


def roundtrip(lattice, value):
    codec = value_codec(lattice)
    wire = json.loads(json.dumps(codec.encode(value)))
    return codec.decode(wire)


def assert_roundtrips(lattice, values):
    for v in values:
        back = roundtrip(lattice, v)
        assert lattice.equal(back, v), f"{v!r} came back as {back!r}"


class TestScalarLattices:
    def test_natinf(self):
        assert_roundtrips(NatInf(), [0, 1, 17, INF])

    def test_interval(self):
        iv = IntervalLattice()
        assert_roundtrips(
            iv,
            [
                iv.bottom,
                Interval(1, 3),
                Interval(NEG_INF, 4),
                Interval(0, POS_INF),
                iv.top,
            ],
        )

    def test_flat(self):
        lat = Flat()
        assert_roundtrips(lat, [lat.bottom, lat.top, lat.from_const(42)])

    def test_bool(self):
        lat = BoolLattice()
        assert_roundtrips(lat, [False, True])

    def test_sign_parity_powerset(self):
        assert_roundtrips(Sign(), [Sign().bottom, Sign().top])
        assert_roundtrips(Parity(), [Parity().bottom, Parity().top])
        ps = PowersetLattice(["a", "b", "c"])
        assert_roundtrips(ps, [ps.bottom, frozenset({"a", "c"}), ps.top])

    def test_congruence(self):
        lat = CongruenceLattice()
        assert_roundtrips(lat, [lat.bottom, lat.top, lat.from_const(5)])


class TestCompositeLattices:
    def test_map(self):
        iv = IntervalLattice()
        lat = ArrayEnvLattice(("x", "y"), iv)
        env = lat.make({"x": Interval(1, 2), "y": iv.bottom})
        assert_roundtrips(lat, [lat.bottom, env, lat.top])
        assert roundtrip(lat, env).schema is lat.schema

    def test_lifted(self):
        iv = IntervalLattice()
        lat = Lifted(ArrayEnvLattice(("x",), iv))
        assert_roundtrips(lat, [lat.bottom, lat.top])

    def test_product(self):
        lat = ProductLattice((IntervalLattice(), Sign()))
        assert_roundtrips(lat, [lat.bottom, lat.top])

    def test_tagged_union_via_analysis(self):
        cfg = compile_program(
            "int g = 1;\n"
            "void f(int a) { g = a; }\n"
            "int main() { f(3); return g; }\n"
        )
        analysis = InterAnalysis(cfg, IntervalDomain())
        lat = analysis.lattice
        values = [lat.bottom, lat.top]
        values.append(lat.inject("val", Interval(0, 7)))
        assert_roundtrips(lat, values)


class TestDomainWrappers:
    """Wrappers delegate to an inner lattice; dispatch must find it."""

    def test_interval_domain(self):
        dom = IntervalDomain()
        assert_roundtrips(dom, [dom.bottom, Interval(2, 9), dom.top])

    def test_sign_domain(self):
        dom = SignDomain()
        assert_roundtrips(dom, [dom.bottom, dom.top])

    def test_product_domain(self):
        dom = IntervalCongruenceDomain()
        assert_roundtrips(dom, [dom.bottom, dom.from_const(6), dom.top])

    def test_unsupported_lattice_raises(self):
        class Exotic:
            pass

        with pytest.raises(CodecError):
            value_codec(Exotic())


class TestUnknownCodec:
    def test_plain_and_structured_unknowns(self):
        cfg = compile_program("int main() { return 0; }")
        fn = cfg.functions["main"]
        node = fn.entry
        uc = UnknownCodec()
        unknowns = [
            "x1",
            42,
            ("f", 1),
            ("nested", ("deep", 3)),
            None,
            node,
            PP("main", None, node),
            PP("main", ("ctx", 2), node),
            GV("g"),
            frozenset({"a", "b"}),
        ]
        for u in unknowns:
            wire = json.loads(json.dumps(uc.encode(u)))
            assert uc.decode(wire) == u, f"unknown {u!r} failed to round-trip"

    def test_distinct_unknowns_stay_distinct(self):
        uc = UnknownCodec()
        a, b = uc.encode("1"), uc.encode(1)
        assert a != b
        assert uc.decode(a) == "1" and uc.decode(b) == 1
