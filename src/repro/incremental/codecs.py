"""JSON codecs for lattice values and solver unknowns.

Persisting a solver state (:mod:`repro.incremental.state`) requires
turning two kinds of objects into JSON and back:

* **lattice values** -- intervals, ``N | {oo}`` elements, abstract
  environments, tagged-union elements, ...  The codec for a value is
  *derived from the lattice* that owns it: :func:`value_codec` walks the
  lattice's structure (``Lifted`` wraps an inner lattice,
  ``ArrayEnvLattice`` has a value lattice per key, ``TaggedUnionLattice``
  has one branch per tag) and composes the leaf codecs accordingly.
  Custom domains hook in via :func:`register_value_codec`.
* **unknowns** -- strings and integers for the toy systems, CFG
  :class:`~repro.lang.cfg.Node` values for the intraprocedural analysis,
  ``PP``/``GV`` records for the interprocedural one, and pairs thereof
  for SLR+'s per-origin contributions.  :class:`UnknownCodec` handles all
  of these structurally.

Every encoder produces plain JSON types only (no ``Infinity`` literals:
infinite bounds are spelled ``"-oo"``/``"+oo"``), so the output of
:meth:`SolverState.to_json` survives any strict JSON parser.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Type

from repro.lattices.base import Lattice


class CodecError(Exception):
    """Raised when a value or unknown cannot be (de)serialized."""


# --------------------------------------------------------------------- #
# Bound helpers (interval bounds, N | {oo} elements).                   #
# --------------------------------------------------------------------- #

_NEG = "-oo"
_POS = "+oo"
_NEG_INF = float("-inf")
_POS_INF = float("inf")


def _encode_bound(b) -> Any:
    if b == _NEG_INF:
        return _NEG
    if b == _POS_INF:
        return _POS
    return int(b)


def _decode_bound(j) -> Any:
    if j == _NEG:
        return float("-inf")
    if j == _POS:
        return float("inf")
    return int(j)


# --------------------------------------------------------------------- #
# Value codecs.                                                         #
# --------------------------------------------------------------------- #

class ValueCodec:
    """Encode/decode elements of one lattice to/from JSON-able data."""

    def __init__(
        self, encode: Callable[[Any], Any], decode: Callable[[Any], Any]
    ) -> None:
        self.encode = encode
        self.decode = decode


#: Custom codec factories: lattice type -> (lattice -> ValueCodec).
_VALUE_CODECS: Dict[Type, Callable[[Lattice], ValueCodec]] = {}


def register_value_codec(
    lattice_cls: Type, factory: Callable[[Lattice], ValueCodec]
) -> None:
    """Register a codec factory for a (custom) lattice class.

    ``factory`` receives the lattice instance and returns its codec;
    registration of a subclass shadows the structural derivation in
    :func:`value_codec`.
    """
    _VALUE_CODECS[lattice_cls] = factory


def _interval_codec(_lat) -> ValueCodec:
    from repro.lattices.interval import Interval

    def enc(v):
        if v is None:
            return None
        return [_encode_bound(v.lo), _encode_bound(v.hi)]

    def dec(j):
        if j is None:
            return None
        return Interval(_decode_bound(j[0]), _decode_bound(j[1]))

    return ValueCodec(enc, dec)


def _natinf_codec(_lat) -> ValueCodec:
    def enc(v):
        return "oo" if v == float("inf") else int(v)

    def dec(j):
        return float("inf") if j == "oo" else int(j)

    return ValueCodec(enc, dec)


def _flat_codec(_lat) -> ValueCodec:
    from repro.lattices.flat import FlatBot, FlatTop

    def enc(v):
        if v is FlatBot:
            return "_bot_"
        if v is FlatTop:
            return "_top_"
        return ["c", v]

    def dec(j):
        if j == "_bot_":
            return FlatBot
        if j == "_top_":
            return FlatTop
        return j[1]

    return ValueCodec(enc, dec)


def _bool_codec(_lat) -> ValueCodec:
    return ValueCodec(bool, bool)


def _frozenset_codec(_lat) -> ValueCodec:
    def enc(v):
        return sorted(v, key=repr)

    def dec(j):
        return frozenset(j)

    return ValueCodec(enc, dec)


def _congruence_codec(_lat) -> ValueCodec:
    def enc(v):
        if v is None:
            return None
        m, r = v
        return [int(m), int(r)]

    def dec(j):
        if j is None:
            return None
        return (int(j[0]), int(j[1]))

    return ValueCodec(enc, dec)


def _map_codec(lat) -> ValueCodec:
    """Environments as ``{key: value}`` objects, keys sorted by name.

    An environment over the lattice's own keys decodes into its schema;
    one over other keys (a function whose layout changed since the
    snapshot) decodes over its own keys.
    """
    from repro.lattices.envlat import ArrayEnv, EnvSchema

    inner = value_codec(lat.value_lattice)
    encode, decode = inner.encode, inner.decode
    schema = lat.schema
    names = [str(k) for k in schema.keys]
    own = set(names)
    order = sorted((name, i) for i, name in enumerate(names))

    def enc(v):
        if v.schema is schema:
            values = v.values_tuple
            return {name: encode(values[i]) for name, i in order}
        return {str(k): encode(v[k]) for k in sorted(v, key=str)}

    def dec(j):
        if j.keys() == own:
            return ArrayEnv(schema, [decode(j[name]) for name in names])
        return ArrayEnv(EnvSchema(j), map(decode, j.values()))

    return ValueCodec(enc, dec)


def _lifted_codec(lat) -> ValueCodec:
    from repro.lattices.lifted import LiftedBottom

    inner = value_codec(lat.inner)

    def enc(v):
        if v is LiftedBottom:
            return "_unreachable_"
        return ["v", inner.encode(v)]

    def dec(j):
        if j == "_unreachable_":
            return LiftedBottom
        return inner.decode(j[1])

    return ValueCodec(enc, dec)


def _encode_tag(tag) -> Any:
    if isinstance(tag, str):
        return tag
    if isinstance(tag, tuple):
        return list(tag)
    raise CodecError(f"unsupported union tag {tag!r}")


def _union_codec(lat) -> ValueCodec:
    from repro.lattices.union import UNION_BOT, UNION_TOP

    branch_codecs = {
        tag: value_codec(branch) for tag, branch in lat.branches.items()
    }
    by_encoded = {repr(_encode_tag(t)): t for t in branch_codecs}

    def enc(v):
        if v == UNION_BOT:
            return "_bot_"
        if v == UNION_TOP:
            return "_top_"
        tag, payload = v
        return [_encode_tag(tag), branch_codecs[tag].encode(payload)]

    def dec(j):
        if j == "_bot_":
            return UNION_BOT
        if j == "_top_":
            return UNION_TOP
        raw_tag, payload = j
        tag = by_encoded[repr(raw_tag if isinstance(raw_tag, str) else list(raw_tag))]
        return (tag, branch_codecs[tag].decode(payload))

    return ValueCodec(enc, dec)


def _product_codec(lat) -> ValueCodec:
    parts = [value_codec(f) for f in lat.factors]

    def enc(v):
        return [c.encode(x) for c, x in zip(parts, v)]

    def dec(j):
        return tuple(c.decode(x) for c, x in zip(parts, j))

    return ValueCodec(enc, dec)


def _product_domain_codec(lat) -> ValueCodec:
    first = value_codec(lat.first)
    second = value_codec(lat.second)

    def enc(v):
        if v is None:
            return None
        return [first.encode(v[0]), second.encode(v[1])]

    def dec(j):
        if j is None:
            return None
        return (first.decode(j[0]), second.decode(j[1]))

    return ValueCodec(enc, dec)


def value_codec(lattice: Lattice) -> ValueCodec:
    """Derive the JSON codec of ``lattice``'s elements from its structure.

    Handles every lattice shipped with the reproduction (and the numeric
    domain adapters of :mod:`repro.analysis.values`).  Custom domains
    either subclass a handled lattice or register a factory via
    :func:`register_value_codec`.
    """
    for cls in type(lattice).__mro__:
        if cls in _VALUE_CODECS:
            return _VALUE_CODECS[cls](lattice)
    # Domain adapters delegate to an underlying lattice attribute.
    for attr in ("iv", "flat", "cong", "sign"):
        inner = getattr(lattice, attr, None)
        if isinstance(inner, Lattice):
            return value_codec(inner)
    raise CodecError(
        f"no JSON codec for lattice {lattice!r}; register one with "
        f"repro.incremental.codecs.register_value_codec"
    )


def _install_builtin_codecs() -> None:
    from repro.lattices.boollat import BoolLattice
    from repro.lattices.congruence import CongruenceLattice
    from repro.lattices.envlat import ArrayEnvLattice
    from repro.lattices.flat import Flat
    from repro.lattices.interval import IntervalLattice
    from repro.lattices.lifted import Lifted
    from repro.lattices.natinf import NatInf
    from repro.lattices.parity import Parity
    from repro.lattices.powerset import PowersetLattice
    from repro.lattices.product import ProductLattice
    from repro.lattices.sign import Sign
    from repro.lattices.union import TaggedUnionLattice

    register_value_codec(IntervalLattice, _interval_codec)
    register_value_codec(NatInf, _natinf_codec)
    register_value_codec(Flat, _flat_codec)
    register_value_codec(BoolLattice, _bool_codec)
    register_value_codec(Sign, _frozenset_codec)
    register_value_codec(Parity, _frozenset_codec)
    register_value_codec(PowersetLattice, _frozenset_codec)
    register_value_codec(CongruenceLattice, _congruence_codec)
    register_value_codec(ArrayEnvLattice, _map_codec)
    register_value_codec(Lifted, _lifted_codec)
    register_value_codec(TaggedUnionLattice, _union_codec)
    register_value_codec(ProductLattice, _product_codec)

    from repro.analysis.values import ProductNumericDomain

    register_value_codec(ProductNumericDomain, _product_domain_codec)


_install_builtin_codecs()


# --------------------------------------------------------------------- #
# Unknown codecs.                                                       #
# --------------------------------------------------------------------- #

class UnknownCodec:
    """Structural codec for solver unknowns.

    Plain strings encode as themselves; every other shape becomes a
    tagged JSON list: integers, ``None``, booleans, tuples (recursively,
    covering SLR+ contribution pairs and value contexts), CFG nodes,
    interprocedural ``PP``/``GV`` unknowns, and intervals and frozensets
    (which occur inside calling contexts).
    """

    def encode(self, u) -> Any:
        if isinstance(u, str):
            return u
        if isinstance(u, bool):
            return ["b", u]
        if isinstance(u, int):
            return ["i", u]
        if u is None:
            return ["none"]
        if isinstance(u, tuple) and not hasattr(u, "_fields"):
            from repro.lang.cfg import Node  # noqa: F401 (type check below)

            return ["t", [self.encode(x) for x in u]]
        type_name = type(u).__name__
        if type_name == "Node":
            return ["node", u.fn, u.index, u.line]
        if type_name == "PP":
            return ["pp", u.fn, self.encode(u.ctx), self.encode(u.node)]
        if type_name == "GV":
            return ["gv", u.name]
        if type_name == "Interval":
            return ["iv", _encode_bound(u.lo), _encode_bound(u.hi)]
        if isinstance(u, frozenset):
            return ["fs", sorted((self.encode(x) for x in u), key=repr)]
        raise CodecError(f"unsupported unknown {u!r} of type {type_name}")

    def decode(self, j) -> Any:
        if isinstance(j, str):
            return j
        kind = j[0]
        if kind == "b":
            return bool(j[1])
        if kind == "i":
            return int(j[1])
        if kind == "none":
            return None
        if kind == "t":
            return tuple(self.decode(x) for x in j[1])
        if kind == "node":
            from repro.lang.cfg import Node

            return Node(j[1], int(j[2]), int(j[3]))
        if kind == "pp":
            from repro.analysis.inter import PP

            return PP(j[1], self.decode(j[2]), self.decode(j[3]))
        if kind == "gv":
            from repro.analysis.inter import GV

            return GV(j[1])
        if kind == "iv":
            from repro.lattices.interval import Interval

            return Interval(_decode_bound(j[1]), _decode_bound(j[2]))
        if kind == "fs":
            return frozenset(self.decode(x) for x in j[1])
        raise CodecError(f"unsupported encoded unknown {j!r}")
