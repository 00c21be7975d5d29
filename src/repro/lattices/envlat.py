"""Abstract environments: total maps ``K -> D`` over a fixed key set.

Abstract environments (variable -> value maps over a *fixed*, per-function
key set) dominate the solver hot path: every right-hand-side evaluation
builds several of them, and every commit compares two point-wise.  Each
:class:`ArrayEnvLattice` holds one shared :class:`EnvSchema` (key -> slot
index) and each element is an :class:`ArrayEnv`, a plain value tuple read
through the schema, so

* point-wise ``leq``/``join``/``meet``/``widen``/``narrow``/``equal``
  run as straight tuple zips with no per-key hashing,
* ``bottom``/``top`` are cached singletons, which makes the engine's
  identity fast paths (``a is b``) actually fire,
* hashes and equality are those of the binding set, so environments of
  two schemas over the same keys (a snapshot taken by one analysis and
  resumed by another) are equal, hash alike, and mix in the lattice
  operations, which read an environment of another schema by key.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import is_
from typing import Hashable, Iterable

from repro.lattices.base import Lattice, LatticeError


class EnvSchema:
    """The shared key layout of one environment lattice."""

    __slots__ = ("keys", "index")

    def __init__(self, keys: Iterable[Hashable]) -> None:
        self.keys = tuple(dict.fromkeys(keys))
        self.index = {k: i for i, k in enumerate(self.keys)}

    def __repr__(self) -> str:
        return f"EnvSchema({list(self.keys)!r})"


class ArrayEnv(Mapping):
    """An immutable, hashable environment backed by a value tuple.

    Equality and hashing are by bindings: an environment equals one of
    another schema, or a plain mapping, that binds the same keys to the
    same values.
    """

    __slots__ = ("_schema", "_values", "_hash")

    def __init__(self, schema: EnvSchema, values: Iterable) -> None:
        self._schema = schema
        self._values = tuple(values)
        self._hash = None

    @property
    def schema(self) -> EnvSchema:
        return self._schema

    @property
    def values_tuple(self) -> tuple:
        """The raw slot values, in schema order."""
        return self._values

    def __getitem__(self, key):
        return self._values[self._schema.index[key]]

    def __iter__(self):
        return iter(self._schema.keys)

    def __len__(self) -> int:
        return len(self._values)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(zip(self._schema.keys, self._values)))
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, ArrayEnv):
            if other._schema is self._schema:
                return self._values == other._values
            return dict(self.items()) == dict(other.items())
        return super().__eq__(other)

    def __repr__(self) -> str:
        items = sorted(
            zip(self._schema.keys, self._values), key=lambda kv: str(kv[0])
        )
        return "{" + ", ".join(f"{k!r}: {v!r}" for k, v in items) + "}"

    def set(self, key, value) -> "ArrayEnv":
        """Return a copy with ``key`` bound to ``value``."""
        values = list(self._values)
        values[self._schema.index[key]] = value
        return ArrayEnv(self._schema, values)

    def set_many(self, updates: Mapping) -> "ArrayEnv":
        """Return a copy with all bindings in ``updates`` applied."""
        values = list(self._values)
        index = self._schema.index
        for key, value in updates.items():
            values[index[key]] = value
        return ArrayEnv(self._schema, values)


class ArrayEnvLattice(Lattice[ArrayEnv]):
    """Point-wise lattice of total maps from a finite key set into ``value``.

    The operations take :class:`ArrayEnv` elements; one of another schema
    over the same keys is read by key.  Every result that is not one of
    the arguments is an element of this lattice's schema.
    """

    def __init__(self, keys: Iterable[Hashable], value: Lattice) -> None:
        """Create the lattice with the given fixed ``keys``.

        :param keys: the finite key set; every element binds all of them.
        :param value: the co-domain lattice.
        """
        self._schema = EnvSchema(keys)
        self._keys = self._schema.keys
        self._value = value
        self.name = f"map->{value.name}"
        # A value lattice that keeps the inherited ``equal`` (plain
        # ``==``) lets ``equal`` compare whole value tuples in C.
        self._tuple_equal = type(value).equal is Lattice.equal
        n = len(self._keys)
        self._bottom = ArrayEnv(self._schema, [value.bottom] * n)
        self._top = ArrayEnv(self._schema, [value.top] * n)

    @property
    def keys(self) -> tuple:
        """The fixed key set, in declaration order."""
        return self._keys

    @property
    def value_lattice(self) -> Lattice:
        """The co-domain lattice."""
        return self._value

    @property
    def schema(self) -> EnvSchema:
        return self._schema

    @property
    def bottom(self) -> ArrayEnv:
        return self._bottom

    @property
    def top(self) -> ArrayEnv:
        return self._top

    def make(self, bindings: Mapping) -> ArrayEnv:
        """An element from a key -> value mapping (must cover the schema)."""
        return ArrayEnv(self._schema, (bindings[k] for k in self._keys))

    def _vals(self, a: ArrayEnv) -> tuple:
        if a._schema is self._schema:
            return a._values
        return tuple(map(a.__getitem__, self._keys))

    def _pointwise(self, op, a: ArrayEnv, b: ArrayEnv) -> ArrayEnv:
        """``op`` slot by slot, as ``a`` or ``b`` itself when every slot
        of the result is that argument's own slot object.

        Only elements of this schema are reused, so the result is an
        element of this schema either way.
        """
        schema = self._schema
        own_a = a._schema is schema
        own_b = b._schema is schema
        va = a._values if own_a else self._vals(a)
        vb = b._values if own_b else self._vals(b)
        values = tuple(map(op, va, vb))
        if own_a and all(map(is_, values, va)):
            return a
        if own_b and all(map(is_, values, vb)):
            return b
        return ArrayEnv(schema, values)

    def leq(self, a: ArrayEnv, b: ArrayEnv) -> bool:
        if a is b:
            return True
        vleq = self._value.leq
        for x, y in zip(self._vals(a), self._vals(b)):
            if x is not y and not vleq(x, y):
                return False
        return True

    def equal(self, a: ArrayEnv, b: ArrayEnv) -> bool:
        if a is b:
            return True
        if self._tuple_equal:
            return self._vals(a) == self._vals(b)
        return all(map(self._value.equal, self._vals(a), self._vals(b)))

    def join(self, a: ArrayEnv, b: ArrayEnv) -> ArrayEnv:
        if a is b:
            return a
        return self._pointwise(self._value.join, a, b)

    def meet(self, a: ArrayEnv, b: ArrayEnv) -> ArrayEnv:
        if a is b:
            return a
        return self._pointwise(self._value.meet, a, b)

    def widen(self, a: ArrayEnv, b: ArrayEnv) -> ArrayEnv:
        return self._pointwise(self._value.widen, a, b)

    def narrow(self, a: ArrayEnv, b: ArrayEnv) -> ArrayEnv:
        return self._pointwise(self._value.narrow, a, b)

    def validate(self, a: ArrayEnv) -> None:
        if not isinstance(a, ArrayEnv):
            raise LatticeError(f"{a!r} is not an environment")
        if set(a) != set(self._keys):
            raise LatticeError(
                f"keys {sorted(map(str, a))} do not match lattice keys"
            )
        for k in self._keys:
            self._value.validate(a[k])

    def format(self, a: ArrayEnv) -> str:
        parts = (f"{k}: {self._value.format(a[k])}" for k in self._keys)
        return "{" + ", ".join(parts) + "}"
