"""Array-backed abstract environments -- the engine's hot-path map type.

Abstract environments (variable -> value maps over a *fixed*, per-function
key set) dominate the solver hot path: every right-hand-side evaluation
builds several of them, and every commit compares two point-wise.  The
generic :class:`~repro.lattices.maplat.FrozenMap` pays a dict per element
and a hash lookup per key access; this module stores one shared
:class:`EnvSchema` (key -> slot index) per lattice and each element as a
plain value tuple, so

* point-wise ``leq``/``join``/``meet``/``widen``/``narrow``/``equal``
  run as straight tuple zips with no per-key hashing,
* ``bottom``/``top`` are cached singletons, which makes the engine's
  identity fast paths (``a is b``) actually fire,
* elements stay :class:`FrozenMap` instances (``ArrayEnv`` subclasses
  it), so every consumer of the mapping interface -- the incremental
  codecs' ``isinstance`` checks, context policies, formatting -- keeps
  working, and hashes/equality agree with plain ``FrozenMap`` values of
  the same bindings (decoded snapshots interoperate with live values).
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from repro.lattices.base import Lattice, LatticeError
from repro.lattices.maplat import FrozenMap, MapLattice


class EnvSchema:
    """The shared key layout of one environment lattice."""

    __slots__ = ("keys", "index")

    def __init__(self, keys: Iterable[Hashable]) -> None:
        self.keys = tuple(dict.fromkeys(keys))
        self.index = {k: i for i, k in enumerate(self.keys)}

    def __len__(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:
        return f"EnvSchema({list(self.keys)!r})"


class ArrayEnv(FrozenMap):
    """A fixed-schema environment backed by a value tuple.

    Subclasses :class:`FrozenMap` so type checks, equality and hashing
    interoperate with ordinary frozen maps of the same bindings; the
    inherited ``_data`` dict slot is replaced by a property that
    materialises on demand (only non-hot-path consumers touch it).
    """

    __slots__ = ("_schema", "_values")

    def __init__(self, schema: EnvSchema, values: Iterable) -> None:
        object.__setattr__(self, "_schema", schema)
        object.__setattr__(self, "_values", tuple(values))
        object.__setattr__(self, "_hash", None)

    @property
    def _data(self) -> dict:
        return dict(zip(self._schema.keys, self._values))

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
        return len(self._schema.keys)

    def __hash__(self) -> int:
        # Must agree with FrozenMap: hash of the binding set.
        if self._hash is None:
            object.__setattr__(
                self,
                "_hash",
                hash(frozenset(zip(self._schema.keys, self._values))),
            )
        return self._hash

    def __eq__(self, other) -> bool:
        if isinstance(other, ArrayEnv):
            if other._schema is self._schema:
                return self._values == other._values
            return self._data == other._data
        return super().__eq__(other)

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


class ArrayEnvLattice(MapLattice):
    """Point-wise lattice over :class:`ArrayEnv` elements.

    A drop-in for :class:`MapLattice` (it *is* one, so the incremental
    layer's structural codec lookup keeps matching); all operations also
    accept plain mappings -- e.g. ``FrozenMap`` values decoded from a
    snapshot -- and normalise them through the schema.
    """

    def __init__(self, keys: Iterable[Hashable], value: Lattice) -> None:
        super().__init__(keys, value)
        self._schema = EnvSchema(self._keys)
        # A value lattice that keeps the inherited ``equal`` (plain
        # ``==``) lets ``equal`` compare whole value tuples in C.
        self._tuple_equal = type(value).equal is Lattice.equal
        n = len(self._schema)
        self._bottom = ArrayEnv(self._schema, [value.bottom] * n)
        self._top = ArrayEnv(self._schema, [value.top] * n)

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
        return ArrayEnv(
            self._schema, (bindings[k] for k in self._schema.keys)
        )

    def _vals(self, a) -> tuple:
        if isinstance(a, ArrayEnv) and a._schema is self._schema:
            return a._values
        return tuple(a[k] for k in self._keys)

    def leq(self, a, b) -> bool:
        if a is b:
            return True
        return all(map(self._value.leq, self._vals(a), self._vals(b)))

    def equal(self, a, b) -> bool:
        if a is b:
            return True
        if self._tuple_equal:
            return self._vals(a) == self._vals(b)
        return all(map(self._value.equal, self._vals(a), self._vals(b)))

    def join(self, a, b) -> ArrayEnv:
        if a is b:
            return a if isinstance(a, ArrayEnv) else self.make(a)
        return ArrayEnv(
            self._schema, map(self._value.join, self._vals(a), self._vals(b))
        )

    def meet(self, a, b) -> ArrayEnv:
        if a is b:
            return a if isinstance(a, ArrayEnv) else self.make(a)
        return ArrayEnv(
            self._schema, map(self._value.meet, self._vals(a), self._vals(b))
        )

    def widen(self, a, b) -> ArrayEnv:
        return ArrayEnv(
            self._schema, map(self._value.widen, self._vals(a), self._vals(b))
        )

    def narrow(self, a, b) -> ArrayEnv:
        return ArrayEnv(
            self._schema,
            map(self._value.narrow, self._vals(a), self._vals(b)),
        )

    def validate(self, a) -> None:
        if not isinstance(a, Mapping):
            raise LatticeError(f"{a!r} is not a mapping")
        if set(a) != set(self._keys):
            raise LatticeError(
                f"keys {sorted(map(str, a))} do not match lattice keys"
            )
        for k in self._keys:
            self._value.validate(a[k])
