"""The point-wise map lattice over dicts, kept as the reference.

:class:`~repro.lattices.envlat.ArrayEnvLattice` stores environments as
value tuples behind a shared schema and reuses argument objects.  This is
the plain definition it must agree with: every operation key by key,
every result a fresh dict.
"""

from __future__ import annotations


class ReferenceEnvLattice:
    """Total maps from ``keys`` into ``value``, ordered point-wise."""

    def __init__(self, keys, value) -> None:
        self.keys = tuple(keys)
        self.value = value

    def _pointwise(self, op, a, b) -> dict:
        return {k: op(a[k], b[k]) for k in self.keys}

    def join(self, a, b) -> dict:
        return self._pointwise(self.value.join, a, b)

    def meet(self, a, b) -> dict:
        return self._pointwise(self.value.meet, a, b)

    def widen(self, a, b) -> dict:
        return self._pointwise(self.value.widen, a, b)

    def narrow(self, a, b) -> dict:
        return self._pointwise(self.value.narrow, a, b)

    def leq(self, a, b) -> bool:
        return all(self.value.leq(a[k], b[k]) for k in self.keys)

    def equal(self, a, b) -> bool:
        return all(self.value.equal(a[k], b[k]) for k in self.keys)
