"""A tagged (disjoint) union of lattices with a shared bottom and top.

Side-effecting constraint systems for interprocedural analysis mix
unknowns of different types: program points carry abstract environments
(one map lattice per function), global variables carry plain values.
Generic solvers, however, operate over a single lattice.  The standard
remedy -- used by Goblint as well -- is a tagged union: every element is a
pair ``(tag, payload)`` and the order only relates elements of the same
tag, with a universal bottom below and a universal top above everything.

Joining elements of *different* proper tags yields the universal top
(never meaningful in a well-formed analysis, but total and law-abiding);
the solvers only ever combine values of the same unknown, hence the same
tag.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Tuple

from repro.lattices.base import Lattice, LatticeError

#: The universal bottom and top elements.
UNION_BOT: Tuple[str, None] = ("__bot__", None)
UNION_TOP: Tuple[str, None] = ("__top__", None)


class TaggedUnionLattice(Lattice[Tuple[Hashable, Any]]):
    """The disjoint union of the given ``branches``, glued at bottom/top."""

    name = "union"

    def __init__(self, branches: Dict[Hashable, Lattice]) -> None:
        """Create the union of ``branches`` (tag -> lattice)."""
        if not branches:
            raise LatticeError("union of zero lattices is not supported")
        self._branches = dict(branches)
        self.name = "union(" + ",".join(str(t) for t in branches) + ")"

    @property
    def branches(self) -> Dict[Hashable, Lattice]:
        """The component lattices by tag."""
        return self._branches

    def branch(self, tag: Hashable) -> Lattice:
        """The lattice of one tag; raises on foreign tags."""
        try:
            return self._branches[tag]
        except KeyError:
            raise LatticeError(f"unknown union tag {tag!r}") from None

    def inject(self, tag: Hashable, payload: Any) -> tuple:
        """Wrap ``payload`` as an element of branch ``tag``."""
        self.branch(tag)
        return (tag, payload)

    def payload(self, element: tuple) -> Any:
        """Unwrap a proper element (raises on universal bottom/top)."""
        tag, value = element
        if element in (UNION_BOT, UNION_TOP):
            raise LatticeError(f"{element!r} carries no payload")
        self.branch(tag)
        return value

    # ------------------------------------------------------------------ #

    @property
    def bottom(self) -> tuple:
        return UNION_BOT

    @property
    def top(self) -> tuple:
        return UNION_TOP

    def leq(self, a: tuple, b: tuple) -> bool:
        if a == UNION_BOT or b == UNION_TOP:
            return True
        if b == UNION_BOT or a == UNION_TOP:
            return False
        if a[0] != b[0]:
            return False
        return self.branch(a[0]).leq(a[1], b[1])

    def join(self, a: tuple, b: tuple) -> tuple:
        if a == UNION_BOT:
            return b
        if b == UNION_BOT:
            return a
        if a == UNION_TOP or b == UNION_TOP:
            return UNION_TOP
        if a[0] != b[0]:
            return UNION_TOP
        return _rewrap(self.branch(a[0]).join(a[1], b[1]), a, b)

    def meet(self, a: tuple, b: tuple) -> tuple:
        if a == UNION_TOP:
            return b
        if b == UNION_TOP:
            return a
        if a == UNION_BOT or b == UNION_BOT:
            return UNION_BOT
        if a[0] != b[0]:
            return UNION_BOT
        return _rewrap(self.branch(a[0]).meet(a[1], b[1]), a, b)

    def widen(self, a: tuple, b: tuple) -> tuple:
        if a == UNION_BOT:
            return b
        if b == UNION_BOT:
            return a
        if a == UNION_TOP or b == UNION_TOP:
            return UNION_TOP
        if a[0] != b[0]:
            return UNION_TOP
        return _rewrap(self.branch(a[0]).widen(a[1], b[1]), a, b)

    def narrow(self, a: tuple, b: tuple) -> tuple:
        if a == UNION_TOP:
            return b
        if a == UNION_BOT or b == UNION_BOT:
            return b
        if a[0] != b[0]:
            return b
        return _rewrap(self.branch(a[0]).narrow(a[1], b[1]), a, b)

    def equal(self, a: tuple, b: tuple) -> bool:
        if a is b:
            return True
        if a in (UNION_BOT, UNION_TOP) or b in (UNION_BOT, UNION_TOP):
            return a == b
        if a[0] != b[0]:
            return False
        return self.branch(a[0]).equal(a[1], b[1])

    def validate(self, a: tuple) -> None:
        if a in (UNION_BOT, UNION_TOP):
            return
        if not isinstance(a, tuple) or len(a) != 2:
            raise LatticeError(f"{a!r} is not a tagged element")
        self.branch(a[0]).validate(a[1])

    def format(self, a: tuple) -> str:
        if a == UNION_BOT:
            return "_|_"
        if a == UNION_TOP:
            return "T"
        return f"{a[0]}:{self.branch(a[0]).format(a[1])}"


def _rewrap(payload: Any, a: tuple, b: tuple) -> tuple:
    """``payload`` under the tag of ``a`` and ``b``, reusing the wrapper
    of whichever argument carries this very payload object."""
    if payload is a[1]:
        return a
    if payload is b[1]:
        return b
    return (a[0], payload)
