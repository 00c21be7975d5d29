"""The integer interval domain with standard widening and narrowing.

This is the domain used throughout the paper's experimental evaluation
(interval analysis of locals and globals).  Elements are either the empty
interval (bottom) or a pair of bounds ``lo <= hi`` drawn from
``Z | {-oo, +oo}``.

The module also provides the abstract arithmetic needed by the abstract
interpreter in :mod:`repro.analysis`: sound abstractions of the mini-C
operators, and *backwards* (refinement) transformers for branch guards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.lattices.base import Lattice, LatticeError

#: Symbolic bounds.  Using floats for the infinities keeps comparisons with
#: ``int`` bounds natural; finite bounds are always ``int``.
NEG_INF = float("-inf")
POS_INF = float("inf")

#: Every ``int`` in this range converts to an (integral) float.  An int
#: bound outside it saturates: a lower bound to ``-oo`` or ``2**1023``, an
#: upper bound to ``+oo`` or ``-2**1023``.  That only enlarges the
#: interval, so it stays sound, and no finite bound ever leaves float
#: range, so bound arithmetic against the infinities cannot overflow.
_FLOAT_SAFE_MIN = -(2**1023)
_FLOAT_SAFE_MAX = 2**1023


@dataclass(frozen=True, slots=True)
class Interval:
    """A non-empty integer interval ``[lo, hi]`` with possibly infinite bounds.

    The *empty* interval is represented by ``None`` at the lattice level, so
    every :class:`Interval` instance denotes at least one integer.
    """

    lo: float
    hi: float

    def __post_init__(self) -> None:
        lo, hi = self.lo, self.hi
        if lo > hi:
            raise LatticeError(f"empty interval [{lo}, {hi}]")
        # An exact int in float range is integral: skip the conversion.
        if (
            type(lo) is not int or not _FLOAT_SAFE_MIN <= lo <= _FLOAT_SAFE_MAX
        ) and lo != NEG_INF:
            if type(lo) is int:
                object.__setattr__(
                    self, "lo", NEG_INF if lo < 0 else _FLOAT_SAFE_MAX
                )
            elif not float(lo).is_integer():
                raise LatticeError(f"non-integer lower bound {lo}")
        if (
            type(hi) is not int or not _FLOAT_SAFE_MIN <= hi <= _FLOAT_SAFE_MAX
        ) and hi != POS_INF:
            if type(hi) is int:
                object.__setattr__(
                    self, "hi", POS_INF if hi > 0 else _FLOAT_SAFE_MIN
                )
            elif not float(hi).is_integer():
                raise LatticeError(f"non-integer upper bound {hi}")

    def __repr__(self) -> str:
        lo = "-oo" if self.lo == NEG_INF else str(int(self.lo))
        hi = "+oo" if self.hi == POS_INF else str(int(self.hi))
        return f"[{lo},{hi}]"

    def is_finite(self) -> bool:
        """Return whether both bounds are finite."""
        return self.lo != NEG_INF and self.hi != POS_INF

    def contains(self, n: int) -> bool:
        """Return whether the concrete integer ``n`` lies in the interval."""
        return self.lo <= n <= self.hi

    def is_singleton(self) -> bool:
        """Return whether the interval denotes exactly one integer."""
        return self.lo == self.hi

    def width(self) -> float:
        """Number of integers denoted minus one (``+oo`` if unbounded)."""
        return self.hi - self.lo


#: Lattice elements: ``None`` is bottom (empty set of integers).
IntervalValue = Optional[Interval]


def interval(lo: float, hi: float) -> Interval:
    """Construct the interval ``[lo, hi]``; bounds may be ``+-oo``."""
    return Interval(lo, hi)


def const(n: int) -> Interval:
    """The singleton interval ``[n, n]``."""
    return Interval(n, n)


class IntervalLattice(Lattice[IntervalValue]):
    """The complete lattice of integer intervals.

    ``widen`` is the classic interval widening (unstable bounds jump to
    infinity, possibly via a user-supplied ascending sequence of
    *thresholds*), and ``narrow`` the classic narrowing (only infinite bounds
    may be improved).
    """

    name = "interval"

    def __init__(self, thresholds: Sequence[int] = ()) -> None:
        """Create the interval lattice.

        :param thresholds: optional widening thresholds.  When a bound is
            unstable, widening first tries the nearest enclosing threshold
            before giving up to infinity.  The empty default yields the
            textbook widening.
        """
        self._lower_thresholds = sorted({int(t) for t in thresholds}, reverse=True)
        self._upper_thresholds = sorted({int(t) for t in thresholds})

    # ----------------------------------------------------------------- #
    # Lattice structure.                                                #
    # ----------------------------------------------------------------- #

    @property
    def bottom(self) -> IntervalValue:
        return None

    @property
    def top(self) -> IntervalValue:
        return Interval(NEG_INF, POS_INF)

    def leq(self, a: IntervalValue, b: IntervalValue) -> bool:
        if a is None:
            return True
        if b is None:
            return False
        return b.lo <= a.lo and a.hi <= b.hi

    # The binary operations pick each bound from one argument, exactly as
    # ``min``/``max`` would, and return an argument itself when both
    # picked bounds are that argument's own bound objects (see
    # :func:`_reuse`): no new ``Interval`` for a result equal to an input.

    def join(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None:
            return b
        if b is None:
            return a
        alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
        return _reuse(
            blo if blo < alo else alo, bhi if bhi > ahi else ahi, a, b
        )

    def meet(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None or b is None:
            return None
        alo, ahi, blo, bhi = a.lo, a.hi, b.lo, b.hi
        lo = blo if blo > alo else alo
        hi = bhi if bhi < ahi else ahi
        return _reuse(lo, hi, a, b) if lo <= hi else None

    # ----------------------------------------------------------------- #
    # Widening and narrowing.                                           #
    # ----------------------------------------------------------------- #

    def widen(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None:
            return b
        if b is None:
            return a
        lo = a.lo if a.lo <= b.lo else self._widen_lower(b.lo)
        hi = a.hi if b.hi <= a.hi else self._widen_upper(b.hi)
        return _reuse(lo, hi, a, b)

    def narrow(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None or b is None:
            return b
        # Only refine bounds that widening pushed to infinity; finite bounds
        # are kept, which guarantees stabilisation of descending chains.
        lo = b.lo if a.lo == NEG_INF else a.lo
        hi = b.hi if a.hi == POS_INF else a.hi
        return _reuse(lo, hi, a, b) if lo <= hi else None

    def _widen_lower(self, lo: float) -> float:
        for t in self._lower_thresholds:
            if t <= lo:
                return t
        return NEG_INF

    def _widen_upper(self, hi: float) -> float:
        for t in self._upper_thresholds:
            if t >= hi:
                return t
        return POS_INF

    # ----------------------------------------------------------------- #
    # Housekeeping.                                                     #
    # ----------------------------------------------------------------- #

    def validate(self, a: IntervalValue) -> None:
        if a is None:
            return
        if not isinstance(a, Interval):
            raise LatticeError(f"{a!r} is not an interval")

    def format(self, a: IntervalValue) -> str:
        return "_|_" if a is None else repr(a)

    # ----------------------------------------------------------------- #
    # Abstract arithmetic (sound over-approximations of mini-C ops).    #
    # ----------------------------------------------------------------- #

    def from_const(self, n: int) -> IntervalValue:
        """Abstract a concrete integer.

        A program's literal beyond float range is rejected with an
        ``OverflowError``; only computed bounds saturate.
        """
        if not _FLOAT_SAFE_MIN <= n <= _FLOAT_SAFE_MAX:
            raise OverflowError(f"integer {n} is beyond float range")
        return const(n)

    def add(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None or b is None:
            return None
        return Interval(a.lo + b.lo, a.hi + b.hi)

    def sub(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None or b is None:
            return None
        return Interval(a.lo - b.hi, a.hi - b.lo)

    def neg(self, a: IntervalValue) -> IntervalValue:
        if a is None:
            return None
        return Interval(-a.hi, -a.lo)

    def mul(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None or b is None:
            return None
        products = []
        for x in (a.lo, a.hi):
            for y in (b.lo, b.hi):
                products.append(_mul_bound(x, y))
        return Interval(min(products), max(products))

    def div(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        """Abstract C-style truncated integer division.

        Division by an interval containing zero yields the quotient over the
        non-zero part (division by zero itself is undefined behaviour and is
        excluded, matching typical interval analyzers); if the divisor is
        exactly ``[0,0]`` the result is bottom.
        """
        if a is None or b is None:
            return None
        # Split divisor around zero.
        parts = []
        neg_part = self.meet(b, Interval(NEG_INF, -1))
        pos_part = self.meet(b, Interval(1, POS_INF))
        for part in (neg_part, pos_part):
            if part is None:
                continue
            quotients = []
            for x in (a.lo, a.hi):
                for y in (part.lo, part.hi):
                    quotients.append(_div_bound(x, y))
            parts.append(Interval(min(quotients), max(quotients)))
        return self.join_all(parts) if parts else None

    def rem(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        """Abstract C-style remainder ``a % b`` (sign follows the dividend)."""
        if a is None or b is None:
            return None
        bound = max(_abs_bound(b.lo), _abs_bound(b.hi))
        if bound == 0:
            return None
        if bound == POS_INF:
            hi = POS_INF if a.hi > 0 else 0
            lo = NEG_INF if a.lo < 0 else 0
            return Interval(lo, hi)
        hi = min(a.hi, bound - 1) if a.hi >= 0 else 0
        lo = max(a.lo, -(bound - 1)) if a.lo <= 0 else 0
        # The remainder preserves sign of the dividend, so clamp accordingly.
        if a.lo >= 0:
            lo = 0 if a.lo > 0 or a.hi > 0 else 0
        if a.hi <= 0:
            hi = 0
        return Interval(min(lo, hi), max(lo, hi))

    # ----------------------------------------------------------------- #
    # Comparisons: return an abstract boolean encoded as an interval    #
    # over {0, 1}; guard refinement lives in `refine_*` below.          #
    # ----------------------------------------------------------------- #

    TRUE = const(1)
    FALSE = const(0)
    BOTH = interval(0, 1)

    def cmp_lt(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None or b is None:
            return None
        if a.hi < b.lo:
            return self.TRUE
        if a.lo >= b.hi:
            return self.FALSE
        return self.BOTH

    def cmp_le(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None or b is None:
            return None
        if a.hi <= b.lo:
            return self.TRUE
        if a.lo > b.hi:
            return self.FALSE
        return self.BOTH

    def cmp_eq(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        if a is None or b is None:
            return None
        if a.is_singleton() and b.is_singleton() and a.lo == b.lo:
            return self.TRUE
        if self.meet(a, b) is None:
            return self.FALSE
        return self.BOTH

    def cmp_ne(self, a: IntervalValue, b: IntervalValue) -> IntervalValue:
        r = self.cmp_eq(a, b)
        return self.logical_not(r)

    def logical_not(self, a: IntervalValue) -> IntervalValue:
        if a is None:
            return None
        if a.lo == 0 and a.hi == 0:
            return self.TRUE
        if not a.contains(0):
            return self.FALSE
        return self.BOTH

    def truthiness(self, a: IntervalValue) -> tuple[bool, bool]:
        """Return ``(may_be_true, may_be_false)`` for condition value ``a``."""
        if a is None:
            return (False, False)
        may_false = a.contains(0)
        may_true = a.lo != 0 or a.hi != 0
        return (may_true, may_false)

    # ----------------------------------------------------------------- #
    # Backwards transformers for guards: given `a OP b` assumed true,   #
    # return refined (a', b').                                          #
    # ----------------------------------------------------------------- #

    def refine_lt(
        self, a: IntervalValue, b: IntervalValue
    ) -> tuple[IntervalValue, IntervalValue]:
        """Refine ``(a, b)`` under the assumption ``a < b``."""
        if a is None or b is None:
            return (None, None)
        new_a = self.meet(a, Interval(NEG_INF, b.hi - 1) if b.hi != POS_INF else a)
        new_b = self.meet(b, Interval(a.lo + 1, POS_INF) if a.lo != NEG_INF else b)
        return (new_a, new_b)

    def refine_le(
        self, a: IntervalValue, b: IntervalValue
    ) -> tuple[IntervalValue, IntervalValue]:
        """Refine ``(a, b)`` under the assumption ``a <= b``."""
        if a is None or b is None:
            return (None, None)
        new_a = self.meet(a, Interval(NEG_INF, b.hi))
        new_b = self.meet(b, Interval(a.lo, POS_INF))
        return (new_a, new_b)

    def refine_eq(
        self, a: IntervalValue, b: IntervalValue
    ) -> tuple[IntervalValue, IntervalValue]:
        """Refine ``(a, b)`` under the assumption ``a == b``."""
        both = self.meet(a, b)
        return (both, both)

    def refine_ne(
        self, a: IntervalValue, b: IntervalValue
    ) -> tuple[IntervalValue, IntervalValue]:
        """Refine ``(a, b)`` under the assumption ``a != b``.

        Only singleton exclusions at the interval boundary can be expressed.
        """
        if a is None or b is None:
            return (None, None)
        new_a, new_b = a, b
        if b.is_singleton():
            new_a = _exclude_point(a, int(b.lo))
        if a.is_singleton():
            new_b = _exclude_point(b, int(a.lo))
        return (new_a, new_b)


def _reuse(lo: float, hi: float, a: Interval, b: Interval) -> Interval:
    """``[lo, hi]``, as ``a`` or ``b`` itself when it holds exactly these
    bound objects.

    The test is identity, so the result has the same bound types and
    values as a freshly built ``Interval(lo, hi)``.
    """
    if lo is a.lo and hi is a.hi:
        return a
    if lo is b.lo and hi is b.hi:
        return b
    return Interval(lo, hi)


def _exclude_point(a: Interval, n: int) -> IntervalValue:
    """Remove the single integer ``n`` from ``a`` where representable."""
    if not a.contains(n):
        return a
    if a.is_singleton():
        return None
    if a.lo == n:
        return Interval(n + 1, a.hi)
    if a.hi == n:
        return Interval(a.lo, n - 1)
    return a


def _mul_bound(x: float, y: float) -> float:
    """Multiply two bounds, resolving ``0 * oo`` to ``0``."""
    if x == 0 or y == 0:
        return 0
    return x * y


def _div_bound(x: float, y: float) -> float:
    """C-style truncated division of bounds (``y`` is never zero)."""
    if x in (NEG_INF, POS_INF):
        sign = 1 if (x > 0) == (y > 0) else -1
        return sign * POS_INF
    if y in (NEG_INF, POS_INF):
        return 0
    q = abs(int(x)) // abs(int(y))
    return q if (x >= 0) == (y > 0) else -q


def _abs_bound(x: float) -> float:
    return x if x >= 0 else -x


def widen_sequence(lat: IntervalLattice, seq: Iterable[IntervalValue]) -> IntervalValue:
    """Fold a sequence through widening; used by tests of stabilisation."""
    acc: IntervalValue = None
    for v in seq:
        acc = lat.widen(acc, v)
    return acc
