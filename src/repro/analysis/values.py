"""Numeric value domains for the mini-C analyses.

A :class:`NumericDomain` is a lattice over abstractions of C ``int``
values together with sound transformers for the mini-C operators and
(backwards) refinement for comparison guards.  The interval instance is
the domain of the paper's experiments; the constant-propagation instance
doubles as a second, cheaper client of the same machinery.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Tuple

from repro.lattices.base import Lattice
from repro.lattices.flat import Flat, FlatBot, FlatTop
from repro.lattices.interval import IntervalLattice

#: Comparison operators with their Python semantics (mini-C matches C).
_CMP = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}

#: The comparison obtained by swapping the operand order.
_SWAP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}

#: The comparison obtained by negating the outcome.
_NEGATE = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


class NumericDomain(Lattice):
    """A lattice of ``int`` abstractions with operator transformers."""

    @abstractmethod
    def from_const(self, n: int):
        """Abstract a concrete integer."""

    @abstractmethod
    def binop(self, op: str, a, b):
        """Sound abstraction of binary ``op`` (arithmetic, comparison,
        non-short-circuit logical)."""

    @abstractmethod
    def unop(self, op: str, a):
        """Sound abstraction of unary ``-`` and ``!``."""

    @abstractmethod
    def truthiness(self, a) -> Tuple[bool, bool]:
        """``(may_be_true, may_be_false)`` of a condition value."""

    def refine_cmp(self, op: str, a, b, assume: bool) -> tuple:
        """Refine ``(a, b)`` under the assumption ``(a op b) == assume``.

        The default performs no refinement (always sound).
        """
        if not assume:
            op = _NEGATE[op]
        return self._refine_true_cmp(op, a, b)

    def _refine_true_cmp(self, op: str, a, b) -> tuple:
        return (a, b)

    def contains(self, a, n: int) -> bool:
        """Whether concrete ``n`` is represented by abstract ``a``
        (used by the soundness property tests)."""
        raise NotImplementedError


class IntervalDomain(NumericDomain):
    """The interval domain of the paper's experiments.

    Thin adapter over :class:`repro.lattices.interval.IntervalLattice`
    translating mini-C operator names.
    """

    name = "interval-domain"

    def __init__(self, thresholds=()) -> None:
        self.iv = IntervalLattice(thresholds=thresholds)
        # The hot lattice operations are the interval lattice's own bound
        # methods: no extra Python frame per value.  The delegating
        # methods below keep the class concrete and document the API.
        self.leq = self.iv.leq
        self.join = self.iv.join
        self.meet = self.iv.meet
        self.widen = self.iv.widen
        self.narrow = self.iv.narrow

    # Lattice structure delegates to the interval lattice. ------------- #

    @property
    def bottom(self):
        return self.iv.bottom

    @property
    def top(self):
        return self.iv.top

    def leq(self, a, b):
        return self.iv.leq(a, b)

    def join(self, a, b):
        return self.iv.join(a, b)

    def meet(self, a, b):
        return self.iv.meet(a, b)

    def widen(self, a, b):
        return self.iv.widen(a, b)

    def narrow(self, a, b):
        return self.iv.narrow(a, b)

    def validate(self, a):
        self.iv.validate(a)

    def format(self, a):
        return self.iv.format(a)

    # Transformers. ----------------------------------------------------- #

    def from_const(self, n: int):
        return self.iv.from_const(n)

    def binop(self, op: str, a, b):
        iv = self.iv
        if op == "+":
            return iv.add(a, b)
        if op == "-":
            return iv.sub(a, b)
        if op == "*":
            return iv.mul(a, b)
        if op == "/":
            return iv.div(a, b)
        if op == "%":
            return iv.rem(a, b)
        if op == "<":
            return iv.cmp_lt(a, b)
        if op == "<=":
            return iv.cmp_le(a, b)
        if op == ">":
            return iv.cmp_lt(b, a)
        if op == ">=":
            return iv.cmp_le(b, a)
        if op == "==":
            return iv.cmp_eq(a, b)
        if op == "!=":
            return iv.cmp_ne(a, b)
        if op in ("&&", "||"):
            return self._logic(op, a, b)
        raise ValueError(f"unknown operator {op!r}")

    def _logic(self, op: str, a, b):
        if a is None or b is None:
            return None
        at, af = self.iv.truthiness(a)
        bt, bf = self.iv.truthiness(b)
        if op == "&&":
            may_true = at and bt
            may_false = af or bf
        else:
            may_true = at or bt
            may_false = af and bf
        if may_true and may_false:
            return self.iv.BOTH
        if may_true:
            return self.iv.TRUE
        if may_false:
            return self.iv.FALSE
        return None

    def unop(self, op: str, a):
        if op == "-":
            return self.iv.neg(a)
        if op == "!":
            return self.iv.logical_not(a)
        raise ValueError(f"unknown unary operator {op!r}")

    def truthiness(self, a):
        return self.iv.truthiness(a)

    def _refine_true_cmp(self, op: str, a, b):
        iv = self.iv
        if op == "<":
            return iv.refine_lt(a, b)
        if op == "<=":
            return iv.refine_le(a, b)
        if op == ">":
            b2, a2 = iv.refine_lt(b, a)
            return (a2, b2)
        if op == ">=":
            b2, a2 = iv.refine_le(b, a)
            return (a2, b2)
        if op == "==":
            return iv.refine_eq(a, b)
        if op == "!=":
            return iv.refine_ne(a, b)
        raise ValueError(f"unknown comparison {op!r}")

    def contains(self, a, n: int) -> bool:
        return a is not None and a.contains(n)


class ConstDomain(NumericDomain):
    """Constant propagation over the flat lattice.

    A cheaper client of the analysis machinery; also exercises the code
    paths where widening/narrowing are trivial (finite height).
    """

    name = "const-domain"

    def __init__(self) -> None:
        self.flat = Flat()

    @property
    def bottom(self):
        return self.flat.bottom

    @property
    def top(self):
        return self.flat.top

    def leq(self, a, b):
        return self.flat.leq(a, b)

    def join(self, a, b):
        return self.flat.join(a, b)

    def meet(self, a, b):
        return self.flat.meet(a, b)

    def from_const(self, n: int):
        return n

    def binop(self, op: str, a, b):
        if a is FlatBot or b is FlatBot:
            return FlatBot
        if a is FlatTop or b is FlatTop:
            # Comparisons of unknowns still yield an unknown truth value;
            # arithmetic likewise.
            return FlatTop
        if op in _CMP:
            return int(_CMP[op](a, b))
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            from repro.lang.interp import trunc_div

            return trunc_div(a, b) if b != 0 else FlatBot
        if op == "%":
            from repro.lang.interp import c_rem

            return c_rem(a, b) if b != 0 else FlatBot
        if op == "&&":
            return int(bool(a) and bool(b))
        if op == "||":
            return int(bool(a) or bool(b))
        raise ValueError(f"unknown operator {op!r}")

    def unop(self, op: str, a):
        if a is FlatBot or a is FlatTop:
            return a
        if op == "-":
            return -a
        if op == "!":
            return int(not a)
        raise ValueError(f"unknown unary operator {op!r}")

    def truthiness(self, a):
        if a is FlatBot:
            return (False, False)
        if a is FlatTop:
            return (True, True)
        return (bool(a), not bool(a))

    def _refine_true_cmp(self, op: str, a, b):
        # Equality against a known constant pins the other side down.
        if op == "==":
            met = self.flat.meet(a, b)
            return (met, met)
        return (a, b)

    def contains(self, a, n: int) -> bool:
        if a is FlatBot:
            return False
        if a is FlatTop:
            return True
        return a == n


class CongruenceDomain(NumericDomain):
    """Stride/parity tracking via the congruence lattice.

    Precise for linear arithmetic (``+``, ``-``, ``*``); division,
    remainder and comparisons degrade to constants-only precision.  Most
    useful inside :class:`ProductNumericDomain` with intervals.
    """

    name = "congruence-domain"

    def __init__(self) -> None:
        from repro.lattices.congruence import CongruenceLattice

        self.cong = CongruenceLattice()

    @property
    def bottom(self):
        return self.cong.bottom

    @property
    def top(self):
        return self.cong.top

    def leq(self, a, b):
        return self.cong.leq(a, b)

    def join(self, a, b):
        return self.cong.join(a, b)

    def meet(self, a, b):
        return self.cong.meet(a, b)

    def widen(self, a, b):
        return self.cong.widen(a, b)

    def narrow(self, a, b):
        return self.cong.narrow(a, b)

    def validate(self, a):
        self.cong.validate(a)

    def format(self, a):
        return self.cong.format(a)

    def from_const(self, n: int):
        return self.cong.from_const(n)

    def binop(self, op: str, a, b):
        cong = self.cong
        if a is None or b is None:
            return None
        if op == "+":
            return cong.add(a, b)
        if op == "-":
            return cong.sub(a, b)
        if op == "*":
            return cong.mul(a, b)
        if op in ("/", "%"):
            # Exact only for constants; C sign semantics break residue
            # reasoning in general.
            if a[0] == 0 and b[0] == 0:
                from repro.lang.interp import c_rem, trunc_div

                if b[1] == 0:
                    return None
                fn = trunc_div if op == "/" else c_rem
                return cong.from_const(fn(a[1], b[1]))
            return cong.top
        if op in _CMP:
            if a[0] == 0 and b[0] == 0:
                return cong.from_const(int(_CMP[op](a[1], b[1])))
            if op == "==" and cong.meet(a, b) is None:
                return cong.from_const(0)
            if op == "!=" and cong.meet(a, b) is None:
                return cong.from_const(1)
            return cong.top
        if op in ("&&", "||"):
            at, af = self.truthiness(a)
            bt, bf = self.truthiness(b)
            if op == "&&":
                may_true, may_false = at and bt, af or bf
            else:
                may_true, may_false = at or bt, af and bf
            if may_true and not may_false:
                return cong.from_const(1)
            if may_false and not may_true:
                return cong.from_const(0)
            return cong.top
        raise ValueError(f"unknown operator {op!r}")

    def unop(self, op: str, a):
        if a is None:
            return None
        if op == "-":
            return self.cong.neg(a)
        if op == "!":
            may_true, may_false = self.truthiness(a)
            if may_true and not may_false:
                return self.cong.from_const(0)
            if may_false and not may_true:
                return self.cong.from_const(1)
            return self.cong.top
        raise ValueError(f"unknown unary operator {op!r}")

    def truthiness(self, a):
        if a is None:
            return (False, False)
        m, r = a
        if m == 0:
            return (r != 0, r == 0)
        # m >= 1 denotes infinitely many values: non-zero ones always
        # exist; zero is denoted iff the residue is 0.
        return (True, r == 0)

    def _refine_true_cmp(self, op: str, a, b):
        if op == "==":
            met = self.cong.meet(a, b)
            return (met, met)
        return (a, b)

    def contains(self, a, n: int) -> bool:
        return self.cong.contains(a, n)


class ProductNumericDomain(NumericDomain):
    """The (optionally reduced) product of two numeric domains.

    Elements are pairs; all operations run component-wise and the result
    is passed through :meth:`reduce`, which subclasses or the built-in
    interval-x-congruence reduction can use to exchange information
    between the components.  Bottom-ness of either component collapses
    the pair to the canonical bottom.
    """

    name = "product-domain"

    def __init__(self, first: NumericDomain, second: NumericDomain) -> None:
        self.first = first
        self.second = second
        self.name = f"{first.name}*{second.name}"

    # -- reduction ------------------------------------------------------ #

    def reduce(self, a):
        """Normalise a pair; default: align bottoms only."""
        if a is None:
            return None
        x, y = a
        if self.first.is_bottom(x) or self.second.is_bottom(y):
            return None
        return (x, y)

    # -- lattice structure ----------------------------------------------- #

    @property
    def bottom(self):
        return None

    @property
    def top(self):
        return (self.first.top, self.second.top)

    def leq(self, a, b):
        if a is None:
            return True
        if b is None:
            return False
        return self.first.leq(a[0], b[0]) and self.second.leq(a[1], b[1])

    def join(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (self.first.join(a[0], b[0]), self.second.join(a[1], b[1]))

    def meet(self, a, b):
        if a is None or b is None:
            return None
        return self.reduce(
            (self.first.meet(a[0], b[0]), self.second.meet(a[1], b[1]))
        )

    def widen(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        return (self.first.widen(a[0], b[0]), self.second.widen(a[1], b[1]))

    def narrow(self, a, b):
        if a is None or b is None:
            return b
        return self.reduce(
            (self.first.narrow(a[0], b[0]), self.second.narrow(a[1], b[1]))
        )

    def validate(self, a):
        if a is None:
            return
        self.first.validate(a[0])
        self.second.validate(a[1])

    def format(self, a):
        if a is None:
            return "_|_"
        return f"({self.first.format(a[0])}, {self.second.format(a[1])})"

    # -- transformers ---------------------------------------------------- #

    def from_const(self, n: int):
        return (self.first.from_const(n), self.second.from_const(n))

    def binop(self, op: str, a, b):
        if a is None or b is None:
            return None
        return self.reduce(
            (
                self.first.binop(op, a[0], b[0]),
                self.second.binop(op, a[1], b[1]),
            )
        )

    def unop(self, op: str, a):
        if a is None:
            return None
        return self.reduce(
            (self.first.unop(op, a[0]), self.second.unop(op, a[1]))
        )

    def truthiness(self, a):
        if a is None:
            return (False, False)
        t1, f1 = self.first.truthiness(a[0])
        t2, f2 = self.second.truthiness(a[1])
        # A concrete outcome must be allowed by *both* components.
        return (t1 and t2, f1 and f2)

    def refine_cmp(self, op: str, a, b, assume: bool):
        if a is None or b is None:
            return (None, None)
        a1, b1 = self.first.refine_cmp(op, a[0], b[0], assume)
        a2, b2 = self.second.refine_cmp(op, a[1], b[1], assume)
        return (self.reduce((a1, a2)), self.reduce((b1, b2)))

    def contains(self, a, n: int) -> bool:
        if a is None:
            return False
        return self.first.contains(a[0], n) and self.second.contains(a[1], n)


class IntervalCongruenceDomain(ProductNumericDomain):
    """The classic *reduced* product of intervals and congruences.

    Reduction tightens interval bounds to the nearest residue-consistent
    integers (e.g. ``[1, 10]`` with ``0 (mod 4)`` reduces to ``[4, 8]``)
    and detects emptiness (no representative in range).
    """

    name = "interval-x-congruence"

    def __init__(self, thresholds=()) -> None:
        super().__init__(IntervalDomain(thresholds), CongruenceDomain())

    def reduce(self, a):
        from repro.lattices.interval import Interval

        pair = super().reduce(a)
        if pair is None:
            return None
        iv_val, cg_val = pair
        m, r = cg_val
        if m == 0:
            # Constant: the interval must contain it.
            if not self.first.contains(iv_val, r):
                return None
            return (self.first.from_const(r), cg_val)
        if m == 1:
            return pair
        lo, hi = iv_val.lo, iv_val.hi
        if lo != float("-inf"):
            lo = lo + (r - lo) % m
        if hi != float("inf"):
            hi = hi - (hi - r) % m
        if lo > hi:
            return None
        if lo == hi:
            return (Interval(lo, hi), self.second.from_const(int(lo)))
        return (Interval(lo, hi), cg_val)


class SignDomain(NumericDomain):
    """Sign analysis over the eight-element sign lattice.

    The cheapest relationally-blind domain with non-trivial branch
    pruning; finite height, so widening and narrowing are trivial.
    """

    name = "sign-domain"

    def __init__(self) -> None:
        from repro.lattices.sign import Sign

        self.sign = Sign()

    @property
    def bottom(self):
        return self.sign.bottom

    @property
    def top(self):
        return self.sign.top

    def leq(self, a, b):
        return self.sign.leq(a, b)

    def join(self, a, b):
        return self.sign.join(a, b)

    def meet(self, a, b):
        return self.sign.meet(a, b)

    def validate(self, a):
        self.sign.validate(a)

    def format(self, a):
        return self.sign.format(a)

    def from_const(self, n: int):
        return self.sign.from_const(n)

    # -- helpers ---------------------------------------------------------- #

    def _cases(self, a):
        """The atomic signs making up ``a``."""
        return [frozenset({atom}) for atom in a]

    def _abstract_binop(self, op: str, a, b):
        """Join the results over all atomic sign combinations, evaluated
        on representative integers (sound because each mini-C operator
        maps sign classes to a fixed set of sign classes)."""
        from repro.lang.interp import c_rem, trunc_div

        rep = {"-": (-2, -1), "0": (0,), "+": (1, 2)}
        out = self.sign.bottom
        for atom_a in a:
            for atom_b in b:
                for x in rep[atom_a]:
                    for y in rep[atom_b]:
                        try:
                            if op == "+":
                                value = x + y
                            elif op == "-":
                                value = x - y
                            elif op == "*":
                                value = x * y
                            elif op == "/":
                                value = trunc_div(x, y)
                            elif op == "%":
                                value = c_rem(x, y)
                            elif op in _CMP:
                                value = int(_CMP[op](x, y))
                            elif op == "&&":
                                value = int(bool(x) and bool(y))
                            elif op == "||":
                                value = int(bool(x) or bool(y))
                            else:
                                raise ValueError(f"unknown operator {op!r}")
                        except Exception:
                            continue
                        out = self.sign.join(out, self.from_const(value))
        return out

    def binop(self, op: str, a, b):
        if not a or not b:
            return self.sign.bottom
        out = self._abstract_binop(op, a, b)
        if op == "/":
            # Any division may truncate to zero (e.g. 1 / 2).
            out = self.sign.join(out, self.sign.ZERO)
        return out

    def unop(self, op: str, a):
        if not a:
            return self.sign.bottom
        if op == "-":
            flipped = set()
            for atom in a:
                flipped.add({"-": "+", "0": "0", "+": "-"}[atom])
            return frozenset(flipped)
        if op == "!":
            may_true, may_false = self.truthiness(a)
            out = self.sign.bottom
            if may_true:
                out = self.sign.join(out, self.sign.ZERO)
            if may_false:
                out = self.sign.join(out, self.sign.POS)
            return out
        raise ValueError(f"unknown unary operator {op!r}")

    def truthiness(self, a):
        may_false = "0" in a
        may_true = bool(a - {"0"})
        return (may_true, may_false)

    def _refine_true_cmp(self, op: str, a, b):
        if op not in _CMP:
            return (a, b)
        # Keep an atom exactly when some concrete pair from the two sign
        # classes satisfies the comparison; representatives with
        # magnitude <= 2 realise every satisfiable class combination.
        rep = {"-": (-2, -1), "0": (0,), "+": (1, 2)}
        fn = _CMP[op]
        new_a = frozenset(
            atom
            for atom in a
            if any(
                fn(x, y)
                for other in b
                for x in rep[atom]
                for y in rep[other]
            )
        )
        new_b = frozenset(
            other
            for other in b
            if any(
                fn(x, y)
                for atom in a
                for x in rep[atom]
                for y in rep[other]
            )
        )
        return (new_a, new_b)

    def contains(self, a, n: int) -> bool:
        return self.sign.leq(self.from_const(n), a)
