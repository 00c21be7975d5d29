"""Binary update operators, including the paper's combined operator.

A *generic* solver performs update steps ``sigma[x] <- sigma[x] (op) f_x(sigma)``
for some binary operator ``op`` ("box" in the paper).  Instantiating ``op``
differently yields ordinary solving (override), post-solving (join),
pre-solving (meet), accelerated ascending iteration (widen), accelerated
descending iteration (narrow) -- and, centrally, the paper's novel combined
widening/narrowing operator, which we spell ``warrow``::

    a warrow b  =  a narrow b   if b <= a
                   a widen b    otherwise

Operators are modelled as callables ``op(x, old, new) -> combined`` that also
receive the unknown ``x``; stateless operators ignore it, while the
per-unknown book-keeping variants (delayed widening, the k-bounded
termination safeguard from the end of Section 4) key their state on it,
and :class:`PerVariableCombine` routes it to one of several operators.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Callable, Dict, Hashable, Optional

from repro.lattices.base import Lattice


class Combine(ABC):
    """A binary update operator with optional per-unknown state.

    Operators declare their state instead of managing it: ``parts`` maps
    each field of :meth:`state_parts` to the attribute holding that
    per-unknown map, and a router keeps its member operators in
    ``members``.  :meth:`fresh`, :meth:`state_parts`,
    :meth:`load_state_parts` and :meth:`children` follow from these two
    declarations.
    """

    #: Whether ``(a op b) op b == a op b`` holds for all a, b.  Solvers may
    #: exploit idempotence; the combined operator is *not* idempotent.
    idempotent: bool = False

    #: The resolved :class:`~repro.strategies.spec.StrategySpec` this
    #: operator was built from, when it came out of the strategy registry
    #: (``None`` for directly constructed operators).  Carried across
    #: :meth:`fresh` so engines can stamp the strategy into their stats.
    spec = None

    #: ``state_parts()`` field -> attribute of the per-unknown map
    #: ``{unknown: scalar}`` it exports.
    parts: Dict[str, str] = {}

    #: Named member operators of a router (``{}`` for leaves).
    members: Dict[str, "Combine"] = {}

    def __init__(self, lattice: Optional[Lattice] = None) -> None:
        self.lattice = lattice
        self.load_state_parts({})

    @abstractmethod
    def __call__(self, x: Hashable, old, new):
        """Combine the ``old`` value of ``x`` with the ``new`` contribution."""

    def fresh(self) -> "Combine":
        """Return an equivalent operator with cleared, *unshared* state.

        Two solver runs handed the same operator object (e.g. by the
        service's thread pool) must never share per-unknown maps, so an
        operator with state, its own or its members', is copied with
        empty maps and fresh members; its parameters and ``spec`` carry
        over.  Stateless operators return ``self``.
        """
        if not self.parts and not self.members:
            return self
        clone = copy.copy(self)
        clone.load_state_parts({})
        clone.members = {label: m.fresh() for label, m in self.members.items()}
        return clone

    # ----------------------------------------------------------------- #
    # Serializable per-unknown state (incremental/checkpoint resume).    #
    # ----------------------------------------------------------------- #

    def state_parts(self) -> Dict[str, Dict[Hashable, object]]:
        """The operator's per-unknown state as ``field -> {unknown: scalar}``.

        Scalars must be JSON-able (ints or short strings); the nested
        export/import over routers lives in
        :mod:`repro.strategies.state`.  Stateless operators return ``{}``.
        """
        return {field: dict(getattr(self, attr)) for field, attr in self.parts.items()}

    def load_state_parts(
        self, parts: Dict[str, Dict[Hashable, object]]
    ) -> None:
        """Restore state exported by :meth:`state_parts` (missing keys
        reset to empty)."""
        for field, attr in self.parts.items():
            setattr(self, attr, dict(parts.get(field, {})))

    def children(self) -> Dict[str, "Combine"]:
        """Named member operators of a router (``{}`` for leaves)."""
        return dict(self.members)


class OverrideCombine(Combine):
    """``a op b = b``: plain (unaccelerated) solving for exact solutions."""

    idempotent = True

    def __call__(self, x, old, new):
        return new


class JoinCombine(Combine):
    """``op = join``: solutions are *post* solutions (sigma[x] >= f_x(sigma))."""

    idempotent = True

    def __call__(self, x, old, new):
        return self.lattice.join(old, new)


class MeetCombine(Combine):
    """``op = meet``: solutions are *pre* solutions (sigma[x] <= f_x(sigma))."""

    idempotent = True

    def __call__(self, x, old, new):
        return self.lattice.meet(old, new)


class WidenCombine(Combine):
    """``op = widen``: the ascending (widening) phase of classic two-phase
    solving.

    The optional per-unknown *delay* uses plain join for the first
    ``delay`` growing updates of each unknown before accelerating --
    standard practice in production analyzers, and the fair setting when
    comparing against a delayed combined operator.
    """

    parts = {"grow": "_grow_counts"}

    def __init__(self, lattice: Lattice, delay: int = 0) -> None:
        super().__init__(lattice)
        self.delay = delay

    def __call__(self, x, old, new):
        if self.delay and not self.lattice.leq(new, old):
            seen = self._grow_counts.get(x, 0)
            if seen < self.delay:
                self._grow_counts[x] = seen + 1
                return self.lattice.join(old, new)
        return self.lattice.widen(old, new)


class NarrowCombine(Combine):
    """``op = narrow``: the descending phase; only sound on post solutions
    of monotonic systems.

    Following the definition of narrowing, the new contribution is first
    met with the old value so that the pre-condition ``b <= a`` of the
    operator holds even when the iteration is (unsoundly) applied to
    non-monotonic systems; on monotone descending iterations the meet is
    the identity.
    """

    def __call__(self, x, old, new):
        clipped = new if self.lattice.leq(new, old) else self.lattice.meet(old, new)
        return self.lattice.narrow(old, clipped)


class WarrowCombine(Combine):
    """The paper's combined operator (Section 3).

    ``a warrow b`` narrows while the new contribution shrinks and widens
    while it grows.  An optional *delay* makes the growing branch behave
    like plain join for the first ``delay`` updates of each unknown -- a
    standard precision knob that keeps all the paper's guarantees (after
    finitely many joins, widening takes over).
    """

    parts = {"grow": "_grow_counts"}

    def __init__(self, lattice: Lattice, delay: int = 0) -> None:
        super().__init__(lattice)
        self.delay = delay

    def __call__(self, x, old, new):
        if self.lattice.leq(new, old):
            return self.lattice.narrow(old, new)
        if self.delay:
            seen = self._grow_counts.get(x, 0)
            if seen < self.delay:
                self._grow_counts[x] = seen + 1
                return self.lattice.join(old, new)
        return self.lattice.widen(old, new)


class BoundedWarrowCombine(Combine):
    """The termination safeguard sketched at the end of Section 4.

    For non-monotonic systems even the structured solvers may not
    terminate, because an unknown can switch from narrowing back to
    widening infinitely often.  This operator counts, per unknown, how
    often that switch happens; past the threshold ``k`` the narrowing
    branch degrades to ``a op b = a`` (no further improvement), after which
    the unknown's value can only grow by widening and hence stabilises.

    The result is still a post solution: in the degraded branch the new
    contribution satisfies ``b <= a``, so keeping ``a`` preserves
    ``sigma[x] >= f_x(sigma)``.
    """

    parts = {"switches": "_switches", "mode": "_mode"}
    #: The growth step (a lattice method) and the mode label it records.
    growth = label = "widen"

    def __init__(self, lattice: Lattice, k: int = 2) -> None:
        if k < 0:
            raise ValueError("switch bound must be non-negative")
        super().__init__(lattice)
        self.k = k
        self._grow = getattr(lattice, self.growth)

    def __call__(self, x, old, new):
        if self.lattice.leq(new, old):
            if self._switches.get(x, 0) >= self.k:
                return old
            result = self.lattice.narrow(old, new)
            # Only a *strict* improvement arms the switch detector: a
            # stable re-evaluation (new == old) is not narrowing and must
            # not burn the budget when growth resumes later.
            if not self.lattice.equal(result, old):
                self._mode[x] = "narrow"
            return result
        if self._mode.get(x) == "narrow":
            self._switches[x] = self._switches.get(x, 0) + 1
        self._mode[x] = self.label
        return self._grow(old, new)


class BoundedJoinNarrowCombine(BoundedWarrowCombine):
    """Join on growth; narrow on shrink, frozen after ``bound`` switches.

    The non-accelerated member of the selective widening-point operator
    (:func:`~repro.solvers.wpoints.selective_warrow_combine`): values grow
    by plain join -- so no precision is lost at harmless merge points --
    but may still shrink when an accelerated neighbour narrows.
    Unrestricted, that combination re-creates the oscillations of the
    paper's Examples 1--2 through the non-points, so the Section 4
    safeguard applies: after ``bound`` narrow-to-grow switches per
    unknown, narrowing is given up and only bounded join growth remains.
    """

    growth, label = "join", "grow"

    def __init__(self, lattice: Lattice, bound: int = 3) -> None:
        super().__init__(lattice, k=bound)


class BoundedNarrowCombine(Combine):
    """Widen on growth; narrow on shrink, at most ``cap`` times per unknown.

    The degraded member of the supervision layer's escalation ladder
    (:mod:`repro.supervise.escalate`): each unknown may take up to
    ``cap`` strictly improving narrow steps, after which a shrinking
    contribution keeps the old value -- sound, because ``b <= a`` in that
    branch, so keeping ``a`` preserves ``sigma[x] >= f_x(sigma)``.  With
    ``cap=0`` this is ascending-only iteration (⌴ → ▽, the Goblint
    ``NarrowOption`` with narrowing off): the paper's Theorem 1/2 regime
    where termination needs no monotonicity at all.
    """

    parts = {"descents": "_descents"}

    def __init__(self, lattice: Lattice, cap: int = 0) -> None:
        if cap < 0:
            raise ValueError("narrow cap must be non-negative")
        super().__init__(lattice)
        self.cap = cap

    def __call__(self, x, old, new):
        if self.lattice.leq(new, old):
            if self._descents.get(x, 0) >= self.cap:
                return old
            result = self.lattice.narrow(old, new)
            if not self.lattice.equal(result, old):
                self._descents[x] = self._descents.get(x, 0) + 1
            return result
        return self.lattice.widen(old, new)


class PerVariableCombine(Combine):
    """Route each unknown to a named member operator via a chooser.

    Goblint's ``solverBox.ml`` chooses the box operator per solve *and
    per variable*.  This is the one router behind every such map here:
    ⌴ at widening points and join elsewhere
    (:mod:`repro.solvers.wpoints`, the ``wpoint`` strategy), and the
    supervisor's escalation of oscillating unknowns to a degraded
    operator (:mod:`repro.supervise.escalate`).  Member state stays per
    member, so the router composes with any stateful operator.

    :param chooser: maps an unknown to a member label; unlisted labels
        fall back to ``default``.
    :param members: label -> member operator.
    :param default: the label used for unknowns whose chosen label is
        not in ``members``.
    """

    def __init__(
        self,
        chooser: Callable[[Hashable], str],
        members: Dict[str, Combine],
        default: str,
    ) -> None:
        if default not in members:
            raise ValueError(f"default label {default!r} not in members")
        super().__init__()
        self.chooser = chooser
        self.members = dict(members)
        self.default = default

    def __call__(self, x, old, new):
        member = self.members.get(self.chooser(x))
        if member is None:
            member = self.members[self.default]
        return member(x, old, new)


def warrow(lattice: Lattice, a, b):
    """One-shot application of the combined operator (stateless form)."""
    if lattice.leq(b, a):
        return lattice.narrow(a, b)
    return lattice.widen(a, b)
