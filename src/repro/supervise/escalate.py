"""Per-unknown escalation of the combined operator (graceful degradation).

When a watchdog trips, throwing the whole run away is the worst answer:
typically only a few unknowns oscillate (the flip-flop mode of
non-monotonic systems, end of the paper's Section 4) while the rest of
the system is fine.  :func:`escalation_router` degrades *selectively*:
unescalated unknowns keep the caller's operator (usually the paper's ⌴),
while escalated unknowns are routed to a *degraded* member strategy.

The degraded member comes from the strategy registry's escalation
ladder (:func:`repro.strategies.registry.escalation_ladder`):
``bounded-narrow:cap=N``, that is
:class:`~repro.solvers.combine.BoundedNarrowCombine` -- at most ``N``
improving narrow steps, after which the value can only grow by widening
and hence stabilises.  With ``cap=0`` an escalated unknown is on pure
widening (⌴ → ▽): ascending-only iteration, the paper's Theorem 1/2
regime where termination needs no monotonicity beyond the widening's
own guarantee.

Escalation preserves soundness: in the capped branch the new
contribution satisfies ``b <= a``, so returning ``a`` keeps
``sigma[x] >= f_x(sigma)`` -- the same argument as for
:class:`~repro.solvers.combine.BoundedWarrowCombine`, applied per
escalated unknown instead of globally.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Optional, Set

from repro.solvers.combine import Combine, PerVariableCombine


def escalation_router(
    base: Combine, escalated: Iterable[Hashable], degraded: Combine
) -> PerVariableCombine:
    """``degraded`` for the ``escalated`` unknowns, ``base`` for the rest.

    The member labels ``base`` and ``degraded`` name the two parts of a
    supervised run's combine snapshot.  The escalated set is copied: the
    supervisor builds a new router for each rung it walks.
    """
    escalated = frozenset(escalated)
    return PerVariableCombine(
        lambda x: "degraded" if x in escalated else "base",
        {"base": base, "degraded": degraded},
        default="base",
    )


def escalation_targets(
    flagged: Iterable[Hashable],
    error,
    histogram: Optional[Dict[Hashable, int]] = None,
    top: int = 5,
) -> Set[Hashable]:
    """The unknowns the next attempt should escalate after a trip.

    Preference order: the oscillation watchdog's flagged set (a precise
    diagnosis), then the hottest unknowns of the update histogram, then
    the unknown the structured error names.  The fallbacks matter when a
    budget or deadline watchdog trips before the oscillation detector
    reaches its threshold.
    """
    targets = set(flagged)
    if not targets and histogram:
        ranked = sorted(histogram.items(), key=lambda kv: (-kv[1], repr(kv[0])))
        targets.update(x for x, _ in ranked[:top])
    unknown = getattr(error, "unknown", None)
    if unknown is not None:
        targets.add(unknown)
    return targets
