"""The combine-strategy registry: named, parameterized update strategies.

The paper's central object is the box operator ⌴ -- and its variants
(⌴ₖ, delayed widening, pure widening, classic two-phase) are exactly
the knobs a production analyzer tunes per workload, as Goblint's
``solverBox.ml`` does per-solve and even per-variable.  This registry
promotes every operator of :mod:`repro.solvers.combine` (plus the
two-phase baselines) into a first-class, string-addressable strategy::

    from repro.strategies import build_combine

    op = build_combine("warrow:delay=2", lattice)
    op = build_combine("wpoint", lattice, ctx=BuildContext(cfg=cfg))

Spec strings (:mod:`repro.strategies.spec`) travel through every layer
-- the CLI's ``--op``, batch :class:`~repro.batch.jobs.JobSpec` fields
and fingerprints, the service protocol's ``update_op``, and the
supervision escalation ladder -- so "which update strategy solved this"
is one canonical string everywhere.

Two *kinds* of strategy exist:

``combine``
    A :class:`~repro.solvers.combine.Combine` factory; usable wherever
    a solver takes an operator.
``phased``
    A widen-then-narrow schedule with two separate solver passes
    (``twophase``, ``decoupled``); executed by
    :func:`repro.analysis.inter.solve_twophase` rather than a single
    generic solve.

``solve_ready`` separates the strategies that terminate with a sound
post solution on their own (⌴ and friends, ascending-only widening)
from the building blocks that do not (plain ``join`` may ascend
forever on infinite-height domains; ``narrow``/``meet`` are
descending-only; ``override`` is exact iteration) -- the service and
supervision layers only accept solve-ready strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.solvers.combine import (
    BoundedJoinNarrowCombine,
    BoundedNarrowCombine,
    BoundedWarrowCombine,
    Combine,
    JoinCombine,
    MeetCombine,
    NarrowCombine,
    OverrideCombine,
    WarrowCombine,
    WidenCombine,
)
from repro.solvers.wpoints import widening_point_combine
from repro.strategies.spec import (
    SpecError,
    StrategySpec,
    format_spec,
    parse_spec,
)


class UnknownStrategyError(LookupError):
    """Raised when no strategy is registered under the requested name."""


@dataclass(frozen=True)
class BuildContext:
    """Optional build-time inputs a strategy factory may consume.

    Plain combine strategies need only the lattice; ``wpoint`` also
    wants the program CFG, to compute loop heads from it.  Widening
    thresholds are not built here: they live in the domain, which the
    executors build with them when ``needs_thresholds`` is set.
    """

    #: The program's control-flow graph (``None`` when unavailable).
    cfg: object = None


@dataclass(frozen=True)
class StrategyInfo:
    """One registered strategy and its capabilities."""

    #: Canonical registry name (also the spec-string name).
    name: str
    #: ``"combine"`` (a Combine factory) or ``"phased"`` (two-pass).
    kind: str
    #: ``factory(lattice, params, ctx) -> Combine`` for combine-kind
    #: strategies; ``None`` for phased ones.
    factory: Optional[Callable] = None
    #: Accepted parameters as ``(key, default)`` pairs.
    params: Tuple[Tuple[str, int], ...] = ()
    #: Whether the produced operator is idempotent (``(a op b) op b ==
    #: a op b``); mirrors :attr:`Combine.idempotent` and is checked for
    #: honesty by the property suite.
    idempotent: bool = False
    #: Whether a solve driven solely by this strategy terminates with a
    #: sound post solution (the service/supervision admission criterion).
    solve_ready: bool = True
    #: Whether the strategy's precision depends on the domain carrying
    #: program-derived widening thresholds (executors then collect them).
    needs_thresholds: bool = False
    #: Whether the factory needs ``BuildContext.cfg``.
    needs_cfg: bool = False
    #: Alternate lookup names.
    aliases: Tuple[str, ...] = ()
    #: Paper (or related-work) reference.
    paper_ref: str = ""
    #: One-line description for listings.
    summary: str = ""

    def defaults(self) -> Dict[str, int]:
        return dict(self.params)


_REGISTRY: Dict[str, StrategyInfo] = {}
_CANONICAL: List[str] = []


def register_strategy(info: StrategyInfo) -> StrategyInfo:
    """Add a strategy to the registry (module-import time)."""
    if info.kind not in ("combine", "phased"):
        raise ValueError(f"kind must be 'combine' or 'phased', got {info.kind!r}")
    if info.kind == "combine" and info.factory is None:
        raise ValueError(f"combine strategy {info.name!r} needs a factory")
    for key in (info.name, *info.aliases):
        existing = _REGISTRY.get(key)
        if existing is not None and existing.name != info.name:
            raise ValueError(
                f"strategy name {key!r} already registered for {existing.name!r}"
            )
        _REGISTRY[key] = info
    if info.name not in _CANONICAL:
        _CANONICAL.append(info.name)
    return info


def get_strategy(name: str) -> StrategyInfo:
    """Look up a strategy by canonical name or alias.

    :raises UnknownStrategyError: for unregistered names.
    """
    info = _REGISTRY.get(name.strip().lower())
    if info is None:
        known = ", ".join(_CANONICAL)
        raise UnknownStrategyError(
            f"unknown strategy {name!r}; registered strategies: {known}"
        )
    return info


def strategy_names() -> List[str]:
    """Canonical names of all registered strategies, in registration order."""
    return list(_CANONICAL)


def all_strategies() -> List[StrategyInfo]:
    """All registered strategy records, in registration order."""
    return [_REGISTRY[name] for name in _CANONICAL]


def resolve_spec(
    spec: Union[str, StrategySpec],
    *,
    widen_delay: Optional[int] = None,
) -> StrategySpec:
    """Parse + validate a spec against the registry; fill in defaults.

    The result is fully explicit: the canonical name (aliases resolved)
    and *every* accepted parameter with its effective value, so two
    resolved specs are semantically equal exactly when they compare
    equal.  ``widen_delay`` is the legacy scalar knob (CLI/batch/wire
    fields predating spec strings): it seeds the ``delay`` parameter
    only when the spec itself does not set one.

    :raises SpecError: for syntax errors, unknown parameters, or
        parameters the strategy does not accept.
    :raises UnknownStrategyError: for unregistered strategy names.
    """
    parsed = parse_spec(spec)
    info = get_strategy(parsed.name)
    accepted = info.defaults()
    params = dict(parsed.params)
    unknown = sorted(set(params) - set(accepted))
    if unknown:
        allowed = ", ".join(sorted(accepted)) or "none"
        raise SpecError(
            f"strategy {info.name!r} does not accept parameter(s) "
            f"{unknown}; accepted: {allowed}"
        )
    effective = dict(accepted)
    if widen_delay is not None and "delay" in accepted and "delay" not in params:
        effective["delay"] = int(widen_delay)
    effective.update(params)
    return StrategySpec(info.name, tuple(sorted(effective.items())))


def canonical_spec(
    spec: Union[str, StrategySpec], *, widen_delay: Optional[int] = None
) -> str:
    """The fully-resolved canonical string form of ``spec``."""
    return format_spec(resolve_spec(spec, widen_delay=widen_delay))


def build_combine(
    spec: Union[str, StrategySpec],
    lattice,
    *,
    ctx: Optional[BuildContext] = None,
    widen_delay: Optional[int] = None,
) -> Combine:
    """Instantiate the combine operator a spec describes.

    The produced operator carries the resolved spec as ``op.spec`` --
    engines stamp it into their stats, and :meth:`Combine.fresh` keeps
    it across clones.

    :raises SpecError: for phased strategies (they are two solver
        passes, not a single operator) or invalid parameters.
    """
    resolved = resolve_spec(spec, widen_delay=widen_delay)
    info = get_strategy(resolved.name)
    if info.kind != "combine":
        raise SpecError(
            f"strategy {info.name!r} is {info.kind}, not a combine operator; "
            f"run it via analyze_program_twophase"
        )
    if info.needs_cfg and (ctx is None or ctx.cfg is None):
        raise SpecError(
            f"strategy {info.name!r} needs a program CFG in the build context"
        )
    op = info.factory(lattice, resolved.as_dict(), ctx or BuildContext())
    op.spec = resolved
    return op


def strategy_listing() -> List[dict]:
    """Machine-readable records for every registered strategy.

    The payload behind ``repro strategies --json``; keys are stable API.
    """
    return [
        {
            "name": info.name,
            "aliases": list(info.aliases),
            "kind": info.kind,
            "params": {k: v for k, v in info.params},
            "idempotent": info.idempotent,
            "solve_ready": info.solve_ready,
            # Safe to iterate under a restarting solver (slr3/tdr): a
            # restarted region re-enters the operator cold, which only a
            # solve-ready combine guarantees to terminate from.
            "restart_safe": info.kind == "combine" and info.solve_ready,
            "needs_thresholds": info.needs_thresholds,
            "needs_cfg": info.needs_cfg,
            "paper_ref": info.paper_ref,
            "summary": info.summary,
        }
        for info in all_strategies()
    ]


# --------------------------------------------------------------------- #
# The supervision escalation ladder.                                    #
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class EscalationRung:
    """One rung of the supervision ladder: a degraded strategy + scope."""

    #: Spec of the degraded strategy escalated unknowns switch to.
    spec: str
    #: ``"targeted"`` (the flagged oscillating unknowns) or ``"all"``
    #: (every encountered unknown).
    scope: str
    #: Human-readable degradation label for supervision reports.
    label: str


def escalation_ladder(descent_cap: int = 1) -> Tuple[EscalationRung, ...]:
    """The supervisor's walk down the registry, mildest rung first.

    Rung 1 moves the *flagged* oscillating unknowns to bounded
    narrowing (``bounded-narrow:cap=N``); rung 2 moves *everything* to
    pure widening (``bounded-narrow:cap=0``, ⌴ → ▽) -- the paper's
    always-terminating regime.  Each rung names a registered strategy,
    so the ladder is data, not code: the supervisor resolves every rung
    through :func:`build_combine`.
    """
    if descent_cap < 0:
        raise ValueError("descent_cap must be non-negative")
    return (
        EscalationRung(
            spec=f"bounded-narrow:cap={descent_cap}",
            scope="targeted",
            label=f"bounded narrowing (cap {descent_cap})",
        ),
        EscalationRung(
            spec="bounded-narrow:cap=0",
            scope="all",
            label="pure widening (⌴ → ▽)",
        ),
    )


# --------------------------------------------------------------------- #
# The catalog.                                                          #
# --------------------------------------------------------------------- #

def _simple(cls):
    def factory(lattice, params, ctx):
        return cls(lattice)

    return factory


register_strategy(StrategyInfo(
    name="override",
    kind="combine",
    factory=lambda lattice, params, ctx: OverrideCombine(),
    idempotent=True,
    solve_ready=False,
    summary="a op b = b: plain (unaccelerated) iteration for exact solutions",
    paper_ref="Sec. 2",
))

register_strategy(StrategyInfo(
    name="join",
    kind="combine",
    factory=_simple(JoinCombine),
    idempotent=True,
    solve_ready=False,
    summary="a op b = a ⊔ b: post solutions; may ascend forever on "
    "infinite-height domains",
    paper_ref="Sec. 2",
))

register_strategy(StrategyInfo(
    name="meet",
    kind="combine",
    factory=_simple(MeetCombine),
    idempotent=True,
    solve_ready=False,
    summary="a op b = a ⊓ b: pre solutions (descending refinement)",
    paper_ref="Sec. 2",
))

register_strategy(StrategyInfo(
    name="widen",
    kind="combine",
    factory=lambda lattice, params, ctx: WidenCombine(
        lattice, delay=params["delay"]
    ),
    params=(("delay", 0),),
    solve_ready=True,
    aliases=("widening",),
    summary="pure ascending widening (the Fig. 7 baseline); "
    "delay=N joins N times per unknown first",
    paper_ref="Sec. 2",
))

register_strategy(StrategyInfo(
    name="narrow",
    kind="combine",
    factory=_simple(NarrowCombine),
    solve_ready=False,
    aliases=("narrowing",),
    summary="pure descending narrowing; only sound on post solutions of "
    "monotonic systems",
    paper_ref="Sec. 2",
))

register_strategy(StrategyInfo(
    name="warrow",
    kind="combine",
    factory=lambda lattice, params, ctx: WarrowCombine(
        lattice, delay=params["delay"]
    ),
    params=(("delay", 0),),
    solve_ready=True,
    aliases=("box", "combined"),
    summary="the paper's combined operator ⌴: narrow on shrink, "
    "widen on growth",
    paper_ref="Sec. 3",
))

register_strategy(StrategyInfo(
    name="warrow-k",
    kind="combine",
    factory=lambda lattice, params, ctx: BoundedWarrowCombine(
        lattice, k=params["k"]
    ),
    params=(("k", 2),),
    solve_ready=True,
    aliases=("bounded-warrow",),
    summary="⌴ₖ: the Section 4 termination safeguard -- narrowing "
    "freezes after k narrow-to-widen switches per unknown",
    paper_ref="Sec. 4",
))

register_strategy(StrategyInfo(
    name="bounded-narrow",
    kind="combine",
    factory=lambda lattice, params, ctx: BoundedNarrowCombine(
        lattice, cap=params["cap"]
    ),
    params=(("cap", 1),),
    solve_ready=True,
    summary="widen on growth, at most cap improving narrow steps per "
    "unknown (the escalation-ladder degraded mode)",
    paper_ref="Sec. 4",
))

register_strategy(StrategyInfo(
    name="no-narrow",
    kind="combine",
    factory=lambda lattice, params, ctx: BoundedNarrowCombine(lattice, cap=0),
    solve_ready=True,
    aliases=("widen-only",),
    summary="ascending-only ⌴ → ▽ (Goblint's NarrowOption "
    "with narrowing off): keep old on shrink, widen on growth",
    paper_ref="Thm. 1-2",
))

register_strategy(StrategyInfo(
    name="threshold-widen",
    kind="combine",
    factory=lambda lattice, params, ctx: WidenCombine(
        lattice, delay=params["delay"]
    ),
    params=(("delay", 0),),
    solve_ready=True,
    needs_thresholds=True,
    summary="widening against program-derived thresholds "
    "(analysis/thresholds.py); the domain must be built with them",
    paper_ref="Sec. 8",
))

register_strategy(StrategyInfo(
    name="join-narrow",
    kind="combine",
    factory=lambda lattice, params, ctx: BoundedJoinNarrowCombine(
        lattice, bound=params["bound"]
    ),
    params=(("bound", 3),),
    solve_ready=False,
    summary="join on growth, bounded narrow on shrink (the non-point "
    "member of the wpoint map); no acceleration, so not solve-ready",
    paper_ref="Sec. 4",
))

register_strategy(StrategyInfo(
    name="wpoint",
    kind="combine",
    factory=lambda lattice, params, ctx: widening_point_combine(
        lattice, ctx.cfg, delay=params["delay"], switch_bound=params["bound"]
    ),
    params=(("delay", 0), ("bound", 3)),
    solve_ready=True,
    needs_cfg=True,
    aliases=("widening-points",),
    summary="per-variable map (Goblint idiom): ⌴ at loop heads and "
    "globals, bounded join elsewhere",
    paper_ref="Sec. 8 / Bourdoncle",
))

register_strategy(StrategyInfo(
    name="twophase",
    kind="phased",
    params=(("delay", 0),),
    solve_ready=True,
    aliases=("two-phase", "classic"),
    summary="classical baseline: a complete widening pass, then a "
    "narrowing pass (irreversible side-effect accumulation)",
    paper_ref="Sec. 2 / Ex. 8",
))

register_strategy(StrategyInfo(
    name="decoupled",
    kind="phased",
    params=(("delay", 0),),
    solve_ready=True,
    aliases=("decoupled-narrow",),
    summary="decoupled descending phase: two passes, but per-origin "
    "contribution tracking lets narrowing improve globals",
    paper_ref="Arceri-Mastroeni-Zaffanella",
))
