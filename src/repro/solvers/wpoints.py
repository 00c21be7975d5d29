"""Widening-point selection: accelerate only where cycles close.

Applying widening (or the combined operator) at *every* unknown loses
precision at harmless join points.  The classic optimisation (Bourdoncle)
accelerates only at a set ``W`` of unknowns that cuts every dependency
cycle -- loop heads, in CFG terms.  All other unknowns are combined with
plain join, which cannot diverge because every infinite ascending chain
must pass through an accelerated unknown.

The paper notes that its approach is "complementary to such techniques
and can, possibly, be combined with these"; this module is exactly that
combination.  Its builders are maps of the one per-unknown router,
:class:`~repro.solvers.combine.PerVariableCombine`:
:func:`selective_combine` applies the combined operator at the widening
points and join elsewhere, and :func:`widening_point_combine` does the
same for the interprocedural analysis (the ``wpoint`` strategy).
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Hashable, Iterable, List, Set

from repro.lattices.base import Lattice
from repro.solvers.combine import (
    BoundedJoinNarrowCombine,
    BoundedWarrowCombine,
    Combine,
    JoinCombine,
    PerVariableCombine,
    WarrowCombine,
)


def widening_points(
    roots: Iterable[Hashable],
    deps: Callable[[Hashable], Iterable[Hashable]],
) -> Set[Hashable]:
    """A set of unknowns cutting every dependency cycle.

    Computed as the back-edge targets of an iterative depth-first search
    over the *dependency* graph (edges ``x -> deps(x)``): an unknown that
    is looked up again while still on the DFS stack heads a cycle.  The
    result is a feedback-vertex heuristic, not a minimum set -- exactly
    the loop-head selection used in practice.
    """
    points: Set[Hashable] = set()
    visited: Set[Hashable] = set()
    on_stack: Set[Hashable] = set()

    for root in roots:
        if root in visited:
            continue
        # Iterative DFS with explicit enter/exit events.
        stack: List[tuple] = [("enter", root)]
        while stack:
            action, node = stack.pop()
            if action == "exit":
                on_stack.discard(node)
                continue
            if node in on_stack:
                continue
            if node in visited:
                continue
            visited.add(node)
            on_stack.add(node)
            stack.append(("exit", node))
            for dep in deps(node):
                if dep in on_stack:
                    points.add(dep)
                elif dep not in visited:
                    stack.append(("enter", dep))
    return points


def node_widening_points(cfg) -> FrozenSet:
    """Loop-head nodes of every function in ``cfg``.

    Computed as the back-edge targets of a DFS over each function's
    successor graph -- the node-level projection of the unknown-level
    :func:`widening_points` (a ``PP`` unknown is a (function, context,
    node) triple; contexts are discovered dynamically, so the points are
    selected at node granularity).
    """
    points = set()
    for fn in cfg.functions.values():
        succs = {node: [] for node in fn.nodes}
        for edge in fn.edges:
            succs[edge.src].append(edge.dst)
        points.update(widening_points([fn.entry], lambda n: succs.get(n, ())))
    return frozenset(points)


def selective_combine(
    lattice: Lattice,
    points: Iterable[Hashable],
    accelerated: Combine = None,
    otherwise: Combine = None,
) -> PerVariableCombine:
    """Accelerate at selected unknowns only; plain join elsewhere.

    For monotone systems whose every dependency cycle passes through a
    selected unknown, termination of the structured solvers is preserved:
    between two accelerated updates, the join-combined unknowns can only
    re-evaluate finitely often.

    :param points: the unknowns to accelerate (e.g. from
        :func:`widening_points`).
    :param accelerated: operator at the points (default: the combined
        operator).
    :param otherwise: operator elsewhere (default: join).
    """
    points = frozenset(points)
    return PerVariableCombine(
        lambda x: "accelerated" if x in points else "otherwise",
        {
            "accelerated": (
                accelerated if accelerated is not None else WarrowCombine(lattice)
            ),
            "otherwise": otherwise if otherwise is not None else JoinCombine(lattice),
        },
        default="otherwise",
    )


def selective_warrow_combine(
    lattice: Lattice,
    points: Iterable[Hashable],
    delay: int = 0,
    switch_bound: int = 3,
) -> PerVariableCombine:
    """Combined operator at widening points, join-or-narrow elsewhere.

    Plain join at non-points would freeze over-approximations that flow in
    from a point before it narrows, so the non-accelerated branch also
    shrinks: values grow by join and shrink by narrowing.  Unrestricted,
    that combination re-creates the oscillations of the paper's
    Examples 1--2 *through the non-points* (a narrow at a non-point can
    re-trigger growth around the cycle forever) -- the empirical
    confirmation lives in the test-suite.  Worse, the joins at non-points
    can in turn drive unbounded narrow-to-widen switching at the
    *accelerated* points themselves -- the termination theorems of
    Section 4 hold only when the combined operator governs every unknown.
    We therefore apply the paper's Section 4 safeguard on both sides:
    after ``switch_bound`` narrow-to-grow switches per unknown, narrowing
    is given up, leaving only bounded join/widening growth.
    """
    accelerated: Combine
    if delay:
        accelerated = WarrowCombine(lattice, delay=delay)
    else:
        accelerated = BoundedWarrowCombine(lattice, k=switch_bound)
    return selective_combine(
        lattice,
        points,
        accelerated,
        BoundedJoinNarrowCombine(lattice, bound=switch_bound),
    )


def widening_point_combine(
    lattice, cfg, *, delay: int = 0, switch_bound: int = 3
) -> PerVariableCombine:
    """The classic per-variable map: ⌴ at widening points, join elsewhere.

    Program points whose CFG node heads a loop -- and every non-point
    unknown (flow-insensitive globals, which close the interprocedural
    cycles) -- get the combined operator; the remaining program points
    get the bounded join-or-narrow variant, which keeps the Section 4
    termination guarantee on non-monotonic systems.
    """
    points = node_widening_points(cfg)

    def chooser(x) -> str:
        node = getattr(x, "node", None)
        if node is None or node in points:
            return "accelerated"
        return "rest"

    return PerVariableCombine(
        chooser,
        {
            "accelerated": WarrowCombine(lattice, delay=delay),
            "rest": BoundedJoinNarrowCombine(lattice, bound=switch_bound),
        },
        default="rest",
    )
