"""Variable orderings for the structured solvers.

Theorem 1 and 2 hold for *any* linear order of the unknowns, but the order
has a large impact on the number of evaluations (as the paper notes,
following Bourdoncle): the linear order should evaluate innermost loops
before iterating on outer loops.

Two orders are provided:

* :func:`dfs_priority_order` -- the order SLR induces dynamically: unknowns
  in depth-first discovery order from the roots, *reversed*, so that
  later-discovered (deeper) unknowns come first.  This is the default used
  by the benchmarks.
* :func:`weak_topological_order` -- Bourdoncle's hierarchical weak
  topological ordering, flattened.  Components (loops) are nested; within
  a flattened WTO every loop body is contiguous and follows its head.

Both operate on an explicit dependency graph ``deps: x -> iterable of
unknowns read by f_x``.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Iterable, List, Sequence

from repro.solvers._deepcall import ensure_recursion_limit


def dfs_priority_order(
    roots: Sequence[Hashable],
    deps: Callable[[Hashable], Iterable[Hashable]],
) -> List[Hashable]:
    """Return unknowns in reversed depth-first discovery order.

    This mimics the keys SLR assigns (``key[y] = -count`` at discovery):
    the first root receives the largest priority, transitively reachable
    unknowns smaller ones.  Reversing puts the deepest unknowns first,
    which is where the structured solvers start iterating.
    """
    seen: set = set()
    discovery: List[Hashable] = []
    # Iterative DFS preserving the recursive discovery order.
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        discovery.append(root)
        stack: List[tuple] = [(root, iter(list(deps(root))))]
        while stack:
            _, children = stack[-1]
            advanced = False
            for child in children:
                if child not in seen:
                    seen.add(child)
                    discovery.append(child)
                    stack.append((child, iter(list(deps(child)))))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
    return list(reversed(discovery))


def weak_topological_order(
    roots: Sequence[Hashable],
    deps: Callable[[Hashable], Iterable[Hashable]],
) -> List[Hashable]:
    """Return a flattened weak topological ordering (Bourdoncle 1993).

    The dependency graph is traversed in the *influence* direction (from an
    unknown to the unknowns it influences is the propagation direction; we
    receive ``deps`` and invert it).  The hierarchical order is computed by
    Bourdoncle's recursive-strongly-connected-components algorithm and then
    flattened; loop heads precede their bodies, nested components are
    contiguous.
    """
    # Collect the reachable universe and build successor lists in the
    # propagation direction: y -> x whenever y in deps(x).
    universe: List[Hashable] = []
    seen: set = set()
    stack = list(roots)
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        universe.append(x)
        stack.extend(deps(x))
    succ: Dict[Hashable, List[Hashable]] = {x: [] for x in universe}
    for x in universe:
        for y in deps(x):
            if y in succ:
                succ[y].append(x)

    # Bourdoncle's algorithm (iterative rendition of the recursive
    # partition construction based on Tarjan's SCC algorithm).
    dfn: Dict[Hashable, int] = {x: 0 for x in universe}
    num = 0
    partition: List[object] = []
    path: List[Hashable] = []

    def visit(vertex: Hashable, out: List[object]) -> int:
        nonlocal num
        path.append(vertex)
        num += 1
        head = num
        dfn[vertex] = num
        loop = False
        for w in succ[vertex]:
            if dfn[w] == 0:
                min_ = visit(w, out)
            else:
                min_ = dfn[w]
            if min_ <= head:
                head = min_
                loop = True
        if head == dfn[vertex]:
            dfn[vertex] = _INFTY
            element = path.pop()
            if loop:
                while element != vertex:
                    dfn[element] = 0
                    element = path.pop()
                out.insert(0, _component(vertex))
            else:
                out.insert(0, vertex)
        return head

    def _component(vertex: Hashable) -> list:
        comp: List[object] = []
        for w in succ[vertex]:
            if dfn[w] == 0:
                visit(w, comp)
        return [vertex, comp]

    # Traversal starts at the *sources* of the propagation graph (unknowns
    # without dependencies -- program entries and constants); any strongly
    # connected leftovers (dependency cycles without an entry) are visited
    # afterwards in universe order.
    starts = [x for x in universe if not list(deps(x))]
    starts += [x for x in universe if x not in set(starts)]

    ensure_recursion_limit(4 * len(universe) + 1000)
    for start in starts:
        if dfn.get(start, _INFTY) == 0:
            part: List[object] = []
            visit(start, part)
            partition.extend(part)

    flat: List[Hashable] = []

    def flatten(items) -> None:
        for item in items:
            if isinstance(item, list):
                flatten(item)
            else:
                flat.append(item)

    flatten(partition)
    # Include any unreachable unknowns at the end, for robustness.
    flat_set = set(flat)
    flat.extend(x for x in universe if x not in flat_set)
    return flat


_INFTY = float("inf")
