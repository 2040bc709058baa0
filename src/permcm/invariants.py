"""Independence, cover and matching invariants.

All computations are exact and exhaustive; the a-invariant formula in
the classifier needs the true induced matching number, so nothing here
is allowed to approximate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .caps import check_cap, get_cap
from .cohesive import maximal_cliques
from .graphs import Graph, complement


@dataclass(frozen=True)
class InvariantSet:
    alpha: int
    tau: int
    unmixed: bool
    matching: int
    induced_matching: int


# each live graph's complete enumeration, dropped with the graph
_MIS: weakref.WeakKeyDictionary[Graph, tuple[int, ...]] = weakref.WeakKeyDictionary()


def maximal_independent_sets(g: Graph) -> tuple[int, ...]:
    """All inclusion-maximal independent sets (cliques of the complement)
    as vertex masks, in increasing order.

    There can be 3^(n/3) of them (Moon-Moser), so the enumeration stops
    one set past the ``independent_sets`` cap and raises.  This is the
    one enumeration in the package: each graph's sets are kept while the
    graph is alive, and a kept result is checked against the cap again.
    """
    cap = get_cap("independent_sets")
    sets = _MIS.get(g)
    if sets is None:
        sets = maximal_cliques(complement(g), limit=cap + 1)
        if len(sets) <= cap:  # a truncated enumeration is not kept
            _MIS[g] = sets
    if len(sets) > cap:
        check_cap("independent_sets", len(sets), "maximal independent set count (a lower bound)")
    return sets


# each live graph's numbers read off its sets, dropped with the graph
_INDEPENDENCE: weakref.WeakKeyDictionary[Graph, tuple] = weakref.WeakKeyDictionary()


def independence_invariants(g: Graph) -> tuple[int, int, bool, tuple[int, ...]]:
    """Return (alpha, tau, unmixed, minimal vertex covers as masks in
    increasing order).

    Minimal vertex covers are exactly the complements of the maximal
    independent sets, so tau = n - alpha and unmixedness is the statement
    that all maximal independent sets share one cardinality.  This is
    the one place that reads these numbers off the sets, once per live
    graph; a kept result is checked against the cap again, as the sets
    are.
    """
    found = _INDEPENDENCE.get(g)
    if found is not None and len(found[3]) <= get_cap("independent_sets"):
        return found
    sets = maximal_independent_sets(g)  # past the cap, this raises
    if not sets:  # only for the empty graph
        found = 0, 0, True, ()
    else:
        sizes = {s.bit_count() for s in sets}
        alpha = max(sizes)
        # the sets increase as masks, so their complements decrease
        covers = tuple(g.full_mask & ~s for s in reversed(sets))
        found = alpha, g.n - alpha, len(sizes) == 1, covers
    _INDEPENDENCE[g] = found
    return found


def _max_compatible(compat: list[int], ceiling: int) -> int:
    """Largest subset of indices that is pairwise compatible.

    Branch and bound over an index bitmask; compat[i] holds the indices
    compatible with i.  The search stops once it has found ``ceiling``
    of them, a size the caller knows no compatible subset exceeds.
    """
    best = 0

    def go(candidates: int, size: int) -> None:
        nonlocal best
        if best >= ceiling or size + candidates.bit_count() <= best:
            return
        if not candidates:
            best = max(best, size)
            return
        low = candidates & -candidates
        i = low.bit_length() - 1
        go(candidates & compat[i], size + 1)
        go(candidates ^ low, size)

    go((1 << len(compat)) - 1, 0)
    return best


def _matching_relations(g: Graph) -> tuple[list[int], list[int]]:
    """For each edge i of ``g.edges()``, the masks over edge indices of
    the edges disjoint from it and of the edges forming a gap with it.

    Edge i = uv shares a vertex with exactly the edges at u or v, and
    forms no gap with exactly the edges at a vertex of N[u] or N[v].
    So both relations come from per-vertex masks of incident edges:
    ``touch[w]`` holds the edges at w, ``near[w]`` those at a vertex of
    N[w]."""
    edges = g.edges()
    touch = [0] * (g.n + 1)
    for i, (u, v) in enumerate(edges):
        touch[u] |= 1 << i
        touch[v] |= 1 << i
    near = [0] * (g.n + 1)
    for w in range(1, g.n + 1):
        acc = touch[w]
        s = g.adj[w]
        while s:
            low = s & -s
            s ^= low
            acc |= touch[low.bit_length()]
        near[w] = acc
    every = (1 << len(edges)) - 1
    disjoint = [every & ~(touch[u] | touch[v]) for u, v in edges]
    gap = [every & ~(near[u] | near[v]) for u, v in edges]
    return disjoint, gap


def matching_invariants(g: Graph) -> tuple[int, int]:
    """Return (m, im): maximum matching and induced matching sizes.

    Two edges are part of a common induced matching only when they form a
    gap: disjoint and with no adjacency between their endpoints.  Both
    numbers are maximum pairwise-compatible edge sets, computed exactly.
    """
    disjoint, gap = _matching_relations(g)
    if not disjoint:
        return 0, 0
    # a matching covers at most n vertices, and an induced matching is
    # a matching
    m = _max_compatible(disjoint, g.n // 2)
    im = _max_compatible(gap, m)
    return m, im


def compute_invariants(g: Graph) -> InvariantSet:
    """The numeric invariants of the graph."""
    alpha, tau, unmixed, _ = independence_invariants(g)
    m, im = matching_invariants(g)
    return InvariantSet(alpha, tau, unmixed, m, im)
