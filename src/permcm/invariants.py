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
from .graphs import Graph, complement, mask_of, vbit, vertices_of


@dataclass(frozen=True)
class InvariantSet:
    alpha: int
    tau: int
    unmixed: bool
    matching: int
    induced_matching: int
    max_independent_sets: tuple[tuple[int, ...], ...]
    min_vertex_covers: tuple[tuple[int, ...], ...]


# each live graph's complete enumeration, dropped with the graph
_MIS: weakref.WeakKeyDictionary[Graph, tuple[tuple[int, ...], ...]] = (
    weakref.WeakKeyDictionary()
)


def maximal_independent_sets(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All inclusion-maximal independent sets (cliques of the complement).

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


def independence_invariants(g: Graph) -> tuple[int, int, bool, tuple[tuple[int, ...], ...]]:
    """Return (alpha, tau, unmixed, minimal vertex covers).

    Minimal vertex covers are exactly the complements of the maximal
    independent sets, so tau = n - alpha and unmixedness is the statement
    that all maximal independent sets share one cardinality.
    """
    return _independence(g)[1:]


def _independence(g: Graph) -> tuple:
    """The maximal independent sets, read once, then
    ``independence_invariants`` of ``g``."""
    sets = maximal_independent_sets(g)
    if not sets:  # only for the empty graph
        return sets, 0, 0, True, ()
    alpha = max(len(s) for s in sets)
    covers = tuple(sorted(vertices_of(g.full_mask & ~mask_of(s)) for s in sets))
    tau = g.n - alpha
    unmixed = all(len(s) == alpha for s in sets)
    return sets, alpha, tau, unmixed, covers


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


def matching_invariants(g: Graph) -> tuple[int, int]:
    """Return (m, im): maximum matching and induced matching sizes.

    Two edges are part of a common induced matching only when they form a
    gap: disjoint and with no adjacency between their endpoints.  Both
    numbers are maximum pairwise-compatible edge sets, computed exactly.
    """
    edges = g.edges()
    if not edges:
        return 0, 0
    vmasks = [vbit(u) | vbit(v) for u, v in edges]
    reach = [g.adj[u] | g.adj[v] for u, v in edges]
    k = len(edges)
    disjoint = [0] * k
    gap = [0] * k
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            if not vmasks[i] & vmasks[j]:
                disjoint[i] |= 1 << j
                if not reach[i] & vmasks[j]:
                    gap[i] |= 1 << j
    # a matching covers at most n vertices, and an induced matching is
    # a matching
    m = _max_compatible(disjoint, g.n // 2)
    im = _max_compatible(gap, m)
    return m, im


def compute_invariants(g: Graph) -> InvariantSet:
    """All invariants of the graph."""
    sets, alpha, tau, unmixed, covers = _independence(g)
    m, im = matching_invariants(g)
    return InvariantSet(
        alpha=alpha,
        tau=tau,
        unmixed=unmixed,
        matching=m,
        induced_matching=im,
        max_independent_sets=sets,
        min_vertex_covers=covers,
    )
