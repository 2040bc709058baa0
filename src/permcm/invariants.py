"""Independence, cover and matching invariants.

All computations are exact and exhaustive; the a-invariant formula in
the classifier needs the true induced matching number, so nothing here
is allowed to approximate.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import check_cap, get_cap
from .cohesive import maximal_cliques
from .graphs import Graph, complement, vbit, vertices_of


@dataclass(frozen=True)
class InvariantSet:
    alpha: int
    tau: int
    unmixed: bool
    matching: int
    induced_matching: int
    max_independent_sets: tuple[tuple[int, ...], ...]
    min_vertex_covers: tuple[tuple[int, ...], ...]


def maximal_independent_sets(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All inclusion-maximal independent sets (cliques of the complement).

    There can be 3^(n/3) of them (Moon-Moser), so the enumeration stops
    one set past the ``independent_sets`` cap and raises.
    """
    cap = get_cap("independent_sets")
    sets = maximal_cliques(complement(g), limit=cap + 1)
    if len(sets) > cap:
        check_cap("independent_sets", len(sets), "maximal independent set count (a lower bound)")
    return sets


def independence_invariants(
    g: Graph, mis: tuple[tuple[int, ...], ...] | None = None
) -> tuple[int, int, bool, tuple[tuple[int, ...], ...]]:
    """Return (alpha, tau, unmixed, minimal vertex covers).

    Minimal vertex covers are exactly the complements of the maximal
    independent sets, so tau = n - alpha and unmixedness is the statement
    that all maximal independent sets share one cardinality.  ``mis``,
    when given, must be ``maximal_independent_sets(g)``.
    """
    if mis is None:
        mis = maximal_independent_sets(g)
    if not mis:  # only for the empty graph
        return 0, 0, True, ()
    alpha = max(len(s) for s in mis)
    full = g.full_mask
    covers = tuple(
        sorted(vertices_of(full & ~sum(vbit(v) for v in s)) for s in mis)
    )
    tau = g.n - alpha
    unmixed = all(len(s) == alpha for s in mis)
    return alpha, tau, unmixed, covers


def _max_compatible(compat: list[int]) -> int:
    """Largest subset of indices that is pairwise compatible.

    Branch and bound over an index bitmask; compat[i] holds the indices
    compatible with i.
    """
    best = 0

    def go(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
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
    m = _max_compatible(disjoint)
    im = _max_compatible(gap)
    return m, im


def compute_invariants(
    g: Graph, mis: tuple[tuple[int, ...], ...] | None = None
) -> InvariantSet:
    """All invariants; ``mis``, when given, must be
    ``maximal_independent_sets(g)``."""
    if mis is None:
        mis = maximal_independent_sets(g)
    alpha, tau, unmixed, covers = independence_invariants(g, mis)
    m, im = matching_invariants(g)
    return InvariantSet(
        alpha=alpha,
        tau=tau,
        unmixed=unmixed,
        matching=m,
        induced_matching=im,
        max_independent_sets=mis,
        min_vertex_covers=covers,
    )
