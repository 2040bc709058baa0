"""Independent brute-force oracles used only by the tests.

Everything here enumerates subsets directly and never calls the package
search routines it is checking, so a test comparing the two routes is a
genuine cross-validation.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, factorial
from operator import itemgetter
from typing import Iterable, Sequence

from permcm import Graph, Permutation, graph_from_edges, graph_from_permutation
from permcm.classes import Code, _inverse, _prime_forms, _reverse_complement
from permcm.classify import GraphFacts, SheddingCertificate, extract_shedding_order
from permcm.cli import _SURVEY_COLUMNS, _format_cell
from permcm.cohesive import maximal_cliques
from permcm.complexes import (
    HilbertData,
    _canonical,
    _homology_of_key,
    _join_homology,
    _maximalize,
    _series_coef,
)
from permcm.graphs import _components, induced_subgraph, inversions, mask_of, vbit, vertices_of
from permcm.ideals import _first_ordering
from permcm.invariants import independence_invariants, matching_invariants


def all_graphs(n: int):
    """Every labelled graph on n vertices (2^C(n,2) of them)."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for bits in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
        yield graph_from_edges(n, edges)


def _is_independent(g: Graph, subset: tuple[int, ...]) -> bool:
    return all(not g.has_edge(u, v) for u, v in combinations(subset, 2))


def brute_maximal_independent_sets(g: Graph) -> set[tuple[int, ...]]:
    verts = g.vertices()
    independents = [
        s for r in range(g.n + 1) for s in combinations(verts, r) if _is_independent(g, s)
    ]
    ind_sets = {frozenset(s) for s in independents}
    out = set()
    for s in ind_sets:
        if not any(s < t for t in ind_sets):
            out.add(tuple(sorted(s)))
    return out


def brute_maximal_cliques(g: Graph) -> set[tuple[int, ...]]:
    verts = g.vertices()
    cliques = {
        frozenset(s)
        for r in range(g.n + 1)
        for s in combinations(verts, r)
        if all(g.has_edge(u, v) for u, v in combinations(s, 2))
    }
    out = set()
    for s in cliques:
        if not any(s < t for t in cliques):
            out.add(tuple(sorted(s)))
    return out


def brute_minimal_vertex_covers(g: Graph) -> set[tuple[int, ...]]:
    verts = g.vertices()
    edges = g.edges()

    def is_cover(s: frozenset[int]) -> bool:
        return all(u in s or v in s for u, v in edges)

    covers = {
        frozenset(s)
        for r in range(g.n + 1)
        for s in combinations(verts, r)
        if is_cover(frozenset(s))
    }
    out = set()
    for s in covers:
        if not any(t < s for t in covers):
            out.add(tuple(sorted(s)))
    return out


def brute_matching_number(g: Graph) -> int:
    edges = g.edges()
    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for sub in combinations(edges, r):
            used = set()
            ok = True
            for u, v in sub:
                if u in used or v in used:
                    ok = False
                    break
                used.update((u, v))
            if ok:
                best = max(best, r)
                break
    return best


def brute_induced_matching_number(g: Graph) -> int:
    edges = g.edges()

    def forms_gap(e, f) -> bool:
        eu, ev = e
        return not (g.adj[eu] | g.adj[ev] | vbit(eu) | vbit(ev)) & (vbit(f[0]) | vbit(f[1]))

    best = 0
    for r in range(len(edges), 0, -1):
        if r <= best:
            break
        for sub in combinations(edges, r):
            if all(forms_gap(e, f) for e, f in combinations(sub, 2)):
                best = r
                break
    return best


def pairwise_matching_relations(g: Graph) -> tuple[list[int], list[int]]:
    """The disjoint and gap relations on the edges of g, as masks over
    edge indices, by testing every ordered pair of edges: the package's
    construction before it read them off per-vertex masks."""
    edges = g.edges()
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
    return disjoint, gap


def brute_is_chordal(g: Graph) -> bool:
    """No induced cycle of length at least 4."""
    verts = g.vertices()
    for r in range(4, g.n + 1):
        for sub in combinations(verts, r):
            degs = [sum(1 for u in sub if u != v and g.has_edge(u, v)) for v in sub]
            if any(d != 2 for d in degs):
                continue
            edge_count = sum(degs) // 2
            if edge_count != r:
                continue
            # 2-regular with r edges on r vertices: one or more disjoint
            # cycles; connected means a single induced r-cycle
            seen = {sub[0]}
            frontier = [sub[0]]
            while frontier:
                v = frontier.pop()
                for u in sub:
                    if u not in seen and g.has_edge(u, v):
                        seen.add(u)
                        frontier.append(u)
            if len(seen) == r:
                return False
    return True


def brute_verify_cohesive_order(g: Graph, seq: tuple[int, ...]) -> bool:
    """Both cohesive axioms, checked triple by triple."""
    for a, b, c in combinations(range(len(seq)), 3):
        e_ab = g.has_edge(seq[a], seq[b])
        e_bc = g.has_edge(seq[b], seq[c])
        e_ac = g.has_edge(seq[a], seq[c])
        if e_ab and e_bc and not e_ac:
            return False
        if e_ac and not (e_ab or e_bc):
            return False
    return True


def backtrack_cohesive_order(g: Graph) -> tuple[int, ...] | None:
    """Lexicographically first cohesive order by backtracking, or None.

    Vertices are placed left to right, trying smaller labels first, and a
    prefix is abandoned as soon as a triple ending at the new vertex
    violates an axiom.  Exponential in the worst case: keep n small.
    """
    n = g.n
    seq: list[int] = []
    placed = [False] * (n + 1)

    def fits(v: int) -> bool:
        for b in range(len(seq)):
            vb = seq[b]
            e_bv = g.has_edge(vb, v)
            for a in range(b):
                va = seq[a]
                e_ab = g.has_edge(va, vb)
                e_av = g.has_edge(va, v)
                if e_ab and e_bv and not e_av:
                    return False
                if e_av and not (e_ab or e_bv):
                    return False
        return True

    def extend() -> bool:
        if len(seq) == n:
            return True
        for v in range(1, n + 1):
            if not placed[v] and fits(v):
                seq.append(v)
                placed[v] = True
                if extend():
                    return True
                seq.pop()
                placed[v] = False
        return False

    return tuple(seq) if extend() else None


def maximal_chains(up: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """All maximal chains of the poset on 1..n with up-sets ``up``
    (``up[v]`` the mask of the elements strictly above v, index 0
    unused), each listed bottom to top, in increasing order.  Under a
    cohesive order they are the maximal cliques, which is what the
    shedding walk relies on when it reads a block as a chain."""
    out: list[tuple[int, ...]] = []

    def covers(v: int) -> int:
        # the elements above v and above nothing that is above v
        between = 0
        for w in vertices_of(up[v]):
            between |= up[w]
        return up[v] & ~between

    def walk(chain: list[int], v: int) -> None:
        chain.append(v)
        if not up[v]:
            out.append(tuple(chain))
        else:
            for w in vertices_of(covers(v)):
                walk(chain, w)
        chain.pop()

    above = 0
    for m in up:
        above |= m
    for v in range(1, len(up)):
        if not above & vbit(v):  # a minimal element
            walk([], v)
    return tuple(sorted(out))


def _cover_pairs(order: Sequence[int], below: dict[int, set[int]]) -> list[tuple[int, int]]:
    """The pairs u < v of the partial order on ``order`` with strict
    down-sets ``below`` that have nothing strictly between them."""
    return [(u, v) for v in order for u in below[v]
            if not any(u in below[w] for w in below[v])]


def order_reference(g: Graph, order: Sequence[int]) -> dict:
    """The independence facts, the CM flag and the Hilbert data of g,
    read off its cohesive order ``order`` alone: no set is enumerated
    and no complex is built.

    Under a cohesive order, Q ("earlier and non-adjacent") is a partial
    order whose chains are the independent sets and whose maximal
    chains, the paths of its cover pairs from a minimal element to a
    maximal one, are the maximal independent sets.  So alpha is the
    longest such path, the graph is unmixed when the shortest is as
    long, the number of paths is the number of sets, and the f-vector
    counts Q's chains by size.  P ("earlier and adjacent") is a partial
    order whose maximal chains are the maximal cliques, and a partition
    into alpha maximal cliques is a perfect matching of P's cover pairs
    from its non-maximal elements to its non-minimal ones.  A bipartite
    graph with exactly one perfect matching has a vertex of degree 1,
    whose one edge is forced, so the partition is unique exactly when
    peeling such vertices matches every element.
    """
    earlier = {v: order[:i] for i, v in enumerate(order)}
    q_below = {v: {u for u in earlier[v] if not g.has_edge(u, v)} for v in order}
    p_below = {v: {u for u in earlier[v] if g.has_edge(u, v)} for v in order}

    longest, shortest, paths = {}, {}, {}
    q_covers = _cover_pairs(order, q_below)
    for v in order:
        lower = [u for u, w in q_covers if w == v]
        longest[v] = 1 + max((longest[u] for u in lower), default=0)
        shortest[v] = 1 + min((shortest[u] for u in lower), default=0)
        paths[v] = sum(paths[u] for u in lower) or 1
    tops = [v for v in order if not any(u == v for u, _ in q_covers)]
    alpha = max(longest[v] for v in tops)
    unmixed = min(shortest[v] for v in tops) == alpha

    chains = {}  # chains[v][s]: the chains of Q of size s with top v
    for v in order:
        chains[v] = [0, 1] + [sum(chains[u][s - 1] for u in q_below[v]) for s in range(2, alpha + 1)]
    f = tuple([1] + [sum(chains[v][s] for v in order) for s in range(1, alpha + 1)])
    # h(t) = sum_s f_s t^s (1 - t)^(alpha - s)
    h = [0] * (alpha + 1)
    for s, fs in enumerate(f):
        for j in range(alpha - s + 1):
            h[s + j] += fs * (-1) ** j * comb(alpha - s, j)
    a = max((j for j, hj in enumerate(h) if hj), default=0) - alpha

    edges = set(_cover_pairs(order, p_below))
    left, right = {u for u, _ in edges}, {v for _, v in edges}
    while edges:
        degree = Counter(x for e in edges for x in ((0, e[0]), (1, e[1])))
        forced = next((e for e in sorted(edges) if degree[0, e[0]] == 1 or degree[1, e[1]] == 1), None)
        if forced is None:
            break  # nothing is forced: no perfect matching, or more than one
        left.discard(forced[0])
        right.discard(forced[1])
        edges = {e for e in edges if e[0] != forced[0] and e[1] != forced[1]}
    unique = not (left or right or edges)

    return {
        "alpha": alpha, "tau": g.n - alpha, "unmixed": unmixed,
        "sets": sum(paths[v] for v in tops), "cm": unmixed and unique,
        "f": f, "a": a,
        # the Hilbert function and polynomial agree at every t >= 1 and
        # differ at t = 0 by the reduced Euler characteristic
        "hilbertian": sum((-1) ** s * fs for s, fs in enumerate(f)) == 0,
    }


def fraction_rank(rows) -> int:
    """Plain Gaussian elimination over Fraction."""
    if not rows:
        return 0
    m = [[Fraction(x) for x in r] for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(nr):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank


def bareiss_rank(rows) -> int:
    """Rank over Q by dense fraction-free (Bareiss) elimination with
    column skipping: every intermediate entry is a minor of the input, so
    the divisions are exact and everything stays an integer."""
    if not rows:
        return 0
    m = [list(r) for r in rows]
    nr, nc = len(m), len(m[0])
    rank = 0
    prev = 1
    for c in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][c]
        row_r = m[rank]
        for i in range(rank + 1, nr):
            row_i = m[i]
            mic = row_i[c]
            for j in range(c + 1, nc):
                row_i[j] = (row_i[j] * p - mic * row_r[j]) // prev
            row_i[c] = 0
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def _face_sets(facets: list[int]) -> set[frozenset[int]]:
    """Every face, the empty one included, of the complex on these facet
    masks (bit v-1 for vertex v); empty for the void complex."""
    out: set[frozenset[int]] = set()
    for m in facets:
        verts = [v + 1 for v in range(m.bit_length()) if m >> v & 1]
        for r in range(len(verts) + 1):
            out.update(frozenset(s) for s in combinations(verts, r))
    return out


def is_flag(c) -> bool:
    """Whether every vertex set whose pairs are all edges of the complex
    is a face of it, by checking every vertex subset."""
    faces = _face_sets(list(c.facets))
    edges = {f for f in faces if len(f) == 2}
    verts = {v for f in faces for v in f}
    return all(
        frozenset(s) in faces
        for r in range(3, len(verts) + 1)
        for s in combinations(sorted(verts), r)
        if all(frozenset(p) in edges for p in combinations(s, 2))
    )


def boundary_matrices(faces: set[frozenset[int]]):
    """Dense boundary matrices of a complex given by all its faces, from
    size-s faces (columns) to size-(s-1) faces (rows), for every s >= 1
    with both sides nonempty; each as (s, rows)."""
    by_size: dict[int, list[tuple[int, ...]]] = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(tuple(sorted(f)))
    for group in by_size.values():
        group.sort()
    for s in sorted(by_size):
        if s == 0 or s - 1 not in by_size:
            continue
        row_of = {f: i for i, f in enumerate(by_size[s - 1])}
        cols = by_size[s]
        mat = [[0] * len(cols) for _ in row_of]
        for col, f in enumerate(cols):
            for k in range(s):
                mat[row_of[f[:k] + f[k + 1:]]][col] = (-1) ** k
        yield s, mat


_BRUTE_HOMOLOGY: dict[frozenset[frozenset[int]], dict[int, int]] = {}


def brute_reduced_homology(faces: set[frozenset[int]]) -> dict[int, int]:
    """Reduced homology ranks over Q, {dimension: rank}, zeros omitted,
    from dense boundary matrices ranked by ``bareiss_rank``.  Remembered
    per labelled face set, since sweeps repeat induced complexes."""
    key = frozenset(faces)
    if key not in _BRUTE_HOMOLOGY:
        _BRUTE_HOMOLOGY[key] = _dense_homology(faces)
    return _BRUTE_HOMOLOGY[key]


def _dense_homology(faces: set[frozenset[int]]) -> dict[int, int]:
    count: dict[int, int] = {}
    for f in faces:
        count[len(f)] = count.get(len(f), 0) + 1
    rank = {s: bareiss_rank(mat) for s, mat in boundary_matrices(faces)}
    out = {}
    for s, c in count.items():
        h = c - rank.get(s, 0) - rank.get(s + 1, 0)
        if h:
            out[s - 1] = h
    return out


def brute_betti_table(c) -> dict[tuple[int, int], int]:
    """Hochster's formula with no pruning: every vertex subset W of the
    ambient set adds the dense reduced homology of the induced complex
    on W, in dimension d, to the entry (|W| - d - 1, |W|)."""
    faces = _face_sets(list(c.facets))
    ambient = [v + 1 for v in range(c.vertices.bit_length()) if c.vertices >> v & 1]
    entries: dict[tuple[int, int], int] = {}
    for r in range(len(ambient) + 1):
        for w in combinations(ambient, r):
            ws = set(w)
            for d, h in brute_reduced_homology({f for f in faces if f <= ws}).items():
                key = (r - d - 1, r)
                entries[key] = entries.get(key, 0) + h
    return entries


def _neighbourhood_meets(key: tuple[int, ...], used: int) -> list[int] | None:
    """For a flag complex whose used vertices are the low bits ``used``
    (a canonical key), the table whose entry at each set U of them is
    the meet of their closed 1-skeleton neighbourhoods; None when the
    complex is not flag.  The flag test is the package's before the
    one-pass tables: every maximal clique of the 1-skeleton, found by
    the clique search, must be a facet."""
    k = used.bit_length()
    nbhd = [0] * (k + 1)  # closed neighbourhoods; index 0 unused
    for m in key:
        for v in vertices_of(m):
            nbhd[v] |= m
    skeleton = Graph(k, (0, *(nbhd[v] & ~vbit(v) for v in range(1, k + 1))))
    facets = set(key)
    if any(c not in facets for c in maximal_cliques(skeleton)):
        return None
    meet = [used] * (used + 1)
    for u in range(1, used + 1):
        meet[u] = meet[u & (u - 1)] & nbhd[(u & -u).bit_length()]
    return meet


def unfolded_betti_table(c) -> dict[tuple[int, int], int]:
    """Hochster's formula as the package walked it before folding: on a
    flag complex the subsets W whose induced complex is a cone are
    skipped, and every other W pays ``_maximalize`` and ``_canonical``
    on the induced facets before the homology memo."""
    n = c.vertices.bit_count()
    key = _canonical(c.facets)
    used = (1 << max(m.bit_length() for m in key)) - 1
    meet = _neighbourhood_meets(key, used)
    entries: dict[tuple[int, int], int] = {}
    full = (1 << n) - 1
    w = full
    while True:
        u = w & used
        if meet is None or not meet[u] & u:  # else a cone: no homology
            j = w.bit_count()
            induced = _maximalize(m & w for m in key)
            for d, r in _homology_of_key(_canonical(induced)).items():
                entries[(j - d - 1, j)] = entries.get((j - d - 1, j), 0) + r
        if w == 0:
            break
        w = (w - 1) & full
    return entries


def _walked_fold(u: int, meet: list[int]) -> int | None:
    """What is left of the vertex set ``u`` of a flag complex after
    folding, vertex by vertex and pass after pass, or None when the
    induced complex on it is a cone; ``meet`` is the table of
    ``_neighbourhood_meets``."""
    r = u
    folded = True
    while folded:
        if meet[r] & r:
            return None
        folded = False
        s = r
        while s:
            low = s & -s
            s ^= low
            near = r & meet[low]
            if meet[near] & near != low:
                r ^= low
                folded = True
    return r


def walked_betti_table(c) -> dict[tuple[int, int], int]:
    """Hochster's formula as the package walked it before the fold
    table: on a flag complex every vertex subset W is folded on its own,
    a cone is skipped, and each other W adds the homology of its folded
    set, memoised per call and read off the parts' homology when the
    complement of the 1-skeleton splits it into components."""
    n = c.vertices.bit_count()
    key = _canonical(c.facets)
    used = (1 << max(m.bit_length() for m in key)) - 1
    meet = _neighbourhood_meets(key, used)
    if meet is None:
        return unfolded_betti_table(c)
    apart = [0, *(used & ~meet[vbit(v)] for v in range(1, used.bit_length() + 1))]
    by_fold: dict[int, dict[int, int]] = {}

    def folded_homology(r: int) -> dict[int, int]:
        ranks = by_fold.get(r)
        if ranks is None:
            parts = _components(apart, r)
            if len(parts) == 1:
                ranks = _homology_of_key(_canonical(_maximalize(m & r for m in key)))
            else:
                ranks = {-1: 1}  # the complex {{}}, unit of the join
                for part in parts:
                    ranks = _join_homology(ranks, folded_homology(part))
            by_fold[r] = ranks
        return ranks

    entries: dict[tuple[int, int], int] = {}
    full = (1 << n) - 1
    w = full
    while True:
        r = _walked_fold(w & used, meet)
        if r is not None:
            j = w.bit_count()
            for d, h in folded_homology(r).items():
                entries[(j - d - 1, j)] = entries.get((j - d - 1, j), 0) + h
        if w == 0:
            break
        w = (w - 1) & full
    return entries


_WALKED_REISNER: dict[tuple[int, ...], bool] = {}


def walked_reisner(key: tuple[int, ...]) -> bool:
    """Reisner's criterion on the complex with canonical facets ``key``:
    its own homology, then each vertex link's criterion, recursively.
    The package walked links this way before it checked each face's
    link directly (``permcm.complexes._reisner_key``)."""
    cached = _WALKED_REISNER.get(key)
    if cached is not None:
        return cached
    if not key:
        _WALKED_REISNER[key] = True
        return True
    top = max(m.bit_count() for m in key) - 1
    result = True
    for d, r in _homology_of_key(key).items():
        if d < top and r:
            result = False
            break
    if result and top > 0:
        supp = 0
        for m in key:
            supp |= m
        s = supp
        while s:
            low = s & -s
            s ^= low
            link = tuple(sorted(m ^ low for m in key if m & low))
            if not walked_reisner(_canonical(link)):
                result = False
                break
    _WALKED_REISNER[key] = result
    return result


def product_series_coef(m: int, d: int) -> int:
    """Coefficient of t^m in 1/(1-t)^d as the product
    (m+1)(m+2)...(m+d-1) / (d-1)!, at any integer m: the form
    ``complexes._series_coef`` had before it read binomials."""
    if d == 0:
        return int(m == 0)
    num = 1
    for i in range(1, d):
        num *= m + i
    return num // factorial(d - 1)


def summed_hilbert_function(hd: HilbertData) -> tuple[int, ...]:
    """``hd.hf`` as ``hilbert_data`` summed it before prefix sums: each
    value its own sum of h_j times a series coefficient."""
    h_t, d = hd.h, hd.d
    return tuple(
        sum(h_t[j] * _series_coef(m - j, d) for j in range(min(m, d) + 1))
        for m in range(len(hd.hf))
    )


def hilbert_function_from_f(f: tuple[int, ...], m: int) -> int:
    """Direct count of degree-m monomials supported on faces."""
    if m == 0:
        return 1
    return sum(f[k + 1] * comb(m - 1, k) for k in range(len(f) - 1))


_VD_CACHE: dict[tuple[int, ...], bool] = {}


def _shedding_split(
    facets: tuple[int, ...]
) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """The first shedding vertex, as a bit, whose deletion and link are
    both vertex decomposable, with those two facet lists; None if there
    is none.  A shedding vertex is one whose deletion keeps only facets
    of the whole complex."""
    facet_set = set(facets)
    supp = 0
    for m in facets:
        supp |= m
    s = supp
    while s:
        low = s & -s
        s ^= low
        del_facets = _maximalize(m & ~low for m in facets)
        if any(df not in facet_set for df in del_facets):
            continue  # deletion loses a facet, not a shedding vertex
        link = tuple(sorted(m ^ low for m in facets if m & low))
        if _vd_key(_canonical(del_facets)) and _vd_key(_canonical(link)):
            return low, del_facets, link
    return None


def _vd_key(key: tuple[int, ...]) -> bool:
    """Vertex decomposability by the direct shedding-vertex search on
    canonical facets, memoised here: the reference for
    ``permcm.complexes.is_vertex_decomposable``, which reads it off the
    Alexander dual."""
    cached = _VD_CACHE.get(key)
    if cached is not None:
        return cached
    result = len(key) <= 1 or _shedding_split(key) is not None
    _VD_CACHE[key] = result
    return result


def vertex_decomposable_test(c) -> dict | None:
    """Witness tree of shedding vertices, or None.

    A simplex is the base case.  Otherwise some vertex x must satisfy:
    deletion and link at x both vertex decomposable, and every facet of
    the deletion is a facet of the whole complex.  The memoised boolean
    of the direct search guides the reconstruction, so the tree is cheap
    and is reported in the original vertex labels.
    """
    if not _vd_key(_canonical(c.facets)):
        return None

    def build(facets: tuple[int, ...]) -> dict:
        if len(facets) <= 1:
            return {"simplex": [list(vertices_of(m)) for m in facets]}
        found = _shedding_split(facets)
        if found is None:
            raise AssertionError("witness reconstruction disagrees with the memo")
        low, del_facets, link = found
        return {
            "shedding_vertex": low.bit_length(),
            "deletion": build(del_facets),
            "link": build(link),
        }

    return build(c.facets)


def _shelling_step_ok(prefix: list[int], new: int) -> bool:
    # Bjorner-Wachs condition: for every earlier facet F_i there is an
    # earlier F_j with F_j n F_k = F_k \ {v} containing F_i n F_k.
    for fi in prefix:
        inter_i = fi & new
        ok = False
        for fj in prefix:
            diff = new & ~fj
            if diff.bit_count() == 1 and inter_i & ~(fj & new) == 0:
                ok = True
                break
        if not ok:
            return False
    return True


def shellable_bruteforce_test(c) -> bool:
    """Search all facet orderings for a shelling, with prefix pruning.

    For pure complexes the intersection condition is the classical one
    (each new facet meets the old ones in a nonempty union of
    codimension-one faces).  Exponential in the facet count: call it on
    small complexes only.
    """
    return _first_ordering(c.facets, _shelling_step_ok) is not None


def check_vd_tree(facets: set[tuple[int, ...]], tree: dict) -> bool:
    """Re-validate a shedding witness tree from the facet sets alone."""
    if "simplex" in tree:
        recorded = {tuple(sorted(f)) for f in tree["simplex"]}
        return len(facets) <= 1 and recorded == facets
    v = tree["shedding_vertex"]
    if not any(v in f for f in facets):
        return False
    del_pool = {tuple(sorted(set(f) - {v})) for f in facets}
    del_facets = {
        f for f in del_pool if not any(set(f) < set(h) for h in del_pool)
    }
    if not del_facets <= facets:
        return False
    link = {tuple(sorted(set(f) - {v})) for f in facets if v in f}
    return check_vd_tree(del_facets, tree["deletion"]) and check_vd_tree(
        link, tree["link"]
    )


def check_split_tree(gens: set[tuple[int, ...]], tree: dict) -> bool:
    """Re-validate a vertex-splitting witness from the generators alone."""
    if "base" in tree:
        recorded = {tuple(sorted(u)) for u in tree["base"]}
        return len(gens) <= 1 and recorded == gens
    x = tree["pivot"]
    with_x = {tuple(sorted(set(u) - {x})) for u in gens if x in u}
    without = {u for u in gens if x not in u}
    if not with_x:
        return False
    if not all(any(set(w) <= set(v) for w in with_x) for v in without):
        return False
    return check_split_tree(with_x, tree["factor"]) and check_split_tree(
        without, tree["rest"]
    )


@lru_cache(maxsize=None)
def _relabelled_pair_bits(n: int) -> list[dict[tuple[int, int], int]]:
    """For each relabelling of 1..n, the bit of the image of each pair."""
    index = {p: k for k, p in enumerate(combinations(range(1, n + 1), 2))}
    return [
        {(u, v): 1 << index[tuple(sorted((s[u - 1], s[v - 1])))] for u, v in index}
        for s in permutations(range(1, n + 1))
    ]


def brute_canonical(g: Graph) -> int:
    """Least relabelled edge list of g over all n! relabellings, as a
    bitmask over the vertex pairs: two graphs get the same value exactly
    when they are isomorphic."""
    edges = g.edges()
    return min(sum(bits[e] for e in edges) for bits in _relabelled_pair_bits(g.n))


# -- the scan of S_n: the oracle of the classes built from trees ----------------

def _children(p: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Kind of the root node (0 direct sum, 1 skew sum, 2 prime) and the
    position ranges [start, stop) of its children, left to right."""
    n = len(p)
    hi, lo = 0, n + 1
    sum_cuts, skew_cuts = [0], [0]
    for k, v in enumerate(p, 1):
        hi, lo = max(hi, v), min(lo, v)
        if hi == k:
            sum_cuts.append(k)
        if lo == n + 1 - k:
            skew_cuts.append(k)
    for kind, cuts in enumerate((sum_cuts, skew_cuts)):
        if len(cuts) > 2:
            return kind, list(zip(cuts, cuts[1:]))
    # prime: the maximal proper intervals partition the positions, so
    # the child at a position is the longest proper interval from it
    ranges = []
    start = 0
    while start < n:
        lo = hi = p[start]
        stop = start + 1
        for j in range(start + 1, n if start else n - 1):
            lo, hi = min(lo, p[j]), max(hi, p[j])
            if hi - lo == j - start:
                stop = j + 1
        ranges.append((start, stop))
        start = stop
    return 2, ranges


def _code(p: tuple[int, ...], memo: dict[tuple[int, ...], Code]) -> Code:
    if len(p) <= 1:
        return ()
    kind, ranges = _children(p)
    codes = []
    for start, stop in ranges:
        block = p[start:stop]
        low = min(block) - 1
        pattern = tuple(v - low for v in block)
        code = memo.get(pattern)
        if code is None:
            code = memo[pattern] = _code(pattern, memo)
        codes.append(code)
    if kind < 2:
        return (kind, tuple(sorted(codes)))
    firsts = sorted(range(len(ranges)), key=lambda k: p[ranges[k][0]])
    quotient = [0] * len(ranges)
    for rank, k in enumerate(firsts, 1):
        quotient[k] = rank
    return (2,) + min(_prime_forms(tuple(quotient), tuple(codes)))


def canonical_code(perm: Sequence[int]) -> Code:
    """A code of the inversion graph of ``perm`` that two permutations
    share exactly when their inversion graphs are isomorphic."""
    return _code(tuple(perm), {})


def serial_permutation_classes(n: int) -> list[list[tuple[int, ...]]]:
    """S_n split by the isomorphism class of the inversion graph, by
    the code of the least member of each orbit, in one pass with one
    memo: the scan both sweeps ran before their classes were built from
    substitution trees, kept as the oracle of ``class_records`` and
    ``class_members``.  Each class is sorted, and the classes come in
    the order of their least members."""
    memo: dict = {}
    by_code: dict = {}
    for p in permutations(range(1, n + 1)):
        inv = _inverse(p)
        orbit = {p, inv, _reverse_complement(p), _reverse_complement(inv)}
        if p == min(orbit):
            by_code.setdefault(_code(p, memo), []).extend(orbit)
    return [sorted(members) for members in by_code.values()]


def labelled_sweep(per_graph, n: int) -> list[tuple[tuple, tuple[int, ...], dict | None]]:
    """``per_graph`` of the inversion graph of every permutation of S_n,
    labelled as built, with its edge tuple and permutation, sorted by edge
    tuple: the sweep before isomorphism classes, kept as the oracle of the
    class sweep.  It runs the package's own per-graph checks; what it
    cross-validates is the grouping and weighting around them."""
    out = []
    for p in permutations(range(1, n + 1)):
        g = graph_from_permutation(Permutation(p))
        facts = GraphFacts(g, order=tuple(range(1, n + 1)))
        out.append((g.edges(), p, per_graph(facts)))
    out.sort(key=itemgetter(0))
    return out


def labelled_verify(theorem: str, n: int, check) -> dict:
    """The document of ``verify <theorem> --n <n>``, one graph per
    permutation, with ``check`` as the theorem's check; ``counts`` lists
    the predicates in the order the sweep first meets them."""
    counts: dict[str, int] = {}
    discrepancies = []
    checked = skipped = 0
    results = labelled_sweep(check, n)
    for edges, perm, res in results:
        if res is None:
            skipped += 1
            continue
        checked += 1
        for name, value in res["predicates"].items():
            if value:
                counts[name] = counts.get(name, 0) + 1
        if not res["ok"]:
            discrepancies.append({
                "edges": [list(e) for e in edges], "perm": list(perm),
                "predicates": res["predicates"], "detail": res["detail"],
            })
    return {
        "theorem": theorem, "n": n,
        "total_permutations": len(results), "distinct_graphs": len(results),
        "checked": checked, "skipped": skipped,
        "counts": counts, "discrepancies": discrepancies,
    }


def labelled_survey_rows(n: int, row) -> list[dict]:
    """The rows of ``survey --n <n>``, one graph per permutation, with
    ``row`` giving every column but ``edges``, in column order."""
    return [
        {"edges": ";".join(f"{u}-{v}" for u, v in edges), **dict(zip(_SURVEY_COLUMNS[1:], cells))}
        for edges, _, cells in labelled_sweep(row, n)
    ]


def survey_members(survey) -> list[dict]:
    """One dict per key of a ``survey_rows`` result, in key order: the
    ``edges`` cell and the columns of its class's row.  Each key is read
    here on its own terms: the 1-based indices of its edges among the
    pairs u < v of 1..n in increasing order, a zero byte, and the index
    of its row, big-endian."""
    pairs = list(combinations(range(1, survey.n + 1), 2))
    out = []
    for key in survey.keys:
        cut = key.index(0)
        row = survey.rows[int.from_bytes(key[cut + 1:], "big")]
        out.append({"edges": ";".join("%d-%d" % pairs[b - 1] for b in key[:cut]),
                    **dict(zip(_SURVEY_COLUMNS[1:], row))})
    return out


def inversion_edges_cell(p: tuple[int, ...]) -> str:
    """The survey's ``edges`` cell of ``p`` from its sorted inversions."""
    return ";".join(f"{u}-{v}" for u, v in inversions(p))


def csv_writer_survey(members: list[dict]) -> str:
    """The survey CSV of ``survey_members``' dicts through
    ``csv.writer``, one row at a time and one cell at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_SURVEY_COLUMNS)
    for member in members:
        writer.writerow([member["edges"]] + [_format_cell(member[c]) for c in _SURVEY_COLUMNS[1:]])
    return buf.getvalue()


@dataclass(frozen=True)
class TupleInvariantSet:
    """``InvariantSet`` as it was when it carried the sets as tuples."""

    alpha: int
    tau: int
    unmixed: bool
    matching: int
    induced_matching: int
    max_independent_sets: tuple[tuple[int, ...], ...]
    min_vertex_covers: tuple[tuple[int, ...], ...]


def tuple_invariants(g: Graph) -> TupleInvariantSet:
    """All invariants of the graph; the sets in it are sorted vertex
    tuples, the form a report prints: ``compute_invariants`` when it
    returned them."""
    alpha, tau, unmixed, covers = independence_invariants(g)
    m, im = matching_invariants(g)
    return TupleInvariantSet(
        alpha=alpha,
        tau=tau,
        unmixed=unmixed,
        matching=m,
        induced_matching=im,
        # the complements of the covers, so the sets are fetched once
        max_independent_sets=_as_tuples(g.full_mask & ~c for c in covers),
        min_vertex_covers=_as_tuples(covers),
    )


def _as_tuples(masks: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    # sorted as tuples: sorted as masks, {2} would come before {1, 3}
    return tuple(sorted(map(vertices_of, masks)))


def ungated_nearly_gorenstein(facts: GraphFacts) -> bool:
    """``GraphFacts.nearly_gorenstein`` without its edge-count gate:
    every stripped graph on at least 3 vertices that is not Gorenstein
    goes through ``recognize_structure``."""
    if facts.stripped[0].n < 3 or facts.gorenstein:
        return False
    return facts.structure.is_complete or facts.structure.is_path_complement


def subset_walk_gap_witness_check(g: Graph) -> bool | None:
    """``gap_witness_check`` by walking every (alpha - 2)-subset of the
    vertices: each independent one must leave a graph of four vertices
    of degree 1 once its closed neighbourhood is deleted."""
    alpha = max((len(s) for s in brute_maximal_independent_sets(g)), default=0)
    if alpha < 2:
        return None
    for combo in combinations(range(1, g.n + 1), alpha - 2):
        if not _is_independent(g, combo):
            continue
        drop = set(combo).union(*(vertices_of(g.adj[v]) for v in combo))
        sub = induced_subgraph(g, g.full_mask & ~mask_of(drop))
        if sub.n != 4 or any(sub.degree(v) != 1 for v in sub.vertices()):
            return False
    return True


def translated_shedding(g: Graph, order: tuple[int, ...]) -> SheddingCertificate | None:
    """``GraphFacts(g).shedding`` by the relabel-then-translate route:
    extract a certificate of the stripped graph, relabelled 1..k, from
    ``order`` restricted to it, then map every field back to g's labels.
    It runs the package's own extraction; what it cross-validates is the
    label bookkeeping around it."""
    kept = [v for v in g.vertices() if g.adj[v]]
    if not kept:
        return None
    old_to_new = {v: i for i, v in enumerate(kept, 1)}
    stripped = induced_subgraph(g, mask_of(kept))
    cert = extract_shedding_order(
        stripped, tuple(old_to_new[v] for v in order if v in old_to_new)
    )

    def back(vs):
        return tuple(kept[v - 1] for v in vs)

    return SheddingCertificate(
        order=back(cert.order),
        cohesive_order=back(cert.cohesive_order),
        remaining=tuple(sorted(back(cert.remaining))),
        steps=tuple(
            replace(
                s,
                vertices=tuple(sorted(back(s.vertices))),
                order=back(s.order),
                partition=tuple(tuple(sorted(back(b))) for b in s.partition),
                shedding_vertex=kept[s.shedding_vertex - 1],
                lower_cover=kept[s.lower_cover - 1],
            )
            for s in cert.steps
        ),
    )
