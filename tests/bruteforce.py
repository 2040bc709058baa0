"""Independent brute-force oracles used only by the tests.

Everything here enumerates subsets directly and never calls the package
search routines it is checking, so a test comparing the two routes is a
genuine cross-validation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from permcm import Graph, graph_from_edges
from permcm.graphs import vbit


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
        for r in range(1, g.n + 1)
        for s in combinations(verts, r)
        if all(g.has_edge(u, v) for u, v in combinations(s, 2))
    }
    if g.n == 0:
        return set()
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


def hilbert_function_from_f(f: tuple[int, ...], m: int) -> int:
    """Direct count of degree-m monomials supported on faces."""
    from math import comb

    if m == 0:
        return 1
    return sum(f[k + 1] * comb(m - 1, k) for k in range(len(f) - 1))


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


def brute_power_gens(gens: tuple[int, ...], n: int, k: int) -> list[tuple[int, ...]]:
    """Minimal generators of the k-th power of the squarefree ideal with
    these generator masks, as sorted exponent tuples: every product of k
    generators, then a divisibility filter."""
    from itertools import combinations_with_replacement

    products = {
        tuple(sum(g >> i & 1 for g in pick) for i in range(n))
        for pick in combinations_with_replacement(gens, k)
    }
    return sorted(
        e for e in products
        if not any(f != e and all(a <= b for a, b in zip(f, e)) for f in products)
    )
