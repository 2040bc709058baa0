"""Cohesive orders, comparability posets, and maximal-clique partitions.

A labelling 1..n of the vertices is *cohesive* when

  (i)  i < j < k, {i,j} and {j,k} edges  =>  {i,k} is an edge, and
  (ii) i < j < k, {i,k} an edge          =>  {i,j} or {j,k} is an edge.

A graph admits a cohesive order exactly when it is a permutation graph
(the inversion graph of some permutation), and the inversion labelling
itself is always cohesive.  Axiom (i) says "earlier and adjacent" is a
transitive orientation of G, axiom (ii) that "earlier and non-adjacent"
is one of its complement, and by Pnueli-Lempel-Even any two such
orientations combine into a linear order.  Recognition is therefore
polynomial: it walks Gallai's modular decomposition, orients each prime
quotient and its complement by Gamma-forcing from one edge, and returns
the lexicographically first cohesive order, so the witness does not
depend on how it was found.

Under a cohesive order, "earlier and adjacent" is a partial order whose
maximal chains are precisely the maximal cliques of the graph.  The
Cohen-Macaulay classifier needs the partitions of the vertex set into r
disjoint maximal cliques; those are enumerated by an exact-cover search
with deterministic fewest-candidates column selection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graphs import Graph, mask_of, vbit, vertices_of


@dataclass(frozen=True)
class CohesiveOrder:
    """``order[k]`` is the vertex placed at position k+1."""

    order: tuple[int, ...]


def _as_order(order: CohesiveOrder | Sequence[int]) -> tuple[int, ...]:
    if isinstance(order, CohesiveOrder):
        return order.order
    return tuple(order)


def verify_cohesive_order(g: Graph, order: CohesiveOrder | Sequence[int]) -> bool:
    """Check both cohesive axioms under the given labelling.

    Each vertex j is taken as the middle of the triples i < j < k, with
    the earlier and later vertices held as bitmasks, so the check costs
    O(n^2) mask operations.
    """
    seq = _as_order(order)
    if sorted(seq) != list(range(1, g.n + 1)):
        raise ValueError("order must be a permutation of the vertices")
    adj = g.adj
    earlier, later = 0, g.full_mask
    for j in seq:
        later &= ~vbit(j)
        nj = adj[j]
        later_nbrs = later & nj
        for i in vertices_of(earlier):
            ni = adj[i]
            if ni & vbit(j):
                if later_nbrs & ~ni:      # (i): i-j, j-k but not i-k
                    return False
            elif ni & later & ~nj:        # (ii): i-k but neither i-j nor j-k
                return False
        earlier |= vbit(j)
    return True


def _components(adj: Sequence[int], s: int) -> list[int]:
    """Vertex masks of the connected components of the graph induced on s."""
    out = []
    while s:
        comp = frontier = s & -s
        while frontier:
            reach = 0
            for v in vertices_of(frontier):
                reach |= adj[v]
            frontier = reach & s & ~comp
            comp |= frontier
        out.append(comp)
        s &= ~comp
    return out


def _module_closure(adj: Sequence[int], s: int, m: int) -> int:
    """Smallest module of the graph induced on s that contains m."""
    while True:
        grow = 0
        for z in vertices_of(s & ~m):
            seen = adj[z] & m
            if seen and seen != m:
                grow |= vbit(z)
        if not grow:
            return m
        m |= grow


def _prime_children(adj: Sequence[int], s: int) -> list[int]:
    """Maximal strong modules of a node whose graph and complement are
    both connected on s.

    With v the lowest vertex of s, refining s - v by neighbourhoods until
    no vertex outside a part splits it yields the maximal modules that
    avoid v.  Each of them is a child of the node, except those lying in
    v's own child: exactly the parts X whose module closure with v is
    still a proper subset of s.
    """
    v = (s & -s).bit_length()
    rest = s & ~vbit(v)
    parts = [p for p in (rest & adj[v], rest & ~adj[v]) if p]
    changed = True
    while changed:
        changed = False
        for w in vertices_of(s):
            nw, bw = adj[w], vbit(w)
            for k in range(len(parts)):
                y = parts[k]
                inside = y & nw
                if not y & bw and inside and inside != y:
                    parts[k] = inside
                    parts.append(y ^ inside)
                    changed = True
    own = vbit(v)
    children = []
    for x in parts:
        if x & own:
            continue
        closure = _module_closure(adj, s, own | x)
        if closure == s:
            children.append(x)
        else:
            own = closure
    return [own] + children


def _orient(adj: Sequence[int]) -> list[int] | None:
    """Transitive orientation of a prime graph, as out-neighbour masks.

    Gamma-forcing from one edge: a->b forces a->c for every neighbour c
    of a that is not adjacent to b, and c->b for every neighbour c of b
    that is not adjacent to a.  A prime graph has one implication class,
    so the forcing must reach every edge without being forced both ways;
    otherwise the graph is not a comparability graph and None is returned.
    """
    a = next(v for v, nbrs in enumerate(adj) if nbrs)
    b = (adj[a] & -adj[a]).bit_length()
    out = [0] * len(adj)
    out[a] = vbit(b)
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        bx, by = vbit(x), vbit(y)
        for z in vertices_of(adj[x] & ~adj[y] & ~by):
            bz = vbit(z)
            if out[z] & bx:
                return None
            if not out[x] & bz:
                out[x] |= bz
                stack.append((x, z))
        for z in vertices_of(adj[y] & ~adj[x] & ~bx):
            if out[y] & vbit(z):
                return None
            if not out[z] & by:
                out[z] |= by
                stack.append((z, y))
    if 2 * sum(m.bit_count() for m in out) != sum(m.bit_count() for m in adj):
        return None
    return out


def _reverse(out: list[int]) -> list[int]:
    rev = [0] * len(out)
    for x, succ in enumerate(out):
        for y in vertices_of(succ):
            rev[y] |= vbit(x)
    return rev


def _prime_order(adj: Sequence[int], coadj: Sequence[int],
                 reps: list[int]) -> list[int] | None:
    """Lex-first arrangement of a prime node's children, given one
    representative vertex per child.

    The quotient has exactly four cohesive orders, the unions of either
    transitive orientation of it with either one of its complement.
    Returns 1-based child indices in order, or None when one of the two
    orientations does not exist.
    """
    rep_bits = list(enumerate(map(vbit, reps), 1))
    q = [0] + [mask_of(i for i, r in rep_bits if adj[u] & r) for u in reps]
    coq = [0] + [mask_of(i for i, r in rep_bits if coadj[u] & r) for u in reps]
    t1, t2 = _orient(q), _orient(coq)
    if t1 is None or t2 is None:
        return None
    orders = []
    for o1 in (t1, _reverse(t1)):
        for o2 in (t2, _reverse(t2)):
            # in a linear order, the more successors the earlier
            later = [(o1[i] | o2[i]).bit_count() for i in range(len(q))]
            orders.append(sorted(range(1, len(q)), key=later.__getitem__, reverse=True))
    return min(orders, key=lambda order: [reps[i - 1] for i in order])


def _lex_first(adj: Sequence[int], coadj: Sequence[int], s: int) -> list[int] | None:
    """Lexicographically first cohesive order of the graph induced on the
    strong module s, or None if it has none."""
    if not s & (s - 1):
        return [s.bit_length()]
    children = _components(adj, s)
    if len(children) == 1:
        children = _components(coadj, s)
    prime = len(children) == 1
    if prime:
        children = _prime_children(adj, s)
    seqs = []
    for child in children:
        seq = _lex_first(adj, coadj, child)
        if seq is None:
            return None
        seqs.append(seq)
    if prime:
        order = _prime_order(adj, coadj, [seq[0] for seq in seqs])
        if order is None:
            return None
        seqs = [seqs[i - 1] for i in order]
    else:
        seqs.sort()
    return [v for seq in seqs for v in seq]


def find_cohesive_order(g: Graph) -> CohesiveOrder | None:
    """The lexicographically first cohesive order; None means g is not a
    permutation graph.

    Every cohesive order keeps each strong module of g contiguous and
    orders it cohesively, so the lex-first order is assembled bottom-up
    over the modular decomposition: each child contributes its own
    lex-first sequence; a parallel or series node may order its children
    freely, so it sorts them by first vertex; a prime node has exactly
    four admissible orders and takes the smallest.  The result is
    re-checked against both axioms before it is returned, so a union of
    orientations that fails to be linear also yields None.
    """
    if g.n == 0:
        return CohesiveOrder(())
    full = g.full_mask
    coadj = [0] + [full & ~g.adj[v] & ~vbit(v) for v in range(1, g.n + 1)]
    seq = _lex_first(g.adj, coadj, full)
    if seq is None or not verify_cohesive_order(g, seq):
        return None
    return CohesiveOrder(tuple(seq))


@dataclass(frozen=True)
class Poset:
    """Strict order on 1..n given by up-set and down-set bitmasks."""

    n: int
    up: tuple[int, ...]      # up[v] = mask of elements strictly above v
    down: tuple[int, ...]
    covers_up: tuple[int, ...]  # covers_up[v] = mask of w with v covered by w

    def less(self, u: int, v: int) -> bool:
        return bool(self.up[u] & vbit(v))

    def covers(self, u: int, v: int) -> bool:
        """True when v covers u (u below v with nothing in between)."""
        return bool(self.covers_up[u] & vbit(v))

    def minimal_elements(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if not self.down[v])


def comparability_poset(g: Graph, order: CohesiveOrder | Sequence[int]) -> Poset:
    """Order v below w when v precedes w in the cohesive order and they
    are adjacent.  Axiom (i) is exactly transitivity of this relation."""
    seq = _as_order(order)
    if not verify_cohesive_order(g, seq):
        raise ValueError("order is not cohesive for this graph")
    n = g.n
    up = [0] * (n + 1)
    down = [0] * (n + 1)
    later = 0
    for v in reversed(seq):
        up[v] = g.adj[v] & later
        later |= vbit(v)
    earlier = 0
    for v in seq:
        down[v] = g.adj[v] & earlier
        earlier |= vbit(v)
    covers = [0] * (n + 1)
    for v in range(1, n + 1):
        for w in vertices_of(up[v]):
            if not up[v] & down[w]:
                covers[v] |= vbit(w)
    return Poset(n, tuple(up), tuple(down), tuple(covers))


def maximal_chains(p: Poset) -> tuple[tuple[int, ...], ...]:
    """All maximal chains, each listed bottom to top."""
    out: list[tuple[int, ...]] = []

    def walk(chain: list[int], v: int) -> None:
        chain.append(v)
        if not p.up[v]:
            out.append(tuple(chain))
        else:
            for w in vertices_of(p.covers_up[v]):
                walk(chain, w)
        chain.pop()

    for v in p.minimal_elements():
        walk([], v)
    return tuple(sorted(out))


def maximal_cliques(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All inclusion-maximal cliques (Bron-Kerbosch with pivoting)."""
    if g.n == 0:
        return ()
    found: list[int] = []
    adj = g.adj

    def bk(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            return
        # pivot with most neighbours inside P, smallest label on ties
        best_u, best = 0, -1
        cand = p | x
        while cand:
            low = cand & -cand
            u = low.bit_length()
            cnt = (p & adj[u]).bit_count()
            if cnt > best:
                best_u, best = u, cnt
            cand ^= low
        ext = p & ~adj[best_u]
        while ext:
            low = ext & -ext
            v = low.bit_length()
            bk(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
            ext ^= low

    bk(0, g.full_mask, 0)
    return tuple(sorted(vertices_of(m) for m in found))


@dataclass(frozen=True)
class ChainPartition:
    """A partition of the vertex set into disjoint maximal cliques.

    When built against a poset, each block also records its top element
    (the poset-maximum of the chain) and the unique element the top
    covers inside the block (None for singleton blocks).
    """

    blocks: tuple[tuple[int, ...], ...]
    tops: tuple[int, ...] | None = None
    lower_covers: tuple[int | None, ...] | None = None


def _annotate(blocks: tuple[tuple[int, ...], ...], poset: Poset) -> ChainPartition:
    tops: list[int] = []
    lowers: list[int | None] = []
    for block in blocks:
        bmask = sum(vbit(v) for v in block)
        top = [v for v in block if not poset.up[v] & bmask]
        if len(top) != 1:
            raise ValueError(f"block {block} is not a chain of the poset")
        j = top[0]
        rest = bmask & ~vbit(j)
        if rest:
            second = [v for v in vertices_of(rest) if not poset.up[v] & rest]
            i = second[0]
            if not poset.covers(i, j):
                raise ValueError(f"{i} is not a lower cover of {j} in block {block}")
            lowers.append(i)
        else:
            lowers.append(None)
        tops.append(j)
    return ChainPartition(blocks, tuple(tops), tuple(lowers))


def maximal_clique_partitions(
    g: Graph,
    r: int,
    limit: int | None = 2,
    poset: Poset | None = None,
) -> tuple[ChainPartition, ...]:
    """Partitions of V(g) into exactly r pairwise disjoint maximal cliques.

    Exact cover over the maximal-clique list: repeatedly pick the
    uncovered vertex with the fewest usable cliques and branch on them in
    canonical order, so the enumeration order is deterministic.  At most
    ``limit`` partitions are produced (None enumerates all); the default
    of 2 is what uniqueness testing needs.
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    cliques = [sum(vbit(v) for v in c) for c in maximal_cliques(g)]
    results: list[tuple[tuple[int, ...], ...]] = []

    def search(uncovered: int, chosen: list[int]) -> bool:
        # returns True when the limit has been hit
        if not uncovered:
            if len(chosen) == r:
                blocks = tuple(sorted(vertices_of(m) for m in chosen))
                results.append(blocks)
                return limit is not None and len(results) >= limit
            return False
        if len(chosen) >= r:
            return False
        col, candidates = 0, None
        probe = uncovered
        while probe:
            low = probe & -probe
            cand = [c for c in cliques if c & low and not c & ~uncovered]
            if candidates is None or len(cand) < len(candidates):
                col, candidates = low, cand
                if not cand:
                    break
            probe ^= low
        for c in candidates or ():
            chosen.append(c)
            if search(uncovered & ~c, chosen):
                return True
            chosen.pop()
        return False

    search(g.full_mask, [])
    blocks_list = sorted(set(results))
    if poset is not None:
        return tuple(_annotate(b, poset) for b in blocks_list)
    return tuple(ChainPartition(b) for b in blocks_list)
