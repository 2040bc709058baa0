"""Simple graphs on vertex set {1, ..., n} with bitset adjacency.

Vertices are 1-indexed throughout the package.  Vertex v corresponds to
bit v-1, so a set of vertices is a plain Python int and set algebra is
bit arithmetic.  Python ints are arbitrary precision, which makes the
bitset path work for every n; the desk-scale oracles elsewhere cap n
far below 64 anyway.

Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


def vbit(v: int) -> int:
    """Bit for vertex v (1-indexed)."""
    return 1 << (v - 1)


def vertices_of(mask: int) -> tuple[int, ...]:
    """Vertices of a bitmask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length())
        mask ^= low
    return tuple(out)


def mask_of(vs: Iterable[int]) -> int:
    m = 0
    for v in vs:
        m |= 1 << (v - 1)
    return m


def _is_int(x) -> bool:
    """A plain integer; bool is a subclass of int but not accepted here."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        seen = [False] * (n + 1)
        for k in self.values:
            if not _is_int(k) or k < 1 or k > n or seen[k]:
                raise ValueError(f"not a permutation of 1..{n}: {self.values}")
            seen[k] = True

    @property
    def n(self) -> int:
        return len(self.values)

    def reversed(self) -> "Permutation":
        return Permutation(tuple(reversed(self.values)))


@dataclass(frozen=True)
class Graph:
    """Finite simple graph; ``adj[v]`` is the neighbour bitmask of v.

    ``Graph(n, adj)`` checks the table; the graphs the package builds
    itself (``_built``) skip that check."""

    n: int
    adj: tuple[int, ...]  # length n+1, index 0 unused

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 0:
            raise ValueError(f"vertex count {self.n!r} is not a nonnegative integer")
        adj = self.adj
        if not isinstance(adj, tuple) or len(adj) != self.n + 1:
            raise ValueError("adjacency table is not a tuple of length n + 1")
        if not all(map(_is_int, adj)):
            raise ValueError(f"adjacency table {adj!r} holds a non-integer mask")
        if adj[0]:
            raise ValueError("adjacency entry 0 is unused and must be 0")
        full = self.full_mask
        for v in range(1, self.n + 1):
            nbrs = adj[v]
            bit = 1 << (v - 1)
            if nbrs & ~full:
                raise ValueError(f"neighbour of {v} out of range")
            if nbrs & bit:
                raise ValueError(f"loop at vertex {v}")
            while nbrs:  # walked bit by bit: no tuple of neighbours
                low = nbrs & -nbrs
                u = low.bit_length()
                if not adj[u] & bit:
                    raise ValueError(f"adjacency not symmetric at {{{u},{v}}}")
                nbrs ^= low

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & vbit(v))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(1, self.n + 1):
            higher = self.adj[v] >> v  # neighbours u > v
            while higher:
                low = higher & -higher
                out.append((v, v + low.bit_length()))
                higher ^= low
        return tuple(sorted(out))

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(1, self.n + 1)) // 2

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if not self.adj[v])


def _built(n: int, adj: tuple[int, ...]) -> Graph:
    """A graph the package built itself, whose adjacency is a valid
    table by construction, so ``Graph.__post_init__`` does not check it
    again."""
    g = object.__new__(Graph)
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    return g


def graph_from_edges(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a graph from an edge list, each edge a list or tuple of two
    vertices, rejecting loops and duplicates."""
    if not _is_int(n):
        raise ValueError(f"vertex count {n!r} is not an integer")
    adj = [0] * (n + 1)
    seen: set[tuple[int, int]] = set()
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 2):
            raise ValueError(f"edge {e!r} is not a pair")
        u, v = pair = tuple(e)
        if not (_is_int(u) and _is_int(v)):
            raise ValueError(f"non-integer edge {pair!r}")
        if u == v:
            raise ValueError(f"loop {pair!r} rejected")
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge {pair!r} out of range 1..{n}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise ValueError(f"repeated edge {pair!r}")
        seen.add(key)
        adj[u] |= vbit(v)
        adj[v] |= vbit(u)
    return Graph(n, tuple(adj))


def inversions(perm: Sequence[int]) -> list[tuple[int, int]]:
    """The pairs u < v with v before u in the one-line notation, sorted:
    the edges of the inversion graph."""
    return sorted((b, a) for i, a in enumerate(perm) for b in perm[i + 1:] if b < a)


def graph_from_permutation(perm: Permutation | Iterable[int]) -> Graph:
    """Inversion graph of a permutation.

    Vertices i < j are adjacent exactly when j appears before i in the
    one-line notation.
    """
    if not isinstance(perm, Permutation):
        perm = Permutation(tuple(perm))
    adj = [0] * (perm.n + 1)
    seen = 0  # the values read so far
    for v in perm.values:
        bit = 1 << (v - 1)
        # the larger values read before v and the smaller ones not read yet
        adj[v] = seen ^ (bit - 1)
        seen |= bit
    return _built(perm.n, tuple(adj))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    adj = [0] + [full & ~g.adj[v] & ~vbit(v) for v in range(1, g.n + 1)]
    return _built(g.n, tuple(adj))


def induced_subgraph(g: Graph, keep: int) -> Graph:
    """Subgraph induced on the vertex mask ``keep``, relabelled 1..k in
    increasing order: kept vertex v becomes the number of kept vertices
    up to v."""
    if keep & ~g.full_mask:
        raise ValueError(f"vertex mask {keep:#x} has bits outside 1..{g.n}")
    kept = vertices_of(keep)
    new_bit = [0] * (g.n + 1)
    for i, v in enumerate(kept):
        new_bit[v] = 1 << i
    adj = [0] * (len(kept) + 1)
    for i, v in enumerate(kept, 1):
        for u in vertices_of(g.adj[v] & keep):
            adj[i] |= new_bit[u]
    return _built(len(kept), tuple(adj))


def _component(adj: Sequence[int], s: int) -> int:
    """Vertex mask of the connected component of the lowest vertex of s
    in the graph induced on s; 0 when s is empty."""
    comp = frontier = s & -s
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj[low.bit_length()]
        frontier = reach & s & ~comp
        comp |= frontier
    return comp


def _components(adj: Sequence[int], s: int) -> list[int]:
    """Vertex masks of the connected components of the graph induced on s."""
    out = []
    while s:
        comp = _component(adj, s)
        out.append(comp)
        s &= ~comp
    return out


def _is_path(g: Graph) -> bool:
    # P_1 is a single vertex; otherwise two endpoints of degree 1,
    # interior of degree 2, connected.
    if g.n <= 1:
        return g.n == 1
    degs = sorted(g.degree(v) for v in range(1, g.n + 1))
    return degs == [1, 1] + [2] * (g.n - 2) and len(_components(g.adj, g.full_mask)) == 1


def is_chordal(g: Graph) -> bool:
    """Chordality via maximum cardinality search.

    The reverse of an MCS visit order is a perfect elimination order
    exactly when the graph is chordal, so it suffices to check that each
    vertex's earlier-visited neighbours form a clique.
    """
    n = g.n
    if n <= 2:
        return True
    visited = 0
    order: list[int] = []
    weight = [0] * (n + 1)
    for _ in range(n):
        best, best_w = 0, -1
        for v in range(1, n + 1):
            if visited & vbit(v):
                continue
            if weight[v] > best_w:
                best, best_w = v, weight[v]
        order.append(best)
        visited |= vbit(best)
        for u in vertices_of(g.adj[best] & ~visited):
            weight[u] += 1
    placed = 0
    for v in order:
        earlier = g.adj[v] & placed
        for u in vertices_of(earlier):
            if earlier & ~g.adj[u] & ~vbit(u):
                return False
        placed |= vbit(v)
    return True


@dataclass(frozen=True)
class StructureFlags:
    is_complete: bool
    is_path_complement: bool
    is_chordal: bool


def recognize_structure(g: Graph) -> StructureFlags:
    """Exact membership flags for the special graph families used here."""
    full = g.full_mask
    return StructureFlags(
        is_complete=all(g.adj[v] == full & ~vbit(v) for v in range(1, g.n + 1)),
        is_path_complement=_is_path(complement(g)),
        is_chordal=is_chordal(g),
    )


# -- convenience builders -------------------------------------------------

def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return graph_from_edges(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def disjoint_edges(r: int) -> Graph:
    """r pairwise disjoint edges {1,2}, {3,4}, ..."""
    return graph_from_edges(2 * r, [(2 * i - 1, 2 * i) for i in range(1, r + 1)])


# -- JSON wire format ------------------------------------------------------

def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def graph_from_json(data: dict | str) -> Graph:
    """Parse ``{"n": 5, "edges": [[1,2], ...]}``; 1-indexed, loops and
    repeated pairs rejected."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, Mapping):
        raise ValueError("graph JSON must be an object")
    if "n" not in data or "edges" not in data:
        raise ValueError('graph JSON needs "n" and "edges"')
    n = data["n"]
    if not _is_int(n) or n < 0:
        raise ValueError('"n" must be a nonnegative integer')
    edges = data["edges"]
    if not isinstance(edges, list):
        raise ValueError('"edges" must be a list of pairs')
    return graph_from_edges(n, edges)
