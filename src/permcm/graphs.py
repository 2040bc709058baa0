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
from typing import Iterable, Mapping


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


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line notation."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.values)
        seen = [False] * (n + 1)
        for k in self.values:
            if not isinstance(k, int) or k < 1 or k > n or seen[k]:
                raise ValueError(f"not a permutation of 1..{n}: {self.values}")
            seen[k] = True

    @property
    def n(self) -> int:
        return len(self.values)

    def reversed(self) -> "Permutation":
        return Permutation(tuple(reversed(self.values)))


@dataclass(frozen=True)
class Graph:
    """Finite simple graph; ``adj[v]`` is the neighbour bitmask of v."""

    n: int
    adj: tuple[int, ...]  # length n+1, index 0 unused

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        if len(self.adj) != self.n + 1:
            raise ValueError("adjacency table has wrong length")
        full = self.full_mask
        for v in range(1, self.n + 1):
            nbrs = self.adj[v]
            if nbrs & ~full:
                raise ValueError(f"neighbour of {v} out of range")
            if nbrs & vbit(v):
                raise ValueError(f"loop at vertex {v}")
            for u in vertices_of(nbrs):
                if not self.adj[u] & vbit(v):
                    raise ValueError(f"adjacency not symmetric at {{{u},{v}}}")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] & vbit(v))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return vertices_of(self.adj[v])

    def closed_neighborhood_mask(self, v: int) -> int:
        return self.adj[v] | vbit(v)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for v in range(1, self.n + 1):
            higher = self.adj[v] >> v  # neighbours u > v
            u = v
            while higher:
                low = higher & -higher
                out.append((v, v + low.bit_length()))
                higher ^= low
        return tuple(sorted(out))

    def edge_count(self) -> int:
        return sum(self.adj[v].bit_count() for v in range(1, self.n + 1)) // 2

    def isolated_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(1, self.n + 1) if not self.adj[v])


def _is_int(x) -> bool:
    """A plain integer; bool is a subclass of int but not accepted here."""
    return isinstance(x, int) and not isinstance(x, bool)


def graph_from_edges(n: int, edges: Iterable[Iterable[int]]) -> Graph:
    """Build a graph from an edge list, rejecting loops and duplicates."""
    if not _is_int(n):
        raise ValueError(f"vertex count {n!r} is not an integer")
    adj = [0] * (n + 1)
    seen: set[tuple[int, int]] = set()
    for e in edges:
        pair = tuple(e)
        if len(pair) != 2:
            raise ValueError(f"edge {pair!r} is not a pair")
        u, v = pair
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


def graph_from_permutation(perm: Permutation | Iterable[int]) -> Graph:
    """Inversion graph of a permutation.

    Vertices i < j are adjacent exactly when j appears before i in the
    one-line notation.
    """
    if not isinstance(perm, Permutation):
        perm = Permutation(tuple(perm))
    n = perm.n
    pos = [0] * (n + 1)
    for idx, k in enumerate(perm.values):
        pos[k] = idx
    adj = [0] * (n + 1)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if pos[j] < pos[i]:
                adj[i] |= vbit(j)
                adj[j] |= vbit(i)
    return Graph(n, tuple(adj))


def complement(g: Graph) -> Graph:
    full = g.full_mask
    adj = [0] + [full & ~g.adj[v] & ~vbit(v) for v in range(1, g.n + 1)]
    return Graph(g.n, tuple(adj))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on ``keep``, relabelled 1..|keep|.

    Returns the new graph and the old-to-new vertex map, so certificates
    computed downstream can be pulled back to the original labels.
    """
    kept = sorted(set(keep))
    for v in kept:
        if not (1 <= v <= g.n):
            raise ValueError(f"vertex {v} out of range 1..{g.n}")
    old_to_new = {v: i + 1 for i, v in enumerate(kept)}
    adj = [0] * (len(kept) + 1)
    for v in kept:
        nv = old_to_new[v]
        for u in vertices_of(g.adj[v]):
            if u in old_to_new:
                adj[nv] |= vbit(old_to_new[u])
    return Graph(len(kept), tuple(adj)), old_to_new


def delete_vertex(g: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    if not (1 <= v <= g.n):
        raise ValueError(f"vertex {v} out of range 1..{g.n}")
    return induced_subgraph(g, (u for u in range(1, g.n + 1) if u != v))


def delete_closed_neighborhood(g: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    if not (1 <= v <= g.n):
        raise ValueError(f"vertex {v} out of range 1..{g.n}")
    drop = g.closed_neighborhood_mask(v)
    return induced_subgraph(g, vertices_of(g.full_mask & ~drop))


def is_connected(g: Graph) -> bool:
    if g.n <= 1:
        return True
    seen = vbit(1)
    frontier = vbit(1)
    while frontier:
        nxt = 0
        for v in vertices_of(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == g.full_mask


def _is_path(g: Graph) -> bool:
    # P_1 is a single vertex; otherwise two endpoints of degree 1,
    # interior of degree 2, connected.
    if g.n == 0:
        return False
    if g.n == 1:
        return True
    degs = sorted(g.degree(v) for v in range(1, g.n + 1))
    if g.n == 2:
        return degs == [1, 1]
    if degs[:2] != [1, 1] or degs[2:] != [2] * (g.n - 2):
        return False
    return is_connected(g)


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
    is_path: bool
    is_path_complement: bool
    is_disjoint_union_of_edges: bool
    is_chordal: bool
    isolated_vertices: tuple[int, ...]


def recognize_structure(g: Graph) -> StructureFlags:
    """Exact membership flags for the special graph families used here."""
    full = g.full_mask
    comp = complement(g)
    return StructureFlags(
        is_complete=all(g.adj[v] == full & ~vbit(v) for v in range(1, g.n + 1)),
        is_path=_is_path(g),
        is_path_complement=_is_path(comp),
        is_disjoint_union_of_edges=all(g.degree(v) == 1 for v in range(1, g.n + 1)),
        is_chordal=is_chordal(g),
        isolated_vertices=g.isolated_vertices(),
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
