"""Simplicial complexes and the exact algebraic oracles built on them.

This module is the independent ground truth the theorem-driven
classifiers are checked against.  Everything runs over the rationals
with exact integer arithmetic:

* reduced simplicial homology ranks, via boundary matrices and their
  rank by sparse elimination (pivots on +-1 entries, fraction-free
  steps otherwise);
* Reisner's criterion for Cohen-Macaulayness of a Stanley-Reisner ring:
  every link, the empty face included, has vanishing reduced homology
  below its own dimension;
* graded Betti numbers of the quotient by the Stanley-Reisner ideal via
  Hochster's formula, summing homology of induced subcomplexes over the
  vertex subsets, with regularity / projective dimension / depth / type
  read off the table.  A cone has no reduced homology, so for a flag
  complex the subsets whose induced complex has a vertex sharing an edge
  with all the others are skipped, by a table of neighbourhood meets;
* f-vectors, h-vectors, the Hilbert function and polynomial, both read
  from one integer formula for the coefficients of h(t)/(1-t)^d, and the
  a-invariant (degree of the Hilbert series numerator minus the Krull
  dimension);
* vertex decomposability (witness tree of shedding vertices) and a
  size-capped brute-force shelling test, whose ordering search is the
  one the linear-quotients searches of ``ideals`` also use.

Conventions: the void complex (no faces at all) and the complex {{}}
whose only face is the empty set are distinct values; the latter has
dimension -1 and reduced homology of rank 1 in dimension -1.  A complex
also carries its ambient vertex set, which may be larger than the union
of its facets; ambient-only vertices do not change homology but do
matter for Betti tables and depth.

Homology is computed by canonical form (the facet list after an
order-preserving relabelling of the used vertices) and memoised
globally, which is what makes the exhaustive sweeps cheap: independence
complexes of induced subgraphs repeat massively across a sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, count
from math import comb, factorial, gcd
from typing import Callable, Iterable, Sequence, TypeVar

from .caps import check_cap
from .graphs import Graph, mask_of, vertices_of
from .invariants import maximal_independent_sets

_T = TypeVar("_T")


def _maximalize(masks: Iterable[int]) -> tuple[int, ...]:
    """Antichain of inclusion-maximal masks."""
    pool = sorted(set(masks), key=lambda m: (-m.bit_count(), m))
    keep: list[int] = []
    for m in pool:
        if not any(m & k == m for k in keep):
            keep.append(m)
    return tuple(sorted(keep))


def _faces(facets: Iterable[int]) -> set[int]:
    """Every submask of every facet: all faces, the empty one included."""
    out: set[int] = set()
    for fac in facets:
        sub = fac
        while True:
            out.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & fac
    return out


@dataclass(frozen=True)
class SimplicialComplex:
    """Facet representation; masks use bit v-1 for vertex v."""

    vertices: int            # ambient vertex set as a bitmask
    facets: tuple[int, ...]  # antichain, sorted ascending as integers

    @staticmethod
    def from_faces(vertices: Iterable[int] | int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        vmask = vertices if isinstance(vertices, int) else mask_of(vertices)
        fmasks = [mask_of(f) for f in faces]
        for m in fmasks:
            if m & ~vmask:
                raise ValueError("face outside the ambient vertex set")
        return SimplicialComplex(vmask, _maximalize(fmasks))

    @property
    def is_void(self) -> bool:
        return not self.facets

    @property
    def dim(self) -> int | None:
        if not self.facets:
            return None
        return max(m.bit_count() for m in self.facets) - 1

    def facet_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(vertices_of(m) for m in self.facets))

    def has_face(self, face: Iterable[int] | int) -> bool:
        f = face if isinstance(face, int) else mask_of(face)
        return any(f & m == f for m in self.facets)

    def faces(self) -> set[int]:
        """All faces as masks (the empty face included, unless void)."""
        return _faces(self.facets)

    def link(self, face: Iterable[int] | int) -> "SimplicialComplex":
        f = face if isinstance(face, int) else mask_of(face)
        if not self.has_face(f):
            raise ValueError("link of a non-face")
        lk = tuple(sorted(m & ~f for m in self.facets if m & f == f))
        return SimplicialComplex(self.vertices & ~f, lk)

    def deletion(self, face: Iterable[int] | int) -> "SimplicialComplex":
        """The faces not containing ``face``: a facet containing it is
        replaced by its subsets missing one vertex of it.  Only a vertex
        leaves the ambient set; the empty face gives the void complex."""
        f = face if isinstance(face, int) else mask_of(face)
        if not self.has_face(f):
            raise ValueError("deletion of a non-face")
        drop = [1 << (v - 1) for v in vertices_of(f)]
        kept = [m for m in self.facets if m & f != f]
        kept += [m & ~b for m in self.facets if m & f == f for b in drop]
        ambient = self.vertices & ~f if len(drop) == 1 else self.vertices
        return SimplicialComplex(ambient, _maximalize(kept))

    @property
    def is_simplex(self) -> bool:
        return len(self.facets) <= 1


def complex_to_json(c: SimplicialComplex) -> dict:
    return {
        "vertices": list(vertices_of(c.vertices)),
        "facets": [list(f) for f in c.facet_sets()],
    }


def complex_from_json(data: dict) -> SimplicialComplex:
    if "vertices" not in data or "facets" not in data:
        raise ValueError('complex JSON needs "vertices" and "facets"')
    return SimplicialComplex.from_faces(data["vertices"], data["facets"])


def independence_complex(
    g: Graph, mis: tuple[tuple[int, ...], ...] | None = None
) -> SimplicialComplex:
    """Faces are the independent sets; facets the maximal ones.  ``mis``,
    when given, must be ``maximal_independent_sets(g)``."""
    if mis is None:
        mis = maximal_independent_sets(g)
    facets = tuple(sorted(mask_of(s) for s in mis))
    if g.n and not facets:  # cannot happen: singletons are independent
        raise AssertionError("graph independence complex lost its vertices")
    if g.n == 0:
        facets = (0,)
    return SimplicialComplex((1 << g.n) - 1, facets)


def link_and_deletion(
    c: SimplicialComplex, face: Iterable[int] | int
) -> tuple[SimplicialComplex, SimplicialComplex]:
    return c.link(face), c.deletion(face)


# -- canonical forms and the homology cache --------------------------------

def _canonical(facets: Sequence[int]) -> tuple[int, ...]:
    """Facets after relabelling the used vertices 1..k in sorted order."""
    supp = 0
    for m in facets:
        supp |= m
    if supp == 0:
        return tuple(sorted(facets))
    remap: dict[int, int] = {}
    nb = 0
    s = supp
    while s:
        low = s & -s
        remap[low] = 1 << nb
        nb += 1
        s ^= low
    out = []
    for m in facets:
        g = 0
        x = m
        while x:
            low = x & -x
            g |= remap[low]
            x ^= low
        out.append(g)
    return tuple(sorted(out))


def exact_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals of an integer matrix, by sparse elimination.

    Each row becomes a dict of its nonzero entries.  A step takes the
    row that was shortest at the start among those left, pivots on one
    of its +-1 entries when it has one, and clears that column from
    every other row.  Boundary matrices have +-1 entries, so that is the
    usual step, and it keeps the integers.  Against a pivot c other than
    +-1 a row with entry a in that column takes the fraction-free step
    row <- c*row - a*pivot and is then divided by the gcd of its
    entries; neither changes the rank.
    """
    pending = [{j: r[j] for j in compress(count(), r)} for r in rows]
    pending = sorted((r for r in pending if r), key=len, reverse=True)
    rank = 0
    while pending:
        piv = pending.pop()
        col = next((j for j, v in piv.items() if v == 1 or v == -1), None)
        if col is None:
            col = min(piv, key=lambda j: abs(piv[j]))
        c = piv[col]
        unit = c == 1 or c == -1
        kept = []
        for row in pending:
            a = row.get(col)
            if a is not None:
                if unit:
                    a *= c
                else:
                    for j in row:
                        row[j] *= c
                for j, v in piv.items():
                    x = row.get(j, 0) - a * v
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                if not row:
                    continue
                if not unit:
                    g = gcd(*row.values())
                    for j in row:
                        row[j] //= g
            kept.append(row)
        pending = kept
        rank += 1
    return rank


_HOMOLOGY_CACHE: dict[tuple[int, ...], dict[int, int]] = {}


def _homology_of_key(key: tuple[int, ...]) -> dict[int, int]:
    cached = _HOMOLOGY_CACHE.get(key)
    if cached is not None:
        return cached
    if not key:
        _HOMOLOGY_CACHE[key] = {}
        return {}
    by_size: dict[int, list[int]] = {}
    for f in _faces(key):
        by_size.setdefault(f.bit_count(), []).append(f)
    for group in by_size.values():
        group.sort()
    max_size = max(by_size)
    index = {s: {f: i for i, f in enumerate(group)} for s, group in by_size.items()}

    # boundary_rank[s] = rank of the map from size-s chains to size-(s-1)
    boundary_rank = [0] * (max_size + 2)
    for s in range(1, max_size + 1):
        rows_faces = by_size.get(s - 1, [])
        cols_faces = by_size.get(s, [])
        if not rows_faces or not cols_faces:
            continue
        mat = [[0] * len(cols_faces) for _ in rows_faces]
        row_index = index[s - 1]
        for col, fac in enumerate(cols_faces):
            sign = 1
            x = fac
            while x:
                low = x & -x
                mat[row_index[fac ^ low]][col] = sign
                sign = -sign
                x ^= low
        boundary_rank[s] = exact_rank(mat)

    ranks: dict[int, int] = {}
    for s in range(0, max_size + 1):
        cycles = len(by_size.get(s, ())) - boundary_rank[s]
        h = cycles - boundary_rank[s + 1]
        if h:
            ranks[s - 1] = h
    _HOMOLOGY_CACHE[key] = ranks
    return ranks


def reduced_homology_ranks(c: SimplicialComplex) -> dict[int, int]:
    """Ranks of reduced homology over Q, {dimension: rank}, zeros omitted.

    The void complex has no homology at all; the complex {{}} has rank 1
    in dimension -1.
    """
    return dict(_homology_of_key(_canonical(c.facets)))


def euler_characteristic(c: SimplicialComplex) -> int:
    """Reduced Euler characteristic, alternating face-count sum."""
    chi = 0
    for f in c.faces():
        chi += -1 if f.bit_count() % 2 == 0 else 1
    return chi


# -- Reisner's criterion ----------------------------------------------------

_REISNER_CACHE: dict[tuple[int, ...], bool] = {}


def _reisner_key(key: tuple[int, ...]) -> bool:
    cached = _REISNER_CACHE.get(key)
    if cached is not None:
        return cached
    if not key:
        _REISNER_CACHE[key] = True
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
            if not _reisner_key(_canonical(link)):
                result = False
                break
    _REISNER_CACHE[key] = result
    return result


def reisner_cm_test(c: SimplicialComplex) -> bool:
    """Cohen-Macaulayness of the Stanley-Reisner ring over Q.

    Reisner: the ring is CM iff for every face F (including the empty
    face) the reduced homology of lk(F) vanishes below dim lk(F).  Links
    of faces are iterated vertex links, so the check recurses through
    vertex links with memoisation on canonical forms.
    """
    return _reisner_key(_canonical(c.facets))


# -- Hochster's formula -----------------------------------------------------

@dataclass(frozen=True)
class BettiTable:
    """Graded Betti numbers of the Stanley-Reisner quotient ring.

    ``entries[(i, j)]`` is the rank in homological degree i, internal
    degree j; the quotient convention puts a single 1 at (0, 0).
    """

    n: int
    entries: dict[tuple[int, int], int]

    @property
    def reg(self) -> int:
        return max(j - i for (i, j) in self.entries)

    @property
    def pd(self) -> int:
        return max(i for (i, _) in self.entries)

    @property
    def depth(self) -> int:
        return self.n - self.pd

    @property
    def type(self) -> int:
        pd = self.pd
        return sum(r for (i, _), r in self.entries.items() if i == pd)


def _neighbourhood_meets(key: tuple[int, ...], used: int) -> list[int] | None:
    """For a flag complex whose used vertices are the low bits ``used``
    (a canonical key), the table whose entry at each set U of them is
    the meet of their closed 1-skeleton neighbourhoods; None when the
    complex is not flag.

    In a flag complex a vertex x of U that shares an edge with every
    other vertex of U lies in every facet of the induced complex on U,
    which is then a cone: x is in ``meet[U] & U``."""
    nbhd: dict[int, int] = {}
    for m in key:
        x = m
        while x:
            low = x & -x
            nbhd[low] = nbhd.get(low, 0) | m
            x ^= low
    if not _cliques_are_facets(set(key), {b: m & ~b for b, m in nbhd.items()}, 0, used, 0):
        return None
    meet = [used] * (used + 1)
    for u in range(1, used + 1):
        meet[u] = meet[u & (u - 1)] & nbhd[u & -u]
    return meet


def _cliques_are_facets(facets: set[int], adj: dict[int, int],
                        r: int, p: int, x: int) -> bool:
    """Whether every maximal clique of the graph ``adj`` that extends the
    clique r by vertices of p, and by none of x, is a facet (Bron-Kerbosch
    with a pivot).  Called on (0, all vertices, 0) for the 1-skeleton it
    says whether the complex is flag: a face is a clique, so a maximal
    clique that is a face is a facet."""
    if not p:
        return bool(x) or r in facets
    pivot = (p | x) & -(p | x)
    cand = p & ~adj[pivot]
    while cand:
        v = cand & -cand
        cand ^= v
        if not _cliques_are_facets(facets, adj, r | v, p & adj[v], x & adj[v]):
            return False
        p ^= v
        x |= v
    return True


def hochster_betti_table(c: SimplicialComplex) -> BettiTable:
    """Betti table via Hochster: beta_{i,j} sums the reduced homology of
    the induced subcomplexes on the j-element vertex subsets W, in
    dimension j - i - 1.  The W = empty term lands at (0, 0).  When the
    complex is flag, the W whose induced complex is a cone are skipped:
    a cone has no reduced homology."""
    if c.is_void:
        raise ValueError("Betti table of the zero ring is not defined")
    n = c.vertices.bit_count()
    check_cap("hochster", n, "ambient vertex set")
    # the table only depends on the complex up to relabelling: the used
    # vertices become the low bits, the ambient-only ones the rest
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
    return BettiTable(n, entries)


# -- Hilbert data ------------------------------------------------------------

def _series_coef(m: int, d: int) -> int:
    """Coefficient of t^m in 1/(1-t)^d, C(m+d-1, d-1), as a polynomial in
    m evaluated at any integer m: (m+1)(m+2)...(m+d-1) / (d-1)!, where
    the division is exact.  For d = 0 it is 1 at m = 0 and 0 elsewhere."""
    if d == 0:
        return int(m == 0)
    num = 1
    for i in range(1, d):
        num *= m + i
    return num // factorial(d - 1)


@dataclass(frozen=True)
class HilbertData:
    """Hilbert-series data of a Stanley-Reisner ring.

    ``f`` starts at f_{-1} = 1; ``h`` has length d+1 where d is the Krull
    dimension (trailing zeros are kept, the a-invariant strips them);
    ``hf`` is the Hilbert function on the window [0, n].
    """

    f: tuple[int, ...]
    h: tuple[int, ...]
    d: int
    hf: tuple[int, ...]
    a: int

    def hp_value(self, t: int) -> int:
        """Hilbert polynomial at t, sum_j h_j C(t-j+d-1, d-1) with every
        binomial taken as a polynomial in t (Bruns-Herzog 4.1); 0 when
        d = 0."""
        if self.d == 0:
            return 0
        return sum(hj * _series_coef(t - j, self.d) for j, hj in enumerate(self.h))

    @property
    def hilbertian(self) -> bool:
        """Hilbert function equals Hilbert polynomial on the whole window."""
        return all(self.hf[t] == self.hp_value(t) for t in range(len(self.hf)))


def hilbert_data(c: SimplicialComplex) -> HilbertData:
    """f-vector by face enumeration, h by binomial transform, Hilbert
    function from the series h(t)/(1-t)^d on [0, n], a-invariant =
    deg h - d."""
    if c.is_void:
        raise ValueError("Hilbert data of the zero ring is not defined")
    dim = c.dim
    assert dim is not None
    d = dim + 1
    counts = [0] * (d + 1)
    for face in c.faces():
        counts[face.bit_count()] += 1
    f = tuple(counts)  # f[s] = number of faces with s vertices, f[0] = 1

    h = []
    for j in range(d + 1):
        acc = 0
        for i in range(j + 1):
            acc += (-1) ** (j - i) * comb(d - i, j - i) * f[i]
        h.append(acc)
    h_t = tuple(h)

    hf = tuple(
        sum(h_t[j] * _series_coef(m - j, d) for j in range(min(m, d) + 1))
        for m in range(c.vertices.bit_count() + 1)
    )
    deg_h = max((j for j, hj in enumerate(h_t) if hj), default=0)
    return HilbertData(f=f, h=h_t, d=d, hf=hf, a=deg_h - d)


# -- vertex decomposability ---------------------------------------------------

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
    cached = _VD_CACHE.get(key)
    if cached is not None:
        return cached
    result = len(key) <= 1 or _shedding_split(key) is not None
    _VD_CACHE[key] = result
    return result


def is_vertex_decomposable(c: SimplicialComplex) -> bool:
    """Boolean fast path used by the exhaustive sweeps."""
    return _vd_key(_canonical(c.facets))


def vertex_decomposable_test(c: SimplicialComplex) -> dict | None:
    """Witness tree of shedding vertices, or None.

    A simplex is the base case.  Otherwise some vertex x must satisfy:
    deletion and link at x both vertex decomposable, and every facet of
    the deletion is a facet of the whole complex.  The memoised boolean
    guides the reconstruction, so the tree is cheap and is reported in
    the original vertex labels.
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


# -- ordering searches -----------------------------------------------------------

def _first_ordering(
    items: Sequence[_T], step_ok: Callable[[list[_T], _T], bool]
) -> list[_T] | None:
    """The first arrangement of the distinct ``items``, in depth-first
    order, in which each item passes ``step_ok(placed, new)`` against the
    items before it; None when there is none.

    ``step_ok`` must read ``placed`` only as a set.  Then whether a
    prefix can be completed depends only on the set it covers, so the
    prefix sets that failed are remembered and never searched again.
    """
    order: list[_T] = []
    dead: set[frozenset[_T]] = set()

    def extend(remaining: list[_T]) -> bool:
        if not remaining:
            return True
        state = frozenset(order)
        if state in dead:
            return False
        for idx, cand in enumerate(remaining):
            if step_ok(order, cand):
                order.append(cand)
                if extend(remaining[:idx] + remaining[idx + 1:]):
                    return True
                order.pop()
        dead.add(state)
        return False

    return order if extend(list(items)) else None


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


def shellable_bruteforce_test(c: SimplicialComplex) -> bool:
    """Search all facet orderings for a shelling, with prefix pruning.

    Capped by facet count; for pure complexes the intersection condition
    is the classical one (each new facet meets the old ones in a nonempty
    union of codimension-one faces).
    """
    check_cap("shelling", len(c.facets), "facet count")
    return _first_ordering(c.facets, _shelling_step_ok) is not None
