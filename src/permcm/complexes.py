"""Simplicial complexes and the exact algebraic oracles built on them.

This module is the independent ground truth the theorem-driven
classifiers are checked against.  Everything runs over the rationals
with exact integer arithmetic:

* reduced simplicial homology ranks, via boundary matrices, built as
  sparse rows, and their rank by sparse elimination (pivots on +-1
  entries, fraction-free steps otherwise);
* Reisner's criterion for Cohen-Macaulayness of a Stanley-Reisner ring:
  every link, the empty face included, has vanishing reduced homology
  below its own dimension;
* graded Betti numbers of the quotient by the Stanley-Reisner ideal via
  Hochster's formula, summing homology of induced subcomplexes over the
  vertex subsets, with regularity / projective dimension / depth / type
  read off the table;
* f-vectors, h-vectors, the Hilbert function and polynomial, both read
  from one integer formula for the coefficients of h(t)/(1-t)^d, and the
  a-invariant (degree of the Hilbert series numerator minus the Krull
  dimension);
* vertex decomposability, read as vertex splittability of the ideal of
  the Alexander dual, whose generators are the complements of the
  facets (Moradi and Khosh-Ahang, Math. Scand. 2016): one search for a
  splitting pivot, memoised on canonical forms, which hands its pivot
  back in the caller's labels; ``permcm.ideals`` builds its splitting
  witness trees from it, one call per node.

A flag complex gets two tables over the subsets of its used vertices,
filled together in one pass in increasing order and kept on the
complex, where Hochster and Reisner share them.  The meet table holds
the common closed 1-skeleton neighbourhood of each subset; the complex
is flag exactly when every subset that equals its own meet (a maximal
clique of the 1-skeleton) is a facet.  The fold table applies
Engstrom's fold lemma on the complement of the 1-skeleton
(Independence complexes of claw-free graphs, Eur. J. Combin. 2008): it
maps each subset to a smaller one with the same homology, read off the
entry of the subset minus one folding vertex, or marks its induced
complex a cone, which has no reduced homology.  A folded set splits
into the components of that complement, its complex is the join of
theirs, and the homology of a component is memoised by its 1-skeleton
relabelled to the low bits, which fixes a flag complex.  Hochster is
one tally for every complex: it counts the vertex subsets by size and
folded set and takes each folded set's homology once; on a complex that
is not flag nothing folds, and a subset stands for the used vertices in
it.  Reisner reads every face and its link off the meet table, since
the link of a face of a flag complex is the induced complex on the
common neighbours of its vertices; a complex that is not flag, or has
more used vertices than the ``hochster`` cap, takes each face's link
from the facets that contain it instead, and reads its homology off the
global homology memo.

Conventions: the void complex (no faces at all) and the complex {{}}
whose only face is the empty set are distinct values; the latter has
dimension -1 and reduced homology of rank 1 in dimension -1.  A complex
also carries its ambient vertex set, which may be larger than the union
of its facets; ambient-only vertices do not change homology but do
matter for Betti tables and depth.

Homology is memoised once per path.  On a flag complex within the
``hochster`` cap, the tables keep the homology of each folded set for
their complex (``_FlagTables.by_fold``), and the homology of a
component across complexes by its 1-skeleton (``_SKELETON_CACHE``):
these are the memos the sweeps and ``classify`` read back.  The global
memo of canonical forms (``_HOMOLOGY_CACHE``, keyed by the facet list
after an order-preserving relabelling of the used vertices) serves
``reduced_homology_ranks`` and the face walk, above the ``hochster``
cap or on a complex that is not flag, where the links of one complex
repeat; the flag path only fills it, once per skeleton it has not met
before.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate
from math import comb, gcd
from typing import Iterable, Mapping, Sequence

from .caps import check_cap, get_cap
from .graphs import Graph, _component, mask_of, vbit, vertices_of
from .invariants import maximal_independent_sets


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

    def facet_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(vertices_of(m) for m in self.facets))

    def faces(self) -> set[int]:
        """All faces as masks (the empty face included, unless void)."""
        return _faces(self.facets)

    @cached_property
    def _flag(self) -> "_FlagTables | None":
        """The subset tables of the complex when it is flag, else None;
        built on first use and shared by Hochster and Reisner."""
        return _flag_tables(_canonical(self.facets))


def independence_complex(g: Graph) -> SimplicialComplex:
    """Faces are the independent sets; facets the maximal ones."""
    return SimplicialComplex((1 << g.n) - 1, maximal_independent_sets(g))


# -- canonical forms and the homology cache --------------------------------

def _canonical(facets: Sequence[int]) -> tuple[int, ...]:
    """Facets after relabelling the used vertices 1..k in sorted order."""
    supp = 0
    for m in facets:
        supp |= m
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


def exact_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over the rationals of an integer matrix given as sparse rows,
    each a dict from column to nonzero entry, by sparse elimination; the
    rows are modified in place.

    A step takes the row that was shortest at the start among those
    left, pivots on one of its +-1 entries when it has one, and clears
    that column from every other row.  Boundary matrices have +-1
    entries, so that is the usual step, and it keeps the integers.
    Against a pivot c other than +-1 a row with entry a in that column
    takes the fraction-free step row <- c*row - a*pivot and is then
    divided by the gcd of its entries; neither changes the rank.
    """
    pending = sorted((r for r in rows if r), key=len, reverse=True)
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

    # boundary_rank[s] = rank of the map from size-s chains to size-(s-1):
    # one row per size-s face, its s boundary faces by index
    boundary_rank = [0] * (max_size + 2)
    for s in range(1, max_size + 1):
        row_index = index[s - 1]
        rows = []
        for fac in by_size[s]:
            row = {}
            sign = 1
            x = fac
            while x:
                low = x & -x
                row[row_index[fac ^ low]] = sign
                sign = -sign
                x ^= low
            rows.append(row)
        boundary_rank[s] = exact_rank(rows)

    ranks: dict[int, int] = {}
    for s in range(0, max_size + 1):
        cycles = len(by_size.get(s, ())) - boundary_rank[s]
        h = cycles - boundary_rank[s + 1]
        if h:
            ranks[s - 1] = h
    _HOMOLOGY_CACHE[key] = ranks
    return ranks


def _induced_homology(key: tuple[int, ...], r: int) -> dict[int, int]:
    """Reduced homology of the complex ``key`` induced on the set ``r``."""
    return _homology_of_key(_canonical(_maximalize(m & r for m in key)))


def reduced_homology_ranks(c: SimplicialComplex) -> dict[int, int]:
    """Ranks of reduced homology over Q, {dimension: rank}, zeros omitted.

    The void complex has no homology at all; the complex {{}} has rank 1
    in dimension -1.
    """
    return dict(_homology_of_key(_canonical(c.facets)))


# -- flag complexes: the subset tables --------------------------------------

def _join_homology(a: Mapping[int, int], b: Mapping[int, int]) -> dict[int, int]:
    """Reduced homology ranks over Q of the join of two complexes, from
    theirs: H~_{i+j+1}(A * B) is the sum of H~_i(A) (x) H~_j(B).  The
    dimensions come out ascending, as the kernel gives them."""
    out: dict[int, int] = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j + 1] = out.get(i + j + 1, 0) + x * y
    return dict(sorted(out.items()))


# homology of the flag complexes met through the fold table, keyed by
# the vertex count and the edges of the 1-skeleton relabelled to 0, 1, ...
_SKELETON_CACHE: dict[tuple[int, int], dict[int, int]] = {}


class _FlagTables:
    """The subset tables of a flag complex, over the subsets u of its
    used vertices, which are the low bits of the canonical ``key``:

    * ``meet[u]``: the common closed 1-skeleton neighbourhood of u.  In a
      flag complex the faces are the cliques, the u inside ``meet[u]``,
      and the link of a face u is the induced complex on
      ``meet[u] & ~u``.  A vertex x of u that shares an edge with every
      other vertex of u lies in every facet of the induced complex on u,
      which is then a cone: x is in ``meet[u] & u``.
    * ``fold[u]``: what is left of u after folding, or -1 when the
      induced complex on u folds to a cone.  In the complement G of the
      1-skeleton the induced complex on u is Ind(G[u]).  Engstrom's fold
      lemma: if N(a) is inside N(v) for a != v, then Ind(G) and
      Ind(G - v) are homotopy equivalent.  Read on the skeleton that is:
      a is in the closed neighbourhood of every vertex of the closed
      neighbourhood of v, so v leaves exactly when ``meet`` of v's closed
      neighbourhood holds a vertex of it besides v.  A vertex with no
      neighbour left in G sees every other one in the skeleton, and then
      the complex is a cone.

    ``homology`` gives the reduced homology of the induced complex on a
    folded set, memoised per complex."""

    def __init__(self, key: tuple[int, ...], meet: list[int], fold: list[int]) -> None:
        used = len(meet) - 1
        self.key, self.meet, self.fold = key, meet, fold
        # the complement of the 1-skeleton, whose independence complex on
        # a vertex set is the induced complex there
        self.apart = [0, *(used & ~meet[vbit(v)] for v in range(1, used.bit_length() + 1))]
        self.by_fold: dict[int, dict[int, int]] = {}  # folded set -> homology

    def homology(self, r: int) -> dict[int, int]:
        """Reduced homology of the induced complex on the folded set r:
        the join of the complexes on the components of the complement
        of the 1-skeleton there, so it is read off theirs."""
        ranks = self.by_fold.get(r)
        if ranks is None:
            part = _component(self.apart, r)
            if part == r:
                ranks = self._skeleton_homology(r)
            else:
                ranks = _join_homology(self.homology(part), self.homology(r ^ part))
            self.by_fold[r] = ranks
        return ranks

    def _skeleton_homology(self, r: int) -> dict[int, int]:
        # the skeleton on r with its vertices renumbered 0, 1, ... in
        # order: the edge from i to an earlier j is bit i(i-1)/2 + j
        apart = self.apart
        edges = offset = i = 0
        s = r
        while s:
            low = s & -s
            s ^= low
            x = r & (low - 1) & ~apart[low.bit_length()]
            while x:
                b = x & -x
                x ^= b
                edges |= 1 << offset + (r & (b - 1)).bit_count()
            offset += i
            i += 1
        shape = (r.bit_count(), edges)
        ranks = _SKELETON_CACHE.get(shape)
        if ranks is None:
            ranks = _induced_homology(self.key, r)
            _SKELETON_CACHE[shape] = ranks
        return ranks

    def reisner(self, size: int) -> bool:
        """Reisner's criterion on the complex, pure with facets of
        ``size`` vertices: the link of each face u, the induced complex on
        ``meet[u] & ~u``, is a cone or has the homology of its folded
        set, which must vanish below the link's dimension
        ``size - 1 - |u|``."""
        fold = self.fold
        for u, m in enumerate(self.meet):
            if u & ~m:
                continue  # not a clique, so not a face
            r = fold[m ^ u]
            if r >= 0:
                top = size - 1 - u.bit_count()
                if any(d < top for d in self.homology(r)):
                    return False
        return True


def _flag_tables(key: tuple[int, ...]) -> _FlagTables | None:
    """The tables of ``_FlagTables`` for the complex with canonical facets
    ``key``, filled together in one pass in increasing order, or None
    when the complex is not flag (or is void).  Each entry is read off
    entries of smaller subsets: ``meet`` of u minus its lowest vertex, and
    ``fold`` of u minus its first folding vertex.  The complex is flag
    exactly when every maximal clique of its 1-skeleton, a u with
    ``meet[u] == u``, is a face, and then a facet: a face is a clique."""
    if not key:
        return None  # void: the empty clique is no face
    used = (1 << max(m.bit_length() for m in key)) - 1
    nbhd = [0] * (used.bit_length() + 1)  # closed neighbourhoods; index 0 unused
    for f in key:
        s = f
        while s:
            low = s & -s
            s ^= low
            nbhd[low.bit_length()] |= f
    facets = set(key)
    meet = [used] * (used + 1)
    fold = [0] * (used + 1)
    for u in range(1, used + 1):
        low = u & -u
        m = meet[u] = meet[u ^ low] & nbhd[low.bit_length()]
        if m & u:
            fold[u] = -1
            if m == u and u not in facets:
                return None  # a maximal clique of the 1-skeleton that is no face
            continue
        s = u
        while s:
            low = s & -s
            near = u & meet[low]
            if meet[near] & near != low:
                fold[u] = fold[u ^ low]
                break
            s ^= low
        else:
            fold[u] = u
    return _FlagTables(key, meet, fold)


# -- Reisner's criterion ----------------------------------------------------

def _reisner_key(key: tuple[int, ...]) -> bool:
    """Reisner's criterion on the complex with canonical facets ``key``,
    face by face: the complex is pure, and the link of each face F, the
    facets that contain F minus F, has no reduced homology below its
    dimension d - 1 - |F|, where the facets have d vertices."""
    if len({m.bit_count() for m in key}) > 1:
        return False
    for f in _faces(key):
        top = key[0].bit_count() - 1 - f.bit_count()
        link = _canonical([m & ~f for m in key if m & f == f])
        if any(d < top for d in _homology_of_key(link)):
            return False
    return True


def reisner_cm_test(c: SimplicialComplex) -> bool:
    """Cohen-Macaulayness of the Stanley-Reisner ring over Q.

    Reisner: the ring is CM iff for every face F (including the empty
    face) the reduced homology of lk(F) vanishes below dim lk(F).  Then
    the complex is pure, so a complex that is not fails at once.  On a
    flag complex the faces and their links are read off the shared
    subset tables (``_FlagTables.reisner``).  Any other complex, and one
    with more used vertices than the ``hochster`` cap, for which no
    table is built, takes each face's link from its facets and reads
    the link's homology off the memo on canonical forms.
    """
    used = 0
    for m in c.facets:
        used |= m
    if used.bit_count() <= get_cap("hochster"):
        sizes = {m.bit_count() for m in c.facets}
        if len(sizes) > 1:
            return False
        tables = c._flag
        if tables is not None:
            return tables.reisner(sizes.pop())
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


def hochster_betti_table(c: SimplicialComplex) -> BettiTable:
    """Betti table via Hochster: beta_{i,j} sums the reduced homology of
    the induced subcomplexes on the j-element vertex subsets W, in
    dimension j - i - 1.  The W = empty term lands at (0, 0).

    One sum serves every complex: it tallies the W by size and folded
    set, walking W down from the full set, so the entries come out in
    the order in which a sum over the W themselves first meets them, and
    takes each folded set's homology once.  When the complex is flag,
    its fold table cuts each W down to a smaller set with the same
    homology (Engstrom, *Independence complexes of claw-free graphs*,
    Eur. J. Combin. 2008), or marks it a cone, which has no reduced
    homology (``_FlagTables.homology``).  On any other complex nothing
    folds: W folds to the used vertices in it, and the homology of the
    complex induced there is read off the memo on canonical forms."""
    if c.is_void:
        raise ValueError("Betti table of the zero ring is not defined")
    n = c.vertices.bit_count()
    check_cap("hochster", n, "ambient vertex set")
    # the table only depends on the complex up to relabelling: the used
    # vertices become the low bits, the ambient-only ones the rest
    tables = c._flag
    if tables is None:
        key = _canonical(c.facets)
        fold = range(1 << max(m.bit_length() for m in key))  # fold[u] == u
        homology = partial(_induced_homology, key)
    else:
        fold, homology = tables.fold, tables.homology
    used = len(fold) - 1
    tally: dict[tuple[int, int], int] = {}  # (|W|, folded W) -> count
    for w in range((1 << n) - 1, -1, -1):
        r = fold[w & used]
        if r >= 0:
            t = (w.bit_count(), r)
            tally[t] = tally.get(t, 0) + 1
    entries: dict[tuple[int, int], int] = {}
    for (j, r), times in tally.items():
        for d, rank in homology(r).items():
            entries[(j - d - 1, j)] = entries.get((j - d - 1, j), 0) + times * rank
    return BettiTable(n, entries)


# -- Hilbert data ------------------------------------------------------------

def _series_coef(m: int, d: int) -> int:
    """Coefficient of t^m in 1/(1-t)^d, C(m+d-1, d-1), as a polynomial in
    m evaluated at any integer m: (m+1)(m+2)...(m+d-1) / (d-1)!.  A
    factor vanishes for -d < m < 0; for m <= -d every factor is
    negative, which gives (-1)^(d-1) C(-m-1, d-1).  For d = 0 it is 1 at
    m = 0 and 0 elsewhere."""
    if d == 0:
        return int(m == 0)
    if m >= 0:
        return comb(m + d - 1, d - 1)
    if m > -d:
        return 0
    return (-1) ** (d - 1) * comb(-m - 1, d - 1)


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
    function from the series h(t)/(1-t)^d on [0, n] by prefix sums,
    a-invariant = deg h - d."""
    if c.is_void:
        raise ValueError("Hilbert data of the zero ring is not defined")
    d = max(m.bit_count() for m in c.facets)
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

    # the series h(t)/(1-t)^d: h, padded to the window, summed up d times
    window = c.vertices.bit_count() + 1
    hf = (h_t + (0,) * window)[:window]
    for _ in range(d):
        hf = tuple(accumulate(hf))
    deg_h = max((j for j, hj in enumerate(h_t) if hj), default=0)
    return HilbertData(f=f, h=h_t, d=d, hf=hf, a=deg_h - d)


# -- vertex decomposability, read through the Alexander dual ----------------

# the splitting pivot of each canonical generator list: 0 for a base
# case, None when there is no splitting; the complex whose facets are
# the complements of the generators is vertex decomposable exactly when
# the pivot is not None
_VD_CACHE: dict[tuple[int, ...], int | None] = {}


def _pivot_candidates(gens: Sequence[int]) -> list[int]:
    counts: dict[int, int] = {}
    for g in gens:
        x = g
        while x:
            low = x & -x
            counts[low] = counts.get(low, 0) + 1
            x ^= low
    # fail fast: most frequent variable first, smallest index on ties
    return sorted(counts, key=lambda b: (-counts[b], b))


def _split_pivot(gens: Sequence[int]) -> int | None:
    """A pivot bit x that splits the squarefree monomial ideal with
    minimal generators ``gens`` as x I_1 + I_2, with I_2 inside I_1 and
    both parts vertex splittable; 0 for a base case ((0), (u) or S);
    None if there is none.

    The search runs on the canonical form and is memoised there.  The
    pivot comes back in the labels of ``gens``, as the used variable of
    the same rank: relabelling the used variables in order keeps the
    order of ``_pivot_candidates``, so it is the pivot a search on
    ``gens`` itself would find."""
    key = _canonical(gens)
    if key in _VD_CACHE:
        pivot = _VD_CACHE[key]
    elif len(key) <= 1:
        pivot = _VD_CACHE[key] = 0
    else:
        pivot = None
        for xb in _pivot_candidates(key):
            with_x = tuple(g & ~xb for g in key if g & xb)
            without = tuple(g for g in key if not g & xb)
            # I_2 contained in I_1: every generator without the pivot
            # must be divisible by a generator of the pivot part
            if (with_x and all(any(w & v == w for w in with_x) for v in without)
                    and _split_pivot(with_x) is not None
                    and _split_pivot(without) is not None):
                pivot = xb
                break
        _VD_CACHE[key] = pivot
    if not pivot:
        return pivot
    used = 0
    for g in gens:
        used |= g
    for _ in range(pivot.bit_length() - 1):
        used &= used - 1  # drop the lowest used variable
    return used & -used


def is_vertex_decomposable(c: SimplicialComplex) -> bool:
    """Vertex decomposability: the complex has at most one facet, or some
    shedding vertex has a vertex decomposable deletion and link.

    Read as vertex splittability of the ideal of the Alexander dual,
    whose generators are the complements of the facets (Moradi and
    Khosh-Ahang, *On vertex decomposable simplicial complexes and their
    Alexander duals*, Math. Scand. 2016).  The complements are taken in
    the used vertices, so cone points drop out; for an independence
    complex the generators are those of the cover ideal.  The complex
    is vertex decomposable exactly when ``_split_pivot`` returns a
    pivot for them (0 for a base case) rather than None.  It reads no
    cap, unlike ``permcm.ideals.vertex_splittable_test``: ``classify``
    reports it for complexes with more facets than that cap allows."""
    used = 0
    for m in c.facets:
        used |= m
    return _split_pivot([used & ~m for m in c.facets]) is not None
