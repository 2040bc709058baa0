"""Theorem-driven classification of permutation graphs.

The classifiers here run on structural characterizations:

* Cohen-Macaulay: the graph is unmixed and its vertex set partitions in
  exactly one way into alpha(G) disjoint maximal cliques.
* vertex decomposability with witness: when the graph is CM, some block
  of the unique chain partition has a top element j whose unique lower
  cover i satisfies "everything strictly above i is exactly {j}"; that j
  is a shedding vertex, and peeling such vertices one at a time yields a
  machine-checkable shedding order.
* Gorenstein: among permutation graphs without isolated vertices these
  are exactly the disjoint unions of edges; nearly Gorenstein but not
  Gorenstein are exactly the complete graphs and path complements on at
  least 3 vertices.
* a-invariant of a CM permutation graph: im(G) + tau(G) - n, and the
  edge ideal is Hilbertian exactly when that is negative.  Regularity is
  im(G) for every permutation graph.
* bi-Cohen-Macaulay: CM and im(G) = 1.

Everything feeds a ClassificationReport carrying the flags, the
invariants, and re-checkable witnesses.  Isolated vertices are cone
points of the independence complex: they are stripped (and recorded)
before the Gorenstein-type calls, which require their absence.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import combinations

from .caps import get_cap
from .cohesive import (
    ChainPartition,
    CohesiveOrder,
    comparability_poset,
    find_cohesive_order,
    maximal_clique_partitions,
    verify_cohesive_order,
)
from .complexes import (
    SimplicialComplex,
    hilbert_data,
    hochster_betti_table,
    independence_complex,
    is_vertex_decomposable,
    reisner_cm_test,
)
from .graphs import (
    Graph,
    StructureFlags,
    delete_vertex,
    induced_subgraph,
    recognize_structure,
    vbit,
    vertices_of,
)
from .invariants import (
    InvariantSet,
    compute_invariants,
    maximal_independent_sets,
)


class NotPermutationGraphError(ValueError):
    """Raised when an operation requires a permutation graph."""


class ClaimFailureError(RuntimeError):
    """No chain-partition block yields a shedding vertex.

    This cannot happen for a Cohen-Macaulay permutation graph; seeing it
    signals a bug or a violated precondition.
    """


def cm_by_clique_partition(
    g: Graph,
    order: CohesiveOrder | None = None,
    mis: tuple[tuple[int, ...], ...] | None = None,
) -> tuple[bool, tuple[ChainPartition, ...]]:
    """Cohen-Macaulay test: unmixed plus a unique partition of the
    vertex set into alpha(G) disjoint maximal cliques.

    Returns the flag and the partitions found (at most 2; a second one
    is already a counterexample certificate).  ``mis``, when given, must
    be ``maximal_independent_sets(g)``.
    """
    if order is None:
        order = find_cohesive_order(g)
    if order is None:
        raise NotPermutationGraphError("input admits no cohesive order")
    if g.n == 0:
        return True, ()
    if mis is None:
        mis = maximal_independent_sets(g)
    alpha = max(len(s) for s in mis)
    unmixed = all(len(s) == alpha for s in mis)
    parts = maximal_clique_partitions(g, r=alpha, limit=2)
    return unmixed and len(parts) == 1, parts


@dataclass(frozen=True)
class ShedStep:
    """One peeling step, recorded in the labels of the input graph."""

    vertices: tuple[int, ...]            # vertices still present
    order: tuple[int, ...]               # cohesive order restricted to them
    partition: tuple[tuple[int, ...], ...]
    t: int                               # 1-based index of the chosen block
    shedding_vertex: int                 # j: top of block t, removed now
    lower_cover: int                     # i: the unique element j covers in the block
    upset_verified: bool
    shedding_verified: bool


@dataclass(frozen=True)
class SheddingCertificate:
    order: tuple[int, ...]               # removal sequence (the j's)
    cohesive_order: tuple[int, ...]      # initial witness order
    steps: tuple[ShedStep, ...]
    remaining: tuple[int, ...]           # final edgeless vertex set

    def to_dict(self) -> dict:
        return {
            "order": list(self.order),
            "cohesive_order": list(self.cohesive_order),
            "remaining": list(self.remaining),
            "steps": [
                {
                    "vertices": list(s.vertices),
                    "order": list(s.order),
                    "partition": [list(b) for b in s.partition],
                    "t": s.t,
                    "shedding_vertex": s.shedding_vertex,
                    "lower_cover": s.lower_cover,
                    "upset_verified": s.upset_verified,
                    "shedding_verified": s.shedding_verified,
                }
                for s in self.steps
            ],
        }


def _is_maximal_independent_in(g: Graph, fmask: int) -> bool:
    for v in range(1, g.n + 1):
        if fmask & vbit(v):
            continue
        if not g.adj[v] & fmask:
            return False
    return True


def _peel(
    g: Graph, j: int
) -> tuple[Graph, dict[int, int], tuple[tuple[int, ...], ...]] | None:
    """Delete the shedding vertex j: g minus j, the old-to-new vertex map
    and the maximal independent sets of g minus j; None unless each of
    those sets stays maximal in g (the shedding property of j)."""
    smaller, old_to_new = delete_vertex(g, j)
    mis = maximal_independent_sets(smaller)
    new_to_old = {b: a for a, b in old_to_new.items()}
    for s in mis:
        fmask = sum(vbit(new_to_old[v]) for v in s)
        if not _is_maximal_independent_in(g, fmask):
            return None
    return smaller, old_to_new, mis


def extract_shedding_order(
    g: Graph, order: CohesiveOrder | None = None
) -> SheddingCertificate:
    """Constructive shedding order for a CM permutation graph.

    Iteratively: build the comparability poset of the cohesive order,
    take the unique partition into maximal chains, find the first block
    whose lower-cover element i has upper set exactly {j}, verify the
    shedding property of j directly, delete j, and repeat until the
    graph is edgeless.  Requires a graph with no isolated vertices; the
    first step rejects a graph that is not CM (not unmixed, or without a
    unique partition).  Each step's maximal independent sets are those
    the shedding check of the step before enumerated.
    """
    if g.isolated_vertices():
        raise ValueError("strip isolated vertices before extracting a shedding order")
    if order is None:
        order = find_cohesive_order(g)
    if order is None:
        raise NotPermutationGraphError("input admits no cohesive order")

    cur = g
    mis = maximal_independent_sets(g)
    cur_of = {v: v for v in range(1, g.n + 1)}   # original -> current label
    orig_order = order.order
    removed: list[int] = []
    steps: list[ShedStep] = []

    while cur.edge_count() > 0:
        orig_of = {c: o for o, c in cur_of.items()}
        cur_order = tuple(cur_of[o] for o in orig_order if o in cur_of)
        poset = comparability_poset(cur, cur_order)
        alpha = max(len(s) for s in mis)
        parts = maximal_clique_partitions(cur, r=alpha, limit=2, poset=poset)
        if not steps:  # the input's partition and unmixedness decide CM
            if len(parts) != 1 or any(len(s) != alpha for s in mis):
                raise ValueError("shedding orders exist only for Cohen-Macaulay inputs")
        if len(parts) != 1:
            raise ClaimFailureError(
                f"partition into {alpha} maximal cliques not unique mid-extraction"
            )
        part = parts[0]
        assert part.tops is not None and part.lower_covers is not None

        chosen = None
        for t_idx, block in enumerate(part.blocks):
            i = part.lower_covers[t_idx]
            if i is None:
                continue
            j = part.tops[t_idx]
            if poset.up[i] == vbit(j):
                chosen = (t_idx, i, j)
                break
        if chosen is None:
            raise ClaimFailureError("no block satisfies the upper-set condition")
        t_idx, i, j = chosen

        peeled = _peel(cur, j)
        if peeled is None:
            raise ClaimFailureError(
                f"vertex {orig_of[j]} failed the direct shedding re-check"
            )

        steps.append(
            ShedStep(
                vertices=tuple(sorted(orig_of[c] for c in cur.vertices())),
                order=tuple(orig_of[c] for c in cur_order),
                partition=tuple(
                    tuple(sorted(orig_of[c] for c in block)) for block in part.blocks
                ),
                t=t_idx + 1,
                shedding_vertex=orig_of[j],
                lower_cover=orig_of[i],
                upset_verified=True,
                shedding_verified=True,
            )
        )
        removed.append(orig_of[j])

        cur, old_to_new, mis = peeled
        cur_of = {
            o: old_to_new[c] for o, c in cur_of.items() if c != j
        }

    remaining = tuple(sorted(o for o in cur_of))
    return SheddingCertificate(
        order=tuple(removed),
        cohesive_order=orig_order,
        steps=tuple(steps),
        remaining=remaining,
    )


def verify_shedding_certificate(g: Graph, cert: SheddingCertificate) -> bool:
    """Re-check every step of a certificate from the graph alone."""
    cur = g
    cur_of = {v: v for v in range(1, g.n + 1)}
    for step in cert.steps:
        if tuple(sorted(cur_of)) != step.vertices:
            return False
        try:
            cur_order = tuple(cur_of[o] for o in step.order)
        except KeyError:
            return False
        if sorted(step.order) != sorted(cur_of):
            return False
        if not verify_cohesive_order(cur, cur_order):
            return False
        poset = comparability_poset(cur, cur_order)

        # the recorded partition must be a partition into maximal cliques
        seen = 0
        for block in step.partition:
            bmask = 0
            for o in block:
                if o not in cur_of:
                    return False
                bmask |= vbit(cur_of[o])
            if bmask & seen:
                return False
            seen |= bmask
            bverts = vertices_of(bmask)
            common = cur.full_mask
            for v in bverts:
                for u in bverts:
                    if u != v and not cur.has_edge(u, v):
                        return False
                common &= cur.adj[v]
            if common & ~bmask:
                return False  # extendable, so not a maximal clique
        if seen != cur.full_mask:
            return False

        i = cur_of.get(step.lower_cover)
        j = cur_of.get(step.shedding_vertex)
        if i is None or j is None:
            return False
        block = step.partition[step.t - 1]
        if step.shedding_vertex not in block or step.lower_cover not in block:
            return False
        if poset.up[i] != vbit(j):
            return False
        peeled = _peel(cur, j)
        if peeled is None:
            return False

        cur, old_to_new, _ = peeled
        cur_of = {o: old_to_new[c] for o, c in cur_of.items() if c != j}
    return cur.edge_count() == 0


def gorenstein_by_structure(g: Graph) -> tuple[bool, bool]:
    """Structural (gorenstein, strictly nearly gorenstein) flags.

    Requires a graph without isolated vertices.  Gorenstein means a
    disjoint union of edges (the edge ideal is then a complete
    intersection); the strict nearly-Gorenstein graphs are the complete
    graphs and the path complements on n >= 3 vertices.  An empty graph
    is allowed and counts as Gorenstein (polynomial ring).
    """
    if g.isolated_vertices():
        raise ValueError("Gorenstein classification requires no isolated vertices")
    facts = GraphFacts(g)
    return facts.gorenstein, facts.nearly_gorenstein


def gap_witness_check(g: Graph) -> bool | None:
    """For a Gorenstein candidate with alpha >= 2: removing the closed
    neighbourhood of any independent set of size alpha - 2 must leave a
    graph that is structurally two disjoint edges.  None when alpha < 2
    (not applicable)."""
    mis = maximal_independent_sets(g)
    if not mis:
        return None
    alpha = max(len(s) for s in mis)
    if alpha < 2:
        return None
    size = alpha - 2
    for combo in combinations(range(1, g.n + 1), size):
        fmask = sum(vbit(v) for v in combo)
        independent = all(
            not g.adj[v] & fmask for v in combo
        )
        if not independent:
            continue
        drop = fmask
        for v in combo:
            drop |= g.adj[v]
        rest = g.full_mask & ~drop
        sub, _ = induced_subgraph(g, vertices_of(rest))
        if sub.n != 4 or any(sub.degree(v) != 1 for v in sub.vertices()):
            return False
    return True


def bicm_and_hilbertian(g: Graph) -> tuple[bool, bool, int]:
    """(bi-CM, Hilbertian, a-invariant) for a CM permutation graph.

    a = im + tau - n; Hilbertian exactly when a < 0; bi-CM exactly when
    additionally im = 1.  Raises on non-CM input, where the formula is
    not claimed (use the Hilbert oracle there instead).
    """
    facts = GraphFacts(g)
    a, hilbertian = facts.a_invariant
    return facts.bicm, hilbertian, a


def _translate_certificate(
    cert: SheddingCertificate, new_to_orig: dict[int, int]
) -> SheddingCertificate:
    t = new_to_orig.__getitem__
    return SheddingCertificate(
        order=tuple(t(v) for v in cert.order),
        cohesive_order=tuple(t(v) for v in cert.cohesive_order),
        remaining=tuple(sorted(t(v) for v in cert.remaining)),
        steps=tuple(
            replace(
                s,
                vertices=tuple(sorted(t(v) for v in s.vertices)),
                order=tuple(t(v) for v in s.order),
                partition=tuple(tuple(sorted(t(v) for v in b)) for b in s.partition),
                shedding_vertex=t(s.shedding_vertex),
                lower_cover=t(s.lower_cover),
            )
            for s in cert.steps
        ),
    )


class GraphFacts:
    """The facts about one graph that the classifiers and the oracles
    share, each computed on first use and then kept.

    A cohesive order already known (a sweep's inversion labelling) can
    be passed in; otherwise it is recognised on first use, and it is
    None for a graph that is not a permutation graph.  An instance holds
    one graph's facts only and is meant to be dropped with the graph.
    """

    def __init__(self, g: Graph, order: CohesiveOrder | None = None) -> None:
        self.g = g
        if order is not None:
            self.order = order

    @cached_property
    def order(self) -> CohesiveOrder | None:
        return find_cohesive_order(self.g)

    @cached_property
    def mis(self) -> tuple[tuple[int, ...], ...]:
        return maximal_independent_sets(self.g)

    @cached_property
    def invariants(self) -> InvariantSet:
        return compute_invariants(self.g, mis=self.mis)

    @cached_property
    def complex(self) -> SimplicialComplex:
        return independence_complex(self.g, mis=self.mis)

    @cached_property
    def stripped(self) -> tuple[Graph, dict[int, int]]:
        """The graph without its isolated vertices, relabelled 1..k, and
        the old-to-new vertex map."""
        g = self.g
        kept = [v for v in range(1, g.n + 1) if g.adj[v]]
        if len(kept) == g.n:  # nothing to strip, so no copy
            return g, {v: v for v in kept}
        return induced_subgraph(g, kept)

    @cached_property
    def cm_partitions(self) -> tuple[bool, tuple[ChainPartition, ...]]:
        """``cm_by_clique_partition`` of the graph."""
        if self.order is None:
            raise NotPermutationGraphError("input admits no cohesive order")
        return cm_by_clique_partition(self.g, order=self.order, mis=self.mis)

    @property
    def cm(self) -> bool:
        return self.cm_partitions[0]

    @property
    def bicm(self) -> bool:
        """bi-Cohen-Macaulay: CM and im(G) = 1."""
        return self.cm and self.invariants.induced_matching == 1

    @cached_property
    def a_invariant(self) -> tuple[int, bool]:
        """(a, Hilbertian) from a = im + tau - n, Hilbertian exactly when
        a < 0.  The formula is claimed for CM permutation graphs only."""
        if not self.cm:
            raise ValueError("a-invariant formula requires a Cohen-Macaulay input")
        inv = self.invariants
        a = inv.induced_matching + inv.tau - self.g.n
        return a, a < 0

    @cached_property
    def structure(self) -> StructureFlags:
        """``recognize_structure`` of the stripped graph."""
        return recognize_structure(self.stripped[0])

    @cached_property
    def gorenstein(self) -> bool:
        """Gorenstein: the stripped graph is a disjoint union of edges."""
        stripped = self.stripped[0]
        return all(stripped.degree(v) == 1 for v in stripped.vertices())

    @cached_property
    def nearly_gorenstein(self) -> bool:
        """Strictly nearly Gorenstein: not Gorenstein, and the stripped
        graph is complete or a path complement on at least 3 vertices."""
        if self.stripped[0].n < 3 or self.gorenstein:
            return False
        return self.structure.is_complete or self.structure.is_path_complement

    @cached_property
    def shedding(self) -> SheddingCertificate | None:
        """Shedding certificate of the stripped graph in the input's
        labels, from the cohesive order restricted to it; None unless the
        graph is CM and has an edge."""
        stripped, old_to_new = self.stripped
        if not (stripped.n and self.cm):
            return None
        order = CohesiveOrder(
            tuple(old_to_new[v] for v in self.order.order if v in old_to_new)
        )
        cert = extract_shedding_order(stripped, order=order)
        return _translate_certificate(cert, {b: a for a, b in old_to_new.items()})


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    edges: tuple[tuple[int, int], ...]
    is_permutation: bool
    cohesive_order: tuple[int, ...] | None
    isolated_vertices: tuple[int, ...]
    invariants: InvariantSet
    unmixed: bool
    cm: bool | None
    vertex_decomposable: bool | None
    gorenstein: bool | None
    nearly_gorenstein: bool | None
    bicm: bool | None
    hilbertian: bool | None
    a_invariant: int | None
    reg: int | None
    oracle: dict | None
    witnesses: dict

    def to_dict(self) -> dict:
        inv = self.invariants
        return {
            "n": self.n,
            "edges": [list(e) for e in self.edges],
            "is_permutation": self.is_permutation,
            "cohesive_order": list(self.cohesive_order) if self.cohesive_order is not None else None,
            "isolated_vertices": list(self.isolated_vertices),
            "invariants": {
                "alpha": inv.alpha,
                "tau": inv.tau,
                "unmixed": inv.unmixed,
                "matching": inv.matching,
                "induced_matching": inv.induced_matching,
                "max_independent_sets": [list(s) for s in inv.max_independent_sets],
                "min_vertex_covers": [list(s) for s in inv.min_vertex_covers],
            },
            "unmixed": self.unmixed,
            "cm": self.cm,
            "vertex_decomposable": self.vertex_decomposable,
            "gorenstein": self.gorenstein,
            "nearly_gorenstein": self.nearly_gorenstein,
            "bicm": self.bicm,
            "hilbertian": self.hilbertian,
            "a_invariant": self.a_invariant,
            "reg": self.reg,
            "oracle": self.oracle,
            "witnesses": self.witnesses,
        }


def classify(g: Graph, with_oracle: bool = True) -> ClassificationReport:
    """Full report: theorem classifiers, invariants, oracle cross-checks.

    Non-permutation inputs get a partial report (invariants plus oracle
    fields); the theorem-driven fields stay None there.  Oracle fields
    are computed when the graph fits the Betti-table cap.
    """
    if g.n < 1:
        raise ValueError("classification needs at least one vertex")
    facts = GraphFacts(g)
    inv = facts.invariants
    order = facts.order

    oracle: dict | None = None
    if with_oracle and g.n <= get_cap("hochster"):
        comp = facts.complex
        hil = hilbert_data(comp)
        betti = hochster_betti_table(comp)
        oracle = {
            "reisner_cm": reisner_cm_test(comp),
            "vertex_decomposable": is_vertex_decomposable(comp),
            "betti_reg": betti.reg,
            "betti_pd": betti.pd,
            "betti_depth": betti.depth,
            "betti_type": betti.type,
            "hilbert_a": hil.a,
            "hilbertian": hil.hilbertian,
            "f_vector": list(hil.f),
            "h_vector": list(hil.h),
        }

    cm_flag = gorenstein = nearly = bicm = None
    witnesses: dict = {"clique_partitions": None, "shedding": None, "gap_witness": None}
    if order is not None:
        cm_flag, parts = facts.cm_partitions
        gorenstein, nearly = facts.gorenstein, facts.nearly_gorenstein
        bicm = facts.bicm
        stripped, _ = facts.stripped
        witnesses = {
            "clique_partitions": [[list(b) for b in p.blocks] for p in parts],
            "shedding": facts.shedding.to_dict() if facts.shedding else None,
            "gap_witness": (
                gap_witness_check(stripped) if gorenstein and stripped.n else None
            ),
        }
    if cm_flag:
        a, hilbertian = facts.a_invariant
    else:
        a = oracle["hilbert_a"] if oracle else None
        hilbertian = oracle["hilbertian"] if oracle else None
    if order is not None:
        reg = inv.induced_matching  # reg = im for every permutation graph
    else:
        reg = oracle["betti_reg"] if oracle else None

    return ClassificationReport(
        n=g.n,
        edges=g.edges(),
        is_permutation=order is not None,
        cohesive_order=order.order if order is not None else None,
        isolated_vertices=g.isolated_vertices(),
        invariants=inv,
        unmixed=inv.unmixed,
        cm=cm_flag,
        vertex_decomposable=oracle["vertex_decomposable"] if oracle else None,
        gorenstein=gorenstein,
        nearly_gorenstein=nearly,
        bicm=bicm,
        hilbertian=hilbertian,
        a_invariant=a,
        reg=reg,
        oracle=oracle,
        witnesses=witnesses,
    )
