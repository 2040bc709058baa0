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
points of the independence complex: ``_strip`` removes them, and it is
the one place that does, for the Gorenstein-type facts, the gap
witness and the shedding certificates.

Shedding certificates are built and re-checked in the labels of the
graph passed in, isolated vertices or not.  The walk keeps the
vertices not yet shed as one bitmask ``alive`` over those labels,
starting from the vertices that are not isolated; the subgraph it
works on is the one induced on ``alive``, relabelled 1..k in
increasing order, so its vertex c is ``vertices_of(alive)[c - 1]``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from functools import cached_property
from itertools import combinations
from typing import Iterable, Sequence

from .caps import get_cap
from .cohesive import (
    _check_order,
    comparability_poset,
    find_cohesive_order,
    maximal_clique_partitions,
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
    induced_subgraph,
    mask_of,
    recognize_structure,
    vbit,
    vertices_of,
)
from .invariants import (
    InvariantSet,
    compute_invariants,
    independence_invariants,
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
    g: Graph, order: Sequence[int] | None = None
) -> tuple[bool, tuple[tuple[tuple[int, ...], ...], ...]]:
    """Cohen-Macaulay test: unmixed plus a unique partition of the
    vertex set into alpha(G) disjoint maximal cliques.

    Returns the flag and the partitions found, as
    ``maximal_clique_partitions`` lists them (at most 2; a second one is
    already a counterexample certificate).

    ``order``, when given, must list the vertices 1..n once each
    (``ValueError`` otherwise) and is trusted to be cohesive: it stands
    for the recognition that shows ``g`` is a permutation graph, and
    nothing else reads it.
    """
    if order is not None:
        _check_order(g, order)
    elif find_cohesive_order(g) is None:
        raise NotPermutationGraphError("input admits no cohesive order")
    alpha, _, unmixed, _ = independence_invariants(g)
    parts = maximal_clique_partitions(g, r=alpha, limit=2)
    return unmixed and len(parts) == 1, parts


_SCALARS = frozenset((int, bool, str, float, type(None)))


def _to_json(x):
    """``x`` with each dataclass turned into the dict of its fields and
    each tuple into a list, recursively: the documents ``to_dict``
    returns."""
    t = type(x)
    if t in _SCALARS:
        return x
    if t is tuple or t is list:
        return [_to_json(v) for v in x]
    if t is dict:
        return {k: _to_json(v) for k, v in x.items()}
    return {f.name: _to_json(getattr(x, f.name)) for f in fields(x)}


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
        return _to_json(self)


def _strip(g: Graph) -> tuple[Graph, int]:
    """g without its isolated vertices, relabelled 1..k in increasing
    order, and the mask of its vertices in g's labels."""
    alive = g.full_mask & ~mask_of(g.isolated_vertices())
    if alive == g.full_mask:  # nothing to strip, so no copy
        return g, alive
    return induced_subgraph(g, alive), alive


def _ranks(alive: int, vs: tuple[int, ...]) -> tuple[int, ...]:
    """The labels of the vertices ``vs`` of ``alive`` in the subgraph
    induced on ``alive``, relabelled 1..k in increasing order."""
    return tuple((alive & (vbit(v) - 1)).bit_count() + 1 for v in vs)


def _peel(cur: Graph, j: int) -> Graph | None:
    """Delete the shedding vertex j: cur minus j (the labels above j move
    down by one); None unless each maximal independent set of cur minus
    j stays maximal in cur (the shedding property of j)."""
    smaller = induced_subgraph(cur, cur.full_mask & ~vbit(j))
    below = vbit(j) - 1
    nbrs = cur.adj[j] & below | cur.adj[j] >> 1 & ~below  # in smaller's labels
    # a set maximal in smaller stays maximal in cur exactly when j, the
    # one vertex of cur it does not dominate yet, has a neighbour in it
    if any(not nbrs & s for s in maximal_independent_sets(smaller)):
        return None
    return smaller


def _shedding_walk(
    cur: Graph,
    alive: int,
    order: Sequence[int],
    first: tuple[bool, tuple[tuple[tuple[int, ...], ...], ...]] | None = None,
) -> SheddingCertificate:
    """The walk of ``extract_shedding_order`` on ``cur``, the subgraph
    induced on ``alive``, recorded in the input's labels; ``order`` is a
    cohesive order of the input.  ``first``, when given, is
    ``cm_by_clique_partition`` of ``cur`` itself, already known, and
    stands for the first step's."""
    order = tuple(v for v in order if alive & vbit(v))
    steps: list[ShedStep] = []

    while cur.edge_count() > 0:
        labels = vertices_of(alive)
        step_order = tuple(v for v in order if alive & vbit(v))
        ranks = _ranks(alive, step_order)
        up = comparability_poset(cur, ranks)
        cm, parts = first or cm_by_clique_partition(cur, ranks)
        first = None
        if not (cm or steps):  # the input's CM test
            raise ValueError("shedding orders exist only for Cohen-Macaulay inputs")
        if len(parts) != 1:
            raise ClaimFailureError(
                "partition into alpha maximal cliques not unique mid-extraction"
            )
        part = parts[0]

        for t, block in enumerate(part, 1):
            # a block is a chain of the poset: its top j has no element
            # of the block above it, and the element i that j covers has one
            bmask = mask_of(block)
            by_height = {(up[v] & bmask).bit_count(): v for v in block}
            j, i = by_height[0], by_height.get(1)
            if i is not None and up[i] == vbit(j):
                break
        else:
            raise ClaimFailureError("no block satisfies the upper-set condition")

        peeled = _peel(cur, j)
        if peeled is None:
            raise ClaimFailureError(
                f"vertex {labels[j - 1]} failed the direct shedding re-check"
            )

        steps.append(
            ShedStep(
                vertices=labels,
                order=step_order,
                partition=tuple(
                    tuple(labels[c - 1] for c in block) for block in part
                ),
                t=t,
                shedding_vertex=labels[j - 1],
                lower_cover=labels[i - 1],
                upset_verified=True,
                shedding_verified=True,
            )
        )
        alive &= ~vbit(labels[j - 1])
        cur = peeled

    return SheddingCertificate(
        order=tuple(s.shedding_vertex for s in steps),
        cohesive_order=order,
        steps=tuple(steps),
        remaining=vertices_of(alive),
    )


def extract_shedding_order(
    g: Graph, order: Sequence[int] | None = None
) -> SheddingCertificate:
    """Constructive shedding order for a CM permutation graph, in its
    labels.

    Iteratively, from the vertices that are not isolated: build the
    comparability poset of the cohesive order, take the unique partition
    into maximal chains, find the first block whose lower-cover element
    i has upper set exactly {j}, verify the shedding property of j
    directly, delete j, and repeat until the graph is edgeless.  The
    first step rejects a graph that is not CM (not unmixed, or without a
    unique partition).  ``order``, when given, must list the vertices
    1..n once each, and the walk checks that it is cohesive on the
    vertices that are not isolated (``ValueError`` otherwise).
    """
    if order is not None:
        _check_order(g, order)
    else:
        order = find_cohesive_order(g)
        if order is None:
            raise NotPermutationGraphError("input admits no cohesive order")
    return _shedding_walk(*_strip(g), order)


def verify_shedding_certificate(g: Graph, cert: SheddingCertificate) -> bool:
    """Re-check every field of a certificate from the graph alone by
    replaying the walk in g's labels from its vertices that are not
    isolated.  A label that is not a vertex still present makes the
    check fail, never raise."""
    steps = cert.steps
    if cert.order != tuple(s.shedding_vertex for s in steps):
        return False
    if cert.cohesive_order != (steps[0].order if steps else ()):
        return False
    cur, alive = _strip(g)
    for step in steps:
        labels = vertices_of(alive)
        if step.vertices != labels or tuple(sorted(step.order)) != labels:
            return False
        try:
            up = comparability_poset(cur, _ranks(alive, step.order))
        except ValueError:  # the step's order is not cohesive
            return False

        # the recorded partition must be a partition into maximal cliques
        if tuple(sorted(v for block in step.partition for v in block)) != labels:
            return False
        for block in step.partition:
            bmask = mask_of(block)
            common = alive
            for v in block:
                if bmask & ~vbit(v) & ~g.adj[v]:
                    return False  # not a clique
                common &= g.adj[v]
            if common:
                return False  # extendable, so not a maximal clique

        if not 1 <= step.t <= len(step.partition):
            return False
        block = step.partition[step.t - 1]
        if step.shedding_vertex not in block or step.lower_cover not in block:
            return False
        i, j = _ranks(alive, (step.lower_cover, step.shedding_vertex))
        if up[i] != vbit(j):
            return False
        cur = _peel(cur, j)
        if cur is None:
            return False
        alive &= ~vbit(step.shedding_vertex)
    return cur.edge_count() == 0 and cert.remaining == vertices_of(alive)


def gap_witness_check(g: Graph) -> bool | None:
    """For a Gorenstein candidate with alpha >= 2: removing the closed
    neighbourhood of any independent set of size alpha - 2 must leave a
    graph that is structurally two disjoint edges.  None when alpha < 2
    (not applicable).

    Every independent set lies in a maximal one, so the sets checked are
    the distinct (alpha - 2)-subsets of the maximal independent sets; the
    rest is 2K_2 when it has four vertices, each with exactly one
    neighbour among them."""
    alpha = independence_invariants(g)[0]
    if alpha < 2:
        return None
    mis = maximal_independent_sets(g)
    faces = {mask_of(c) for s in mis for c in combinations(vertices_of(s), alpha - 2)}
    for fmask in faces:
        drop = fmask
        for v in vertices_of(fmask):
            drop |= g.adj[v]
        rest = g.full_mask & ~drop
        if rest.bit_count() != 4 or any(
            (g.adj[v] & rest).bit_count() != 1 for v in vertices_of(rest)
        ):
            return False
    return True


class GraphFacts:
    """The facts about one graph that the classifiers and the oracles
    share, each computed on first use and then kept.

    A cohesive order already known (a sweep's inversion labelling) can
    be passed in; otherwise it is recognised on first use, and it is
    None for a graph that is not a permutation graph.  A given order
    must list the vertices 1..n once each (``ValueError`` otherwise),
    and is trusted to be cohesive.  An instance holds one graph's facts
    only and is meant to be dropped with the graph.
    """

    def __init__(self, g: Graph, order: Sequence[int] | None = None) -> None:
        self.g = g
        if order is not None:
            _check_order(g, order)
            self.order = order

    @cached_property
    def order(self) -> Sequence[int] | None:
        return find_cohesive_order(self.g)

    @cached_property
    def invariants(self) -> InvariantSet:
        return compute_invariants(self.g)

    @cached_property
    def complex(self) -> SimplicialComplex:
        return independence_complex(self.g)

    @cached_property
    def stripped(self) -> tuple[Graph, int]:
        """``_strip`` of the graph: the graph without its isolated
        vertices, and the mask of the vertices it keeps."""
        return _strip(self.g)

    @cached_property
    def cm_partitions(self) -> tuple[bool, tuple[tuple[tuple[int, ...], ...], ...]]:
        """``cm_by_clique_partition`` of the graph."""
        if self.order is None:
            raise NotPermutationGraphError("input admits no cohesive order")
        return cm_by_clique_partition(self.g, order=self.order)

    @cached_property
    def cm(self) -> bool:
        """``cm_by_clique_partition`` of the graph, whose partition
        search runs only on an unmixed permutation graph: a mixed one is
        not CM whatever its partitions."""
        if self.order is not None and not independence_invariants(self.g)[2]:
            return False
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
        """Gorenstein: the stripped graph is a disjoint union of edges
        (an edgeless one leaves the polynomial ring, which counts)."""
        h = self.stripped[0]
        return all(h.degree(v) == 1 for v in h.vertices())

    @cached_property
    def nearly_gorenstein(self) -> bool:
        """Strictly nearly Gorenstein: not Gorenstein, and the stripped
        graph is complete or a path complement on at least 3 vertices."""
        h = self.stripped[0]
        if h.n < 3 or self.gorenstein:
            return False
        # K_k has C(k,2) edges and the complement of P_k has k - 1 fewer:
        # any other count is neither, and is settled without recognition
        full = h.n * (h.n - 1) // 2
        if h.edge_count() not in (full, full - h.n + 1):
            return False
        return self.structure.is_complete or self.structure.is_path_complement

    @cached_property
    def shedding(self) -> SheddingCertificate | None:
        """``extract_shedding_order`` of the graph and its cohesive order;
        None unless the graph is CM and has an edge."""
        h, alive = self.stripped
        if not (h.n and self.cm):
            return None
        # with nothing stripped, the walk's first CM test is the graph's own
        first = self.cm_partitions if h is self.g else None
        return _shedding_walk(h, alive, self.order, first)

    @cached_property
    def gap_lemma(self) -> bool | None:
        """``gap_witness_check`` of the stripped graph, whether or not
        the graph is Gorenstein: for a caller that selects its own."""
        return gap_witness_check(self.stripped[0])


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    edges: tuple[tuple[int, int], ...]
    is_permutation: bool
    cohesive_order: tuple[int, ...] | None
    isolated_vertices: tuple[int, ...]
    invariants: dict  # the InvariantSet fields and the sets as sorted vertex tuples
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
        return _to_json(self)


def _as_tuples(masks: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    # sorted as tuples: sorted as masks, {2} would come before {1, 3}
    return tuple(sorted(map(vertices_of, masks)))


def _report_invariants(facts: GraphFacts) -> dict:
    """The invariants of a report: the numbers, with the maximal
    independent sets and the minimal vertex covers as sorted vertex
    tuples, the form a report prints."""
    return {
        **asdict(facts.invariants),
        "max_independent_sets": _as_tuples(maximal_independent_sets(facts.g)),
        "min_vertex_covers": _as_tuples(independence_invariants(facts.g)[3]),
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
        witnesses = {
            "clique_partitions": [[list(b) for b in p] for p in parts],
            "shedding": facts.shedding.to_dict() if facts.shedding else None,
            "gap_witness": facts.gap_lemma if gorenstein else None,
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
        cohesive_order=order,
        isolated_vertices=g.isolated_vertices(),
        invariants=_report_invariants(facts),
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
