"""Classification of permutation graphs by the commutative algebra of
their edge ideals, with every theorem-driven classifier cross-checked
against independent brute-force oracles at desk scale."""

from .caps import CapExceededError, get_cap
from .classify import (
    ClaimFailureError,
    ClassificationReport,
    GraphFacts,
    NotPermutationGraphError,
    SheddingCertificate,
    ShedStep,
    classify,
    cm_by_clique_partition,
    extract_shedding_order,
    gap_witness_check,
    verify_shedding_certificate,
)
from .cohesive import (
    comparability_poset,
    find_cohesive_order,
    maximal_clique_partitions,
    maximal_cliques,
    verify_cohesive_order,
)
from .complexes import (
    BettiTable,
    HilbertData,
    SimplicialComplex,
    hilbert_data,
    hochster_betti_table,
    independence_complex,
    is_vertex_decomposable,
    reduced_homology_ranks,
    reisner_cm_test,
)
from .graphs import (
    Graph,
    Permutation,
    StructureFlags,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_edges,
    graph_from_edges,
    graph_from_json,
    graph_from_permutation,
    graph_to_json,
    induced_subgraph,
    is_chordal,
    path_graph,
    recognize_structure,
)
from .ideals import (
    MonomialIdeal,
    cover_ideal,
    is_linear_quotients_order,
    linear_quotients_order,
    vertex_splittable_test,
)
from .invariants import (
    InvariantSet,
    compute_invariants,
    independence_invariants,
    matching_invariants,
    maximal_independent_sets,
)

__version__ = "0.1.0"
