#!/usr/bin/env python3
"""Inversion graphs, cohesive orders, and the comparability poset.

A permutation graph joins i < j exactly when j comes before i in the
one-line notation.  These graphs are recognized by searching for a
cohesive order, a relabelling under which "earlier and adjacent" is
transitive and edges have no unrelated vertex strictly between their
endpoints.
"""

from permcm import (
    Permutation,
    comparability_poset,
    complement,
    cycle_graph,
    find_cohesive_order,
    graph_from_permutation,
    maximal_cliques,
    verify_cohesive_order,
)
from permcm.graphs import vbit, vertices_of

# The running example: sigma = (2,4,5,1,3)
sigma = Permutation((2, 4, 5, 1, 3))
g = graph_from_permutation(sigma)
print(f"sigma = {sigma.values}")
print(f"G(sigma) edges: {g.edges()}")

# The natural labelling of an inversion graph is always cohesive.
print(f"identity order cohesive: {verify_cohesive_order(g, (1, 2, 3, 4, 5))}")

# The search returns the lexicographically first witness.
order = find_cohesive_order(g)
print(f"found order: {order}")

# Under a cohesive order, the maximal chains of the comparability poset
# are exactly the maximal cliques of the graph.  The poset is its
# up-sets: up[v] is the mask of the elements above v.  A maximal chain
# climbs from a minimal element through covers to a maximal one.  The
# clique search returns vertex masks; listed as sorted vertex tuples
# they match.
up = comparability_poset(g, order)


def chains_from(v):
    above = up[v]
    covers = [w for w in vertices_of(above)
              if not any(up[u] & vbit(w) for u in vertices_of(above))]
    return [(v,) + c for w in covers for c in chains_from(w)] or [(v,)]


minimal = [v for v in g.vertices() if not any(m & vbit(v) for m in up)]
chains = tuple(sorted(c for v in minimal for c in chains_from(v)))
print(f"maximal chains : {chains}")
print(f"maximal cliques: {tuple(sorted(map(vertices_of, maximal_cliques(g))))}")

# The 5-cycle admits no cohesive order: it is not a permutation graph.
print(f"C_5 order: {find_cohesive_order(cycle_graph(5))}")

# Reversing the one-line notation complements the graph.
h = graph_from_permutation(sigma.reversed())
print(f"G(reversed sigma) == complement: {h.edges() == complement(g).edges()}")
