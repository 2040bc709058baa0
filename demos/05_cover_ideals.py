#!/usr/bin/env python3
"""Cover ideals: linear quotients orders and vertex splittings.

The cover ideal J(G) is generated by the minimal vertex covers.  For an
unmixed permutation graph, J(G) is vertex splittable exactly when it
has linear quotients exactly when G is Cohen-Macaulay, so the two
searches double as another CM detector.
"""

import json

from permcm import (
    MonomialIdeal,
    cover_ideal,
    graph_from_edges,
    is_linear_quotients_order,
    linear_quotients_order,
    path_graph,
    vertex_splittable_test,
)

p4 = path_graph(4)
J = cover_ideal(p4)
print(f"J(P_4) generators: {J.generator_sets()}")

order = linear_quotients_order(J)
print(f"linear quotients order: {order}")
print(f"order validates: {is_linear_quotients_order(J, order)}")

tree = vertex_splittable_test(J)
print(f"splitting tree: {json.dumps(tree)}")

# A non-example: two generators with disjoint supports admit neither.
bad = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
print(f"(x1x2, x3x4) linear quotients: {linear_quotients_order(bad)}")
print(f"(x1x2, x3x4) splittable: {vertex_splittable_test(bad)}")

# The non-CM chorded 5-cycle: its cover ideal fails both searches.
chorded = graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5), (1, 4)])
Jc = cover_ideal(chorded)
print(f"\nchorded C_5 covers: {Jc.generator_sets()}")
print(f"linear quotients: {linear_quotients_order(Jc)}")
print(f"splittable: {vertex_splittable_test(Jc)}")
