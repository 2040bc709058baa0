#!/usr/bin/env python3
"""The brute-force algebraic toolbox: homology, Reisner, Hochster, Hilbert.

The independence complex of a graph carries all the Stanley-Reisner
data of its edge ideal.  Everything below is exact rational arithmetic.
"""

from permcm import (
    disjoint_edges,
    hilbert_data,
    hochster_betti_table,
    independence_complex,
    path_graph,
    reduced_homology_ranks,
    reisner_cm_test,
)

# Two disjoint edges: the independence complex is a 4-cycle, a circle.
g = disjoint_edges(2)
c = independence_complex(g)
print(f"facets of the complex: {c.facet_sets()}")
print(f"reduced homology: {reduced_homology_ranks(c)}  (rank 1 in dim 1: a circle)")

# Reisner's criterion: homology of every link vanishes below top degree.
print(f"Cohen-Macaulay (Reisner): {reisner_cm_test(c)}")

# Hilbert data: the edge ideal of 2K_2 is a complete intersection of
# two quadrics, so the h-vector is (1,2,1) and the a-invariant is 0.
hd = hilbert_data(c)
print(f"f = {hd.f}, h = {hd.h}, Krull dim = {hd.d}, a-invariant = {hd.a}")
print(f"Hilbert function on [0,4]: {hd.hf}")
print(f"Hilbert polynomial at 0..4: {[hd.hp_value(t) for t in range(5)]}")
print(f"Hilbertian: {hd.hilbertian}  (a = 0 forces disagreement at t = 0)")

# Hochster's formula gives the full graded Betti table of S/I(G).
bt = hochster_betti_table(c)
print(f"Betti entries: {bt.entries}")
print(f"reg = {bt.reg}, pd = {bt.pd}, depth = {bt.depth}, type = {bt.type}")
print(f"type 1 means Gorenstein: {bt.type == 1}")

# Contrast with the path P_4: Cohen-Macaulay of type 2, so not Gorenstein.
cp = independence_complex(path_graph(4))
btp = hochster_betti_table(cp)
print(f"\nP_4: reg = {btp.reg}, type = {btp.type}, a = {hilbert_data(cp).a}")
