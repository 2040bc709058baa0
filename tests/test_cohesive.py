import hashlib
import json
import random
from itertools import permutations

import pytest

from permcm import (
    Permutation,
    comparability_poset,
    complete_graph,
    cycle_graph,
    disjoint_edges,
    find_cohesive_order,
    graph_from_edges,
    graph_from_permutation,
    maximal_clique_partitions,
    independence_invariants,
    maximal_cliques,
    path_graph,
    verify_cohesive_order,
)
from permcm.graphs import mask_of, vbit, vertices_of
from bruteforce import (
    all_graphs,
    backtrack_cohesive_order,
    brute_maximal_cliques,
    brute_verify_cohesive_order,
    maximal_chains,
    serial_permutation_classes,
)


def _scrambled_permutation_graph(n, rng):
    """Inversion graph of a random permutation under a random relabelling."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    g = graph_from_permutation(Permutation(tuple(perm)))
    return graph_from_edges(n, [(sigma[u - 1], sigma[v - 1]) for u, v in g.edges()])


class TestVerify:
    def test_two_disjoint_edges_identity(self):
        assert verify_cohesive_order(disjoint_edges(2), (1, 2, 3, 4))

    def test_p3_centered_at_3(self):
        g = graph_from_edges(3, [(1, 3), (2, 3)])
        assert verify_cohesive_order(g, (1, 2, 3))

    def test_c5_all_orders_fail(self):
        g = cycle_graph(5)
        assert not any(
            verify_cohesive_order(g, p) for p in permutations(range(1, 6))
        )

    def test_path_natural_labels_fail_transitivity(self):
        assert not verify_cohesive_order(path_graph(3), (1, 2, 3))

    def test_not_a_permutation_of_vertices(self):
        with pytest.raises(ValueError):
            verify_cohesive_order(path_graph(3), (1, 2, 2))

    def test_matches_triple_check(self):
        for n in range(1, 5):
            for g in all_graphs(n):
                for p in permutations(range(1, n + 1)):
                    assert verify_cohesive_order(g, p) == brute_verify_cohesive_order(g, p)
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randint(5, 9)
            g = _scrambled_permutation_graph(n, rng)
            p = list(range(1, n + 1))
            rng.shuffle(p)
            assert verify_cohesive_order(g, p) == brute_verify_cohesive_order(g, p)
            found = find_cohesive_order(g)
            assert brute_verify_cohesive_order(g, found)


class TestFind:
    def test_complete_graphs_identity(self):
        for n in range(1, 6):
            order = find_cohesive_order(complete_graph(n))
            assert order == tuple(range(1, n + 1))

    def test_c5_has_none(self):
        assert find_cohesive_order(cycle_graph(5)) is None

    def test_remark_graph_has_one(self, remark_graph):
        order = find_cohesive_order(remark_graph)
        assert order is not None
        assert verify_cohesive_order(remark_graph, order)
        # directly checkable witness (relabels the graph to the inversion
        # graph of (4,5,2,1,3))
        assert verify_cohesive_order(remark_graph, (1, 5, 3, 2, 4))

    def test_inversion_graphs_have_identity_order(self):
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                assert verify_cohesive_order(g, tuple(range(1, n + 1)))
                assert find_cohesive_order(g) is not None

    def test_search_matches_brute_force(self):
        # all labelled graphs on 4 vertices against trying all 24 orders
        for g in all_graphs(4):
            brute = any(
                verify_cohesive_order(g, p) for p in permutations(range(1, 5))
            )
            found = find_cohesive_order(g)
            assert (found is not None) == brute
            if found is not None:
                assert verify_cohesive_order(g, found)

    def test_c6_has_none(self):
        assert find_cohesive_order(cycle_graph(6)) is None


class TestRecognitionOracle:
    """The polynomial recogniser against the backtracking search: both
    must return the same witness, the lexicographically first order."""

    def test_all_graphs_up_to_5(self):
        for n in range(6):
            for g in all_graphs(n):
                assert find_cohesive_order(g) == backtrack_cohesive_order(g)

    def test_seeded_sample_n6(self):
        rng = random.Random(6)
        pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
        for _ in range(600):
            bits = rng.getrandbits(len(pairs))
            g = graph_from_edges(6, [p for k, p in enumerate(pairs) if bits >> k & 1])
            assert find_cohesive_order(g) == backtrack_cohesive_order(g)

    def test_relabelled_permutation_graphs(self):
        rng = random.Random(7)
        for n, count in ((7, 80), (8, 70), (9, 30), (10, 20)):
            for _ in range(count):
                g = _scrambled_permutation_graph(n, rng)
                found = find_cohesive_order(g)
                assert found is not None
                assert found == backtrack_cohesive_order(g)

    def test_random_graphs(self):
        rng = random.Random(8)
        rejected = 0
        for _ in range(100):
            n = rng.randint(7, 8)
            density = rng.uniform(0.3, 0.7)
            g = graph_from_edges(n, [
                (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                if rng.random() < density
            ])
            found = find_cohesive_order(g)
            assert found == backtrack_cohesive_order(g)
            rejected += found is None
        assert rejected >= 30


class TestLargeInputs:
    """Inputs far beyond an exponential search: recognition must stay
    polynomial, and C_14 must be rejected, not searched."""

    @pytest.mark.parametrize("n", [16, 100])
    def test_paths(self, n):
        g = path_graph(n)
        found = find_cohesive_order(g)
        assert found is not None and verify_cohesive_order(g, found)
        assert brute_verify_cohesive_order(g, found)

    def test_scrambled_permutation_graph_n100(self):
        g = _scrambled_permutation_graph(100, random.Random(100))
        found = find_cohesive_order(g)
        assert found is not None and verify_cohesive_order(g, found)

    def test_c14_has_none(self):
        assert find_cohesive_order(cycle_graph(14)) is None


class TestPoset:
    """The poset is its up-sets: ``up[v]`` is the mask of the elements
    strictly above v."""

    def test_k3_chain(self):
        up = comparability_poset(complete_graph(3), (1, 2, 3))
        assert up == (0, mask_of((2, 3)), vbit(3), 0)
        assert maximal_chains(up) == ((1, 2, 3),)

    def test_two_disjoint_edges(self):
        up = comparability_poset(disjoint_edges(2), (1, 2, 3, 4))
        assert up == (0, vbit(2), 0, vbit(4), 0)
        assert maximal_chains(up) == ((1, 2), (3, 4))

    def test_rejects_non_cohesive_order(self):
        with pytest.raises(ValueError):
            comparability_poset(path_graph(3), (1, 2, 3))

    def test_transitive_and_irreflexive(self):
        for p in permutations(range(1, 6)):
            g = graph_from_permutation(Permutation(p))
            up = comparability_poset(g, tuple(range(1, 6)))
            for u in range(1, 6):
                assert not up[u] & vbit(u)
                for v in vertices_of(up[u]):
                    assert not up[v] & vbit(u)
                    assert not up[v] & ~up[u]  # above v is above u

    def test_covers_have_nothing_between(self):
        # the steps of the maximal chains are exactly the pairs u < v
        # with no element above u and below v
        for p in permutations(range(1, 7)):
            g = graph_from_permutation(Permutation(p))
            up = comparability_poset(g, tuple(range(1, 7)))
            covers = {
                (u, v)
                for u in range(1, 7)
                for v in vertices_of(up[u])
                if not any(up[w] & vbit(v) for w in vertices_of(up[u]))
            }
            steps = {pair for c in maximal_chains(up) for pair in zip(c, c[1:])}
            assert steps == covers, p

    def test_maximal_chains_equal_maximal_cliques(self):
        # for every cohesively ordered graph on up to 6 vertices
        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                up = comparability_poset(g, tuple(range(1, n + 1)))
                chains = {mask_of(c) for c in maximal_chains(up)}
                assert chains == set(maximal_cliques(g))


class TestMaximalCliques:
    def test_k4(self):
        assert maximal_cliques(complete_graph(4)) == (mask_of((1, 2, 3, 4)),)

    def test_p4(self):
        assert maximal_cliques(path_graph(4)) == tuple(
            map(mask_of, ((1, 2), (2, 3), (3, 4)))
        )

    def test_remark_graph(self, remark_graph):
        # increasing as masks, not as vertex tuples
        assert maximal_cliques(remark_graph) == tuple(
            map(mask_of, ((2, 3), (3, 4), (1, 2, 5), (1, 4, 5)))
        )

    def test_matches_brute_force(self):
        for n in range(6):
            for g in all_graphs(n):
                cliques = maximal_cliques(g)
                assert list(cliques) == sorted(set(cliques))
                assert set(map(vertices_of, cliques)) == brute_maximal_cliques(g)


class TestPartitions:
    def test_complete_graph_single_block(self):
        parts = maximal_clique_partitions(complete_graph(4), r=1)
        assert parts == (((1, 2, 3, 4),),)

    def test_p4_unique(self):
        parts = maximal_clique_partitions(path_graph(4), r=2)
        assert parts == (((1, 2), (3, 4)),)

    def test_remark_graph_two(self, remark_graph):
        parts = maximal_clique_partitions(remark_graph, r=2)
        assert parts == (
            ((1, 2, 5), (3, 4)),
            ((1, 4, 5), (2, 3)),
        )

    def test_zero_blocks_cover_only_the_empty_vertex_set(self):
        # the 0-vertex graph has alpha = 0 and one partition, the empty
        # one; no graph with a vertex splits into zero cliques
        assert maximal_clique_partitions(graph_from_edges(0, []), r=0) == ((),)
        assert maximal_clique_partitions(path_graph(3), r=0) == ()
        with pytest.raises(ValueError, match="r must be nonnegative"):
            maximal_clique_partitions(path_graph(3), r=-1)

    def test_limit_early_exit(self):
        parts = maximal_clique_partitions(remark := cycle_graph(4), r=2, limit=1)
        assert len(parts) == 1
        assert len(maximal_clique_partitions(remark, r=2, limit=None)) == 2

    def test_blocks_are_maximal_cliques_and_cover(self):
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                cliques = set(map(vertices_of, maximal_cliques(g)))
                for part in maximal_clique_partitions(g, r=2, limit=None):
                    assert all(b in cliques for b in part)
                    covered = 0
                    for b in part:
                        bmask = sum(vbit(v) for v in b)
                        assert not covered & bmask
                        covered |= bmask
                    assert covered == g.full_mask

    def test_a_limited_search_branches_in_vertex_list_order(self):
        # with three or more partitions, which two a search limited to 2
        # finds depends on the order it tries the cliques in: that of
        # their sorted vertex lists, not of their masks
        g = graph_from_permutation(Permutation((5, 6, 3, 4, 1, 2)))
        assert maximal_clique_partitions(g, r=2) == (
            ((1, 3, 5), (2, 4, 6)),
            ((1, 3, 6), (2, 4, 5)),
        )
        # SHA-256 over the limited search at r = alpha on every S_7
        # class, recorded while the clique search returned vertex tuples
        h = hashlib.sha256()
        for members in serial_permutation_classes(7):
            g = graph_from_permutation(Permutation(members[0]))
            parts = maximal_clique_partitions(g, r=independence_invariants(g)[0])
            h.update(json.dumps(parts).encode() + b"\n")
        assert h.hexdigest() == (
            "e7577d13b94ce8a83e2aaf1b566aeb375570354834d460e905d02b0bad893e0c"
        )

    def test_deterministic(self):
        g = graph_from_permutation(Permutation((4, 5, 2, 1, 3)))
        first = maximal_clique_partitions(g, r=2, limit=None)
        second = maximal_clique_partitions(g, r=2, limit=None)
        assert first == second

    def test_exact_cover_matches_brute_force(self):
        def brute(g, r):
            cliques = [vertices_of(c) for c in maximal_cliques(g)]
            found = set()
            verts = set(g.vertices())

            def rec(remaining, blocks):
                if not remaining:
                    if len(blocks) == r:
                        found.add(tuple(sorted(blocks)))
                    return
                if len(blocks) >= r:
                    return
                v = min(remaining)
                for c in cliques:
                    if v in c and set(c) <= remaining:
                        rec(remaining - set(c), blocks + [tuple(sorted(c))])

            rec(verts, [])
            return found

        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                for r in range(1, n + 1):
                    mine = set(maximal_clique_partitions(g, r=r, limit=None))
                    assert mine == brute(g, r)
