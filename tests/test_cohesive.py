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
    maximal_chains,
    maximal_clique_partitions,
    maximal_cliques,
    path_graph,
    verify_cohesive_order,
)
from permcm.graphs import vbit
from bruteforce import (
    all_graphs,
    backtrack_cohesive_order,
    brute_maximal_cliques,
    brute_verify_cohesive_order,
)


def _witness(g):
    found = find_cohesive_order(g)
    return None if found is None else found.order


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
            found = find_cohesive_order(g).order
            assert brute_verify_cohesive_order(g, found)


class TestFind:
    def test_complete_graphs_identity(self):
        for n in range(1, 6):
            order = find_cohesive_order(complete_graph(n))
            assert order is not None and order.order == tuple(range(1, n + 1))

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
                assert _witness(g) == backtrack_cohesive_order(g)

    def test_seeded_sample_n6(self):
        rng = random.Random(6)
        pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
        for _ in range(600):
            bits = rng.getrandbits(len(pairs))
            g = graph_from_edges(6, [p for k, p in enumerate(pairs) if bits >> k & 1])
            assert _witness(g) == backtrack_cohesive_order(g)

    def test_relabelled_permutation_graphs(self):
        rng = random.Random(7)
        for n, count in ((7, 80), (8, 70), (9, 30), (10, 20)):
            for _ in range(count):
                g = _scrambled_permutation_graph(n, rng)
                found = _witness(g)
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
            found = _witness(g)
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
        assert brute_verify_cohesive_order(g, found.order)

    def test_scrambled_permutation_graph_n100(self):
        g = _scrambled_permutation_graph(100, random.Random(100))
        found = find_cohesive_order(g)
        assert found is not None and verify_cohesive_order(g, found)

    def test_c14_has_none(self):
        assert find_cohesive_order(cycle_graph(14)) is None


class TestPoset:
    def test_k3_chain(self):
        p = comparability_poset(complete_graph(3), (1, 2, 3))
        assert p.less(1, 2) and p.less(2, 3) and p.less(1, 3)
        assert p.covers(1, 2) and p.covers(2, 3) and not p.covers(1, 3)

    def test_two_disjoint_edges(self):
        p = comparability_poset(disjoint_edges(2), (1, 2, 3, 4))
        assert p.less(1, 2) and p.less(3, 4)
        assert not p.less(1, 3) and not p.less(1, 4)
        assert maximal_chains(p) == ((1, 2), (3, 4))

    def test_rejects_non_cohesive_order(self):
        with pytest.raises(ValueError):
            comparability_poset(path_graph(3), (1, 2, 3))

    def test_transitive_and_irreflexive(self):
        for p in permutations(range(1, 6)):
            g = graph_from_permutation(Permutation(p))
            poset = comparability_poset(g, tuple(range(1, 6)))
            for u in range(1, 6):
                assert not poset.less(u, u)
                for v in range(1, 6):
                    if not poset.less(u, v):
                        continue
                    assert not poset.less(v, u)
                    for w in range(1, 6):
                        if poset.less(v, w):
                            assert poset.less(u, w)

    def test_maximal_chains_equal_maximal_cliques(self):
        # for every cohesively ordered graph on up to 6 vertices
        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                poset = comparability_poset(g, tuple(range(1, n + 1)))
                chains = {tuple(sorted(c)) for c in maximal_chains(poset)}
                assert chains == set(maximal_cliques(g))


class TestMaximalCliques:
    def test_k4(self):
        assert maximal_cliques(complete_graph(4)) == ((1, 2, 3, 4),)

    def test_p4(self):
        assert maximal_cliques(path_graph(4)) == ((1, 2), (2, 3), (3, 4))

    def test_remark_graph(self, remark_graph):
        assert maximal_cliques(remark_graph) == (
            (1, 2, 5),
            (1, 4, 5),
            (2, 3),
            (3, 4),
        )

    def test_matches_brute_force(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert set(maximal_cliques(g)) == brute_maximal_cliques(g)


class TestPartitions:
    def test_complete_graph_single_block(self):
        parts = maximal_clique_partitions(complete_graph(4), r=1)
        assert len(parts) == 1 and parts[0].blocks == ((1, 2, 3, 4),)

    def test_p4_unique(self):
        parts = maximal_clique_partitions(path_graph(4), r=2)
        assert len(parts) == 1 and parts[0].blocks == ((1, 2), (3, 4))

    def test_remark_graph_two(self, remark_graph):
        parts = maximal_clique_partitions(remark_graph, r=2)
        assert [p.blocks for p in parts] == [
            ((1, 2, 5), (3, 4)),
            ((1, 4, 5), (2, 3)),
        ]

    def test_limit_early_exit(self):
        parts = maximal_clique_partitions(remark := cycle_graph(4), r=2, limit=1)
        assert len(parts) == 1
        assert len(maximal_clique_partitions(remark, r=2, limit=None)) == 2

    def test_blocks_are_maximal_cliques_and_cover(self):
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                cliques = set(maximal_cliques(g))
                for part in maximal_clique_partitions(g, r=2, limit=None):
                    assert all(b in cliques for b in part.blocks)
                    covered = 0
                    for b in part.blocks:
                        bmask = sum(vbit(v) for v in b)
                        assert not covered & bmask
                        covered |= bmask
                    assert covered == g.full_mask

    def test_annotation_with_poset(self):
        g = disjoint_edges(2)
        poset = comparability_poset(g, (1, 2, 3, 4))
        (part,) = maximal_clique_partitions(g, r=2, poset=poset)
        assert part.tops == (2, 4)
        assert part.lower_covers == (1, 3)

    def test_deterministic(self):
        g = graph_from_permutation(Permutation((4, 5, 2, 1, 3)))
        first = maximal_clique_partitions(g, r=2, limit=None)
        second = maximal_clique_partitions(g, r=2, limit=None)
        assert first == second

    def test_exact_cover_matches_brute_force(self):
        def brute(g, r):
            cliques = maximal_cliques(g)
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
                    mine = {
                        pt.blocks
                        for pt in maximal_clique_partitions(g, r=r, limit=None)
                    }
                    assert mine == brute(g, r)
