from itertools import permutations

import pytest

from permcm import (
    CapExceededError,
    MonomialIdeal,
    Permutation,
    complete_graph,
    compute_invariants,
    cover_ideal,
    disjoint_edges,
    graph_from_permutation,
    independence_invariants,
    is_linear_quotients_order,
    linear_quotients_order,
    path_graph,
    vertex_splittable_test,
)
from permcm.graphs import vertices_of
from bruteforce import all_graphs, check_split_tree


class TestMonomialIdeal:
    def test_minimal_generators(self):
        i = MonomialIdeal.from_supports(3, [(1, 2), (1,), (2, 3)])
        assert i.generator_sets() == ((1,), (2, 3))

    def test_unit_ideal(self):
        i = MonomialIdeal.from_supports(3, [(), (1, 2)])
        assert i.gens == (0,)

    def test_zero_ideal(self):
        assert MonomialIdeal.from_supports(3, []).gens == ()


class TestCoverIdeal:
    def test_triangle(self):
        assert cover_ideal(complete_graph(3)).generator_sets() == (
            (1, 2),
            (1, 3),
            (2, 3),
        )

    def test_p4(self):
        assert cover_ideal(path_graph(4)).generator_sets() == ((1, 3), (2, 3), (2, 4))

    def test_2k2(self):
        assert cover_ideal(disjoint_edges(2)).generator_sets() == (
            (1, 3),
            (1, 4),
            (2, 3),
            (2, 4),
        )

    def test_edgeless_is_unit(self):
        from permcm import graph_from_edges

        for n in range(4):  # n = 0 too: the empty set is its one maximal clique
            assert cover_ideal(graph_from_edges(n, [])).gens == (0,)

    def test_generator_degrees_vs_unmixedness(self):
        # all generators have size tau exactly when the graph is unmixed
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                inv = compute_invariants(g)
                sizes = {len(s) for s in cover_ideal(g).generator_sets()}
                assert (sizes == {inv.tau}) == inv.unmixed

    def test_generators_are_the_minimal_vertex_covers(self):
        graphs = [g for n in range(6) for g in all_graphs(n)]
        graphs += [graph_from_permutation(Permutation(p)) for p in permutations(range(1, 8))]
        for g in graphs:
            covers = map(vertices_of, independence_invariants(g)[3])
            assert cover_ideal(g) == MonomialIdeal.from_supports(g.n, covers)


class TestLinearQuotients:
    def test_p4_example_order(self):
        ideal = cover_ideal(path_graph(4))
        # hand-checked order: colon ideals (x1), then (x3)
        assert is_linear_quotients_order(ideal, [(1, 3), (2, 3), (2, 4)])

    def test_p4_search_returns_valid_order(self):
        ideal = cover_ideal(path_graph(4))
        order = linear_quotients_order(ideal)
        assert order is not None
        assert is_linear_quotients_order(ideal, order)

    def test_2k2_product_structure(self):
        ideal = cover_ideal(disjoint_edges(2))
        order = linear_quotients_order(ideal)
        assert order is not None
        assert is_linear_quotients_order(ideal, order)

    def test_disjoint_supports_fail(self):
        ideal = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
        assert linear_quotients_order(ideal) is None
        assert not is_linear_quotients_order(ideal, [(1, 2), (3, 4)])
        assert not is_linear_quotients_order(ideal, [(3, 4), (1, 2)])

    def test_single_generator_trivial(self):
        ideal = MonomialIdeal.from_supports(3, [(1, 2, 3)])
        assert linear_quotients_order(ideal) == ((1, 2, 3),)

    def test_order_must_permute_generators(self):
        ideal = cover_ideal(path_graph(4))
        with pytest.raises(ValueError):
            is_linear_quotients_order(ideal, [(1, 3), (2, 3)])

    def test_search_results_always_validate(self):
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                ideal = cover_ideal(g)
                order = linear_quotients_order(ideal)
                if order is not None and len(order) > 1:
                    assert is_linear_quotients_order(ideal, order)

    def test_cap(self):
        gens = [(i,) for i in range(1, 22)]
        ideal = MonomialIdeal.from_supports(22, gens)
        with pytest.raises(CapExceededError):
            linear_quotients_order(ideal)


class TestVertexSplittable:
    def test_two_variables(self):
        tree = vertex_splittable_test(MonomialIdeal.from_supports(2, [(1,), (2,)]))
        assert tree is not None

    def test_p4_cover_ideal(self):
        ideal = cover_ideal(path_graph(4))
        tree = vertex_splittable_test(ideal)
        assert tree is not None
        assert check_split_tree(set(ideal.generator_sets()), tree)

    def test_disjoint_supports_not_splittable(self):
        ideal = MonomialIdeal.from_supports(4, [(1, 2), (3, 4)])
        assert vertex_splittable_test(ideal) is None

    def test_base_cases(self):
        assert vertex_splittable_test(MonomialIdeal.from_supports(2, [])) is not None
        assert vertex_splittable_test(MonomialIdeal.from_supports(2, [(1, 2)])) is not None
        assert vertex_splittable_test(MonomialIdeal.from_supports(2, [()])) is not None

    def test_witnesses_validate(self):
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                ideal = cover_ideal(g)
                tree = vertex_splittable_test(ideal)
                if tree is not None:
                    assert check_split_tree(set(ideal.generator_sets()), tree)

    def test_splittable_implies_linear_quotients(self):
        # one direction of the known implication, on the unmixed corpus
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                if not compute_invariants(g).unmixed:
                    continue
                ideal = cover_ideal(g)
                if vertex_splittable_test(ideal) is not None:
                    assert linear_quotients_order(ideal) is not None
