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
    is_linear_quotients_order,
    linear_quotients_order,
    path_graph,
    power_has_linear_quotients,
    vertex_splittable_test,
)
from bruteforce import check_split_tree


class TestMonomialIdeal:
    def test_minimal_generators(self):
        i = MonomialIdeal.from_supports(3, [(1, 2), (1,), (2, 3)])
        assert i.generator_sets() == ((1,), (2, 3))

    def test_unit_ideal(self):
        i = MonomialIdeal.from_supports(3, [(), (1, 2)])
        assert i.is_unit

    def test_zero_ideal(self):
        assert MonomialIdeal.from_supports(3, []).is_zero


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

        assert cover_ideal(graph_from_edges(3, [])).is_unit

    def test_generator_degrees_vs_unmixedness(self):
        # all generators have size tau exactly when the graph is unmixed
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                inv = compute_invariants(g)
                sizes = {len(s) for s in cover_ideal(g).generator_sets()}
                assert (sizes == {inv.tau}) == inv.unmixed


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


class TestPowers:
    def test_square_of_triangle_cover_ideal(self):
        ideal = cover_ideal(complete_graph(3))
        found, count = power_has_linear_quotients(ideal, 2)
        assert found and count == 6

    def test_power_gens_match_every_product(self):
        from permcm.ideals import _power_gens

        from bruteforce import brute_power_gens

        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                ideal = cover_ideal(graph_from_permutation(Permutation(p)))
                for k in (1, 2, 3):
                    expected = brute_power_gens(ideal.gens, ideal.n, k)
                    if len(expected) <= 20:
                        assert _power_gens(ideal, k) == expected

    def test_power_one_matches_base(self):
        ideal = cover_ideal(path_graph(4))
        found, count = power_has_linear_quotients(ideal, 1)
        assert found and count == 3
