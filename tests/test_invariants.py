from itertools import permutations

import pytest

from permcm import (
    CapExceededError,
    Permutation,
    complete_graph,
    compute_invariants,
    disjoint_edges,
    graph_from_edges,
    graph_from_permutation,
    hilbert_data,
    independence_complex,
    independence_invariants,
    matching_invariants,
    maximal_independent_sets,
    path_graph,
)
from bruteforce import (
    all_graphs,
    brute_induced_matching_number,
    brute_matching_number,
    brute_maximal_independent_sets,
    brute_minimal_vertex_covers,
    order_reference,
    pairwise_matching_relations,
    serial_permutation_classes,
)
from permcm.classes import class_records
from permcm.classify import GraphFacts
from permcm.cohesive import find_cohesive_order
from permcm.graphs import mask_of, vertices_of
from permcm.invariants import _matching_relations


class TestMaximalIndependentSets:
    def test_complete_graph_singletons(self):
        assert maximal_independent_sets(complete_graph(4)) == (0b1, 0b10, 0b100, 0b1000)

    def test_p4(self):
        assert maximal_independent_sets(path_graph(4)) == tuple(
            map(mask_of, ((1, 3), (1, 4), (2, 4)))
        )

    def test_remark_graph(self, remark_graph):
        assert maximal_independent_sets(remark_graph) == tuple(
            map(mask_of, ((1, 3), (2, 4), (3, 5)))
        )

    def test_matches_brute_force(self):
        for n in range(6):
            for g in all_graphs(n):
                sets = maximal_independent_sets(g)
                assert list(sets) == sorted(set(sets))
                assert set(map(vertices_of, sets)) == brute_maximal_independent_sets(g)

    def test_a_kept_enumeration_meets_the_current_cap(self, monkeypatch):
        g = disjoint_edges(3)  # 8 maximal independent sets
        assert len(maximal_independent_sets(g)) == 8
        monkeypatch.setenv("PERMCM_CAPS", "independent_sets=5")
        with pytest.raises(CapExceededError):
            maximal_independent_sets(g)

    def test_a_truncated_enumeration_is_not_kept(self, monkeypatch):
        g = disjoint_edges(3)
        monkeypatch.setenv("PERMCM_CAPS", "independent_sets=5")
        with pytest.raises(CapExceededError):
            maximal_independent_sets(g)
        monkeypatch.delenv("PERMCM_CAPS")
        assert len(maximal_independent_sets(g)) == 8


class TestIndependenceInvariants:
    def test_read_off_the_sets_once_per_graph(self, monkeypatch):
        # the classifier's facts, the numeric invariants, the partition
        # test and the cover ideal all read the one memo entry, so each
        # graph's sets are enumerated once
        from permcm import GraphFacts, classify, complement, cover_ideal
        import permcm.invariants

        calls = []
        enumerate_cliques = permcm.invariants.maximal_cliques

        def counted(comp, limit=None):
            calls.append(complement(comp))  # the graph whose sets these are
            return enumerate_cliques(comp, limit=limit)

        monkeypatch.setattr(permcm.invariants, "maximal_cliques", counted)
        g = graph_from_permutation(Permutation((2, 1, 4, 3, 6, 5)))  # 3K_2, unmixed
        facts = GraphFacts(g)
        assert facts.cm
        assert facts.invariants == compute_invariants(g)
        assert maximal_independent_sets(g) and independence_invariants(g)
        cover_ideal(g)
        assert calls == [g]
        # a report also reads the sets of the graphs its shedding walk
        # peels off, each of them once
        h = graph_from_permutation(Permutation((3, 1, 4, 2)))  # P_4
        classify(h)
        assert calls[:2] == [g, h] and len(set(calls)) == len(calls)

    def test_a_kept_tuple_meets_the_current_cap(self, monkeypatch):
        g = disjoint_edges(3)  # 8 minimal vertex covers
        assert len(independence_invariants(g)[3]) == 8
        monkeypatch.setenv("PERMCM_CAPS", "independent_sets=5")
        with pytest.raises(CapExceededError):
            independence_invariants(g)

    def test_complete(self):
        alpha, tau, unmixed, covers = independence_invariants(complete_graph(5))
        assert (alpha, tau, unmixed) == (1, 4, True)
        assert len(covers) == 5

    def test_p4(self):
        alpha, tau, unmixed, _ = independence_invariants(path_graph(4))
        assert (alpha, tau, unmixed) == (2, 2, True)

    def test_p3_mixed(self):
        alpha, tau, unmixed, _ = independence_invariants(path_graph(3))
        assert (alpha, tau) == (2, 1)
        assert not unmixed

    def test_alpha_plus_tau(self):
        for g in all_graphs(4):
            alpha, tau, _, _ = independence_invariants(g)
            assert alpha + tau == g.n

    def test_cover_complement_duality(self):
        # complements of maximal independent sets are exactly the minimal
        # vertex covers; exhaustive on all small graphs, then on the
        # inversion graphs of S_6
        for n in range(1, 6):
            for g in all_graphs(n):
                _, _, _, covers = independence_invariants(g)
                assert set(map(vertices_of, covers)) == brute_minimal_vertex_covers(g)
        for p in permutations(range(1, 7)):
            g = graph_from_permutation(Permutation(p))
            _, _, _, covers = independence_invariants(g)
            assert set(map(vertices_of, covers)) == brute_minimal_vertex_covers(g)


class TestMatching:
    def test_two_disjoint_edges(self):
        assert matching_invariants(disjoint_edges(2)) == (2, 2)

    def test_p4(self):
        assert matching_invariants(path_graph(4)) == (2, 1)

    def test_complete_graphs(self):
        for n in range(2, 7):
            assert matching_invariants(complete_graph(n)) == (n // 2, 1)

    def test_matches_brute_force(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                m, im = matching_invariants(g)
                assert m == brute_matching_number(g)
                assert im == brute_induced_matching_number(g)

    def test_relations_against_the_pairwise_loop(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                assert _matching_relations(g) == pairwise_matching_relations(g)
        classes = serial_permutation_classes(8)
        assert len(classes) == 5699
        for members in classes:
            g = graph_from_permutation(Permutation(members[0]))
            assert _matching_relations(g) == pairwise_matching_relations(g)

    def test_im_le_m_le_tau(self):
        for g in all_graphs(5):
            inv = compute_invariants(g)
            assert inv.induced_matching <= inv.matching <= inv.tau


class TestInvariantSet:
    def test_remark_graph(self, remark_graph):
        inv = compute_invariants(remark_graph)
        assert inv.alpha == 2 and inv.tau == 3
        assert inv.unmixed
        assert inv.matching == 2 and inv.induced_matching == 1

    def test_unmixed_iff_equal_sizes(self):
        g = graph_from_edges(4, [(1, 2), (1, 3), (1, 4)])  # star
        inv = compute_invariants(g)
        assert not inv.unmixed  # {2,3,4} and {1}


def _package_facts(g, order):
    """What ``order_reference`` reads off a cohesive order, by the
    package's routes: the memo's sets, the clique-partition search and
    the complex's Hilbert data."""
    alpha, tau, unmixed, covers = independence_invariants(g)
    hd = hilbert_data(independence_complex(g))
    return {
        "alpha": alpha, "tau": tau, "unmixed": unmixed, "sets": len(covers),
        "cm": GraphFacts(g, order).cm, "f": hd.f, "a": hd.a, "hilbertian": hd.hilbertian,
    }


class TestOrderReference:
    def test_every_class_up_to_eight(self):
        # each class's representative, under its inversion labelling,
        # whose identity order is cohesive
        verdicts = set()
        for n in range(1, 9):
            for _, _, rep in class_records(n):
                g = graph_from_permutation(Permutation(rep))
                order = tuple(range(1, n + 1))
                facts = _package_facts(g, order)
                assert order_reference(g, order) == facts
                verdicts.add((facts["unmixed"], facts["cm"], facts["hilbertian"]))
        assert {(True, True, True), (True, False, False), (False, False, False)} <= verdicts

    def test_every_permutation_up_to_six(self):
        # and under the order recognition finds, which is another one
        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                facts = _package_facts(g, tuple(range(1, n + 1)))
                for order in (tuple(range(1, n + 1)), find_cohesive_order(g)):
                    assert order_reference(g, order) == facts
