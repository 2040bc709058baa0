import json

import pytest

from permcm import (
    Graph,
    Permutation,
    complement,
    complete_graph,
    cycle_graph,
    delete_closed_neighborhood,
    delete_vertex,
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
from bruteforce import all_graphs, brute_is_chordal


class TestPermutation:
    def test_valid(self):
        assert Permutation((2, 4, 5, 1, 3)).n == 5

    @pytest.mark.parametrize("values", [(1, 1), (0, 1), (1, 3), (2,)])
    def test_invalid(self, values):
        with pytest.raises(ValueError):
            Permutation(values)


class TestGraphFromPermutation:
    def test_running_example(self):
        g = graph_from_permutation(Permutation((2, 4, 5, 1, 3)))
        assert g.edges() == ((1, 2), (1, 4), (1, 5), (3, 4), (3, 5))

    def test_identity_is_edgeless(self):
        g = graph_from_permutation(Permutation((1, 2, 3, 4)))
        assert g.edges() == ()

    def test_reversal_is_complete(self):
        g = graph_from_permutation(Permutation((4, 3, 2, 1)))
        assert g.edge_count() == 6

    def test_reversed_word_gives_complement(self):
        # exhaustive over S_n for n <= 6
        from itertools import permutations

        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                h = graph_from_permutation(Permutation(p).reversed())
                assert complement(g).edges() == h.edges()


class TestComplement:
    def test_complete_to_edgeless(self):
        assert complement(complete_graph(4)).edges() == ()

    def test_p4_self_complementary(self):
        # complement of 1-2-3-4 is the path 2-4-1-3
        assert complement(path_graph(4)).edges() == ((1, 3), (1, 4), (2, 4))

    def test_c4_to_two_edges(self):
        c = complement(cycle_graph(4))
        assert c.edges() == ((1, 3), (2, 4))
        assert all(c.degree(v) == 1 for v in c.vertices())

    def test_involution_exhaustive(self):
        for n in range(0, 5):
            for g in all_graphs(n):
                assert complement(complement(g)).edges() == g.edges()


class TestSubgraphs:
    def test_delete_closed_neighborhood_p4(self):
        sub, mapping = delete_closed_neighborhood(path_graph(4), 1)
        assert sub.n == 2 and sub.edges() == ((1, 2),)
        assert mapping == {3: 1, 4: 2}

    def test_induced_k5(self):
        sub, _ = induced_subgraph(complete_graph(5), {1, 2, 3})
        assert sub.edges() == ((1, 2), (1, 3), (2, 3))

    def test_delete_vertex_2k2(self):
        sub, mapping = delete_vertex(disjoint_edges(2), 1)
        assert sub.n == 3 and sub.edges() == ((2, 3),)
        assert sub.isolated_vertices() == (1,)
        assert mapping == {2: 1, 3: 2, 4: 3}

    def test_neighborhood_never_retained(self):
        for g in all_graphs(4):
            for v in g.vertices():
                sub, mapping = delete_closed_neighborhood(g, v)
                dropped = set(g.neighbors(v)) | {v}
                assert dropped.isdisjoint(mapping)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            induced_subgraph(path_graph(3), {4})


class TestRecognizers:
    def test_three_disjoint_edges(self):
        flags = recognize_structure(disjoint_edges(3))
        assert flags.is_disjoint_union_of_edges
        assert not flags.is_complete and not flags.is_path

    def test_p4_both_path_flags(self):
        flags = recognize_structure(path_graph(4))
        assert flags.is_path and flags.is_path_complement

    def test_c5_nothing(self):
        flags = recognize_structure(cycle_graph(5))
        assert not flags.is_complete
        assert not flags.is_path
        assert not flags.is_path_complement
        assert not flags.is_disjoint_union_of_edges
        assert not flags.is_chordal
        assert flags.isolated_vertices == ()

    def test_isolated_reported(self):
        g = graph_from_edges(4, [(2, 3)])
        assert recognize_structure(g).isolated_vertices == (1, 4)

    def test_chordal_matches_induced_cycle_oracle(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                assert is_chordal(g) == brute_is_chordal(g)

    def test_chordal_known_cases(self):
        assert is_chordal(complete_graph(6))
        assert is_chordal(path_graph(6))
        assert not is_chordal(cycle_graph(4))
        assert not is_chordal(cycle_graph(6))


class TestValidation:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(1, 2), (2, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            graph_from_edges(3, [(1, 4)])

    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, (0, 2, 0))


class TestJson:
    def test_round_trip(self):
        g = graph_from_permutation(Permutation((2, 4, 5, 1, 3)))
        again = graph_from_json(json.dumps(graph_to_json(g)))
        assert again.edges() == g.edges() and again.n == g.n

    def test_rejects_bad_payloads(self):
        with pytest.raises(ValueError):
            graph_from_json({"edges": []})
        with pytest.raises(ValueError):
            graph_from_json({"n": 2, "edges": [[1, 1]]})
        with pytest.raises(ValueError):
            graph_from_json({"n": 2, "edges": [[1, 2], [2, 1]]})

    @pytest.mark.parametrize("payload", [
        {"n": True, "edges": []},
        {"n": 2, "edges": [[True, 2]]},
        {"n": 2, "edges": [[1, False]]},
        '{"n": true, "edges": []}',
        '{"n": 3, "edges": [[true, 2]]}',
    ])
    def test_rejects_booleans(self, payload):
        with pytest.raises(ValueError):
            graph_from_json(payload)

    def test_graph_from_edges_rejects_booleans(self):
        with pytest.raises(ValueError):
            graph_from_edges(True, [])
        with pytest.raises(ValueError):
            graph_from_edges(2, [(True, 2)])
