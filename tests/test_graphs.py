import json
import re
from itertools import permutations

import pytest

from permcm import (
    Graph,
    GraphFacts,
    Permutation,
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
from permcm.graphs import _is_path, inversions, mask_of, vbit
from bruteforce import all_graphs, brute_is_chordal


class TestPermutation:
    def test_valid(self):
        assert Permutation((2, 4, 5, 1, 3)).n == 5

    @pytest.mark.parametrize("values", [(1, 1), (0, 1), (1, 3), (2,)])
    def test_invalid(self, values):
        with pytest.raises(ValueError):
            Permutation(values)

    @pytest.mark.parametrize("values", [(2, True), (True, 2), (1.0, 2)])
    def test_rejects_non_integers(self, values):
        with pytest.raises(ValueError, match="not a permutation"):
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
    def test_induced_k5(self):
        sub = induced_subgraph(complete_graph(5), mask_of((1, 2, 3)))
        assert sub.edges() == ((1, 2), (1, 3), (2, 3))

    def test_delete_vertex_2k2(self):
        # the vertices above the deleted one move down by one
        g = disjoint_edges(2)
        sub = induced_subgraph(g, g.full_mask & ~vbit(1))
        assert sub.n == 3 and sub.edges() == ((2, 3),)
        assert sub.isolated_vertices() == (1,)

    def test_out_of_range(self):
        g = path_graph(3)
        for keep in (vbit(4), g.full_mask | vbit(9), -1, -vbit(2)):
            with pytest.raises(ValueError):
                induced_subgraph(g, keep)
        assert induced_subgraph(g, 0).n == 0


class TestBuiltGraphs:
    """The package's own builders skip ``Graph`` validation, so each
    graph they return must pass it."""

    @staticmethod
    def valid(g: Graph) -> Graph:
        assert Graph(g.n, g.adj) == g
        return g

    def test_complements_and_subgraphs_pass_validation(self):
        for n in range(6):
            for g in all_graphs(n):
                self.valid(complement(g))
                for keep in range(1 << n):
                    self.valid(induced_subgraph(g, keep))

    def test_inversion_graphs_match_the_inversion_list(self):
        for n in range(8):
            for p in permutations(range(1, n + 1)):
                g = self.valid(graph_from_permutation(p))
                assert g == graph_from_edges(n, inversions(p)), p


class TestRecognizers:
    def test_three_disjoint_edges(self):
        g = disjoint_edges(3)
        assert GraphFacts(g).gorenstein
        assert not recognize_structure(g).is_complete and not _is_path(g)

    def test_p4_both_path_flags(self):
        g = path_graph(4)
        assert _is_path(g) and recognize_structure(g).is_path_complement

    def test_c5_nothing(self):
        g = cycle_graph(5)
        flags = recognize_structure(g)
        assert not flags.is_complete
        assert not _is_path(g)
        assert not flags.is_path_complement
        assert not GraphFacts(g).gorenstein
        assert not flags.is_chordal
        assert g.isolated_vertices() == ()

    def test_isolated_reported(self):
        g = graph_from_edges(4, [(2, 3)])
        assert g.isolated_vertices() == (1, 4)

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

    def test_boolean_vertex_count_rejected(self):
        # True == 1, and classify would print "n": true
        with pytest.raises(ValueError):
            Graph(True, (0, 0))

    def test_adjacency_list_rejected(self):
        # a list is no key of the memos that later hash the graph
        with pytest.raises(ValueError):
            Graph(2, [0, 2, 1])

    @pytest.mark.parametrize("n,adj", [(2, (0, 2, True)), (1, (0, 1.0)), (1, (0, "0"))])
    def test_non_integer_mask_rejected(self, n, adj):
        with pytest.raises(ValueError):
            Graph(n, adj)

    def test_unused_entry_must_be_zero(self):
        # otherwise the same graph would have two unequal tables
        with pytest.raises(ValueError):
            Graph(2, (5, 2, 1))
        assert Graph(2, (0, 2, 1)) == path_graph(2)


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

    @pytest.mark.parametrize("edge", [5, None, "12", {"a": 1, "b": 2}, [1], (1, 2, 3)])
    def test_graph_from_edges_rejects_non_pairs(self, edge):
        # a string or a mapping of length 2 is not read as its characters or keys
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} is not a pair")):
            graph_from_edges(3, [edge])
