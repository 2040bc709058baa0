import hashlib
import json
import random
from functools import reduce
from itertools import combinations, permutations
from math import comb
from operator import or_

import pytest

from permcm import (
    CapExceededError,
    Permutation,
    SimplicialComplex,
    complete_graph,
    disjoint_edges,
    euler_characteristic,
    graph_from_edges,
    graph_from_permutation,
    hilbert_data,
    hochster_betti_table,
    independence_complex,
    is_vertex_decomposable,
    link_and_deletion,
    path_graph,
    reduced_homology_ranks,
    reisner_cm_test,
    shellable_bruteforce_test,
    vertex_decomposable_test,
)
from permcm.complexes import exact_rank
from permcm.graphs import vertices_of
from bruteforce import (
    _face_sets,
    bareiss_rank,
    boundary_matrices,
    brute_betti_table,
    check_vd_tree,
    fraction_rank,
    hilbert_function_from_f,
)


def sweep_complexes(max_n):
    for n in range(1, max_n + 1):
        for p in permutations(range(1, n + 1)):
            yield independence_complex(graph_from_permutation(Permutation(p)))


class TestConstruction:
    def test_k3_three_points(self):
        c = independence_complex(complete_graph(3))
        assert c.facet_sets() == ((1,), (2,), (3,))

    def test_2k2_four_cycle(self):
        c = independence_complex(disjoint_edges(2))
        assert c.facet_sets() == ((1, 3), (1, 4), (2, 3), (2, 4))

    def test_edgeless_full_simplex(self):
        c = independence_complex(graph_from_edges(4, []))
        assert c.facet_sets() == ((1, 2, 3, 4),)
        assert c.is_simplex

    def test_void_and_irrelevant_are_distinct(self):
        void = SimplicialComplex.from_faces({1, 2}, [])
        irrelevant = SimplicialComplex.from_faces({1, 2}, [()])
        assert void.is_void and not irrelevant.is_void
        assert void.dim is None and irrelevant.dim == -1

    def test_facets_antichain(self):
        c = SimplicialComplex.from_faces({1, 2, 3}, [(1, 2), (1,), (3,)])
        assert c.facet_sets() == ((1, 2), (3,))


class TestJsonWireFormat:
    def test_round_trip(self):
        from permcm import complex_from_json, complex_to_json

        c = independence_complex(disjoint_edges(2))
        data = complex_to_json(c)
        assert data["facets"] == [[1, 3], [1, 4], [2, 3], [2, 4]]
        assert complex_from_json(data) == c

    def test_rejects_missing_keys(self):
        from permcm import complex_from_json

        with pytest.raises(ValueError):
            complex_from_json({"facets": []})


class TestLinkDeletion:
    def test_link_in_full_simplex(self):
        c = independence_complex(graph_from_edges(4, []))
        lk, dl = link_and_deletion(c, (1,))
        assert lk.facet_sets() == ((2, 3, 4),)
        assert dl.facet_sets() == ((2, 3, 4),)

    def test_four_cycle_vertex(self):
        c = independence_complex(disjoint_edges(2))
        lk, dl = link_and_deletion(c, (1,))
        assert lk.facet_sets() == ((3,), (4,))
        assert dl.facet_sets() == ((2, 3), (2, 4))

    def test_three_points_vertex(self):
        c = independence_complex(complete_graph(3))
        lk, dl = link_and_deletion(c, (1,))
        assert lk.facet_sets() == ((),)
        assert dl.facet_sets() == ((2,), (3,))

    def test_non_face_rejected(self):
        c = independence_complex(complete_graph(3))
        with pytest.raises(ValueError):
            c.link((1, 2))

    def test_edge_deletion_in_two_simplex(self):
        c = SimplicialComplex.from_faces({1, 2, 3}, [(1, 2, 3)])
        dl = c.deletion((1, 2))
        assert dl.facet_sets() == ((1, 3), (2, 3))
        assert dl.vertices == c.vertices

    def test_empty_face_deletion_is_void(self):
        c = SimplicialComplex.from_faces({1, 2, 3}, [(1, 2, 3)])
        assert c.deletion(()).is_void

    def test_vertex_deletion_drops_the_vertex(self):
        # a vertex's deletion is the complex with the vertex removed from
        # every facet and from the ambient set
        for c in sweep_complexes(5):
            for v in range(1, c.vertices.bit_length() + 1):
                b = 1 << (v - 1)
                expected = SimplicialComplex.from_faces(
                    c.vertices & ~b, [vertices_of(m & ~b) for m in c.facets])
                assert c.deletion((v,)) == expected

    def test_ambient_shrinks(self):
        c = independence_complex(disjoint_edges(2))
        lk, dl = link_and_deletion(c, (1,))
        assert lk.vertices == dl.vertices == 0b1110


class TestHomology:
    def test_four_cycle_is_a_circle(self):
        c = independence_complex(disjoint_edges(2))
        assert reduced_homology_ranks(c) == {1: 1}

    def test_three_points(self):
        assert reduced_homology_ranks(independence_complex(complete_graph(3))) == {0: 2}

    def test_full_simplex_contractible(self):
        c = independence_complex(graph_from_edges(5, []))
        assert reduced_homology_ranks(c) == {}

    def test_irrelevant_complex(self):
        c = SimplicialComplex.from_faces({1, 2}, [()])
        assert reduced_homology_ranks(c) == {-1: 1}

    def test_sphere_boundary(self):
        # boundary of the tetrahedron is a 2-sphere
        faces = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        c = SimplicialComplex.from_faces({1, 2, 3, 4}, faces)
        assert reduced_homology_ranks(c) == {2: 1}

    def test_euler_characteristic_vs_homology(self):
        for c in sweep_complexes(5):
            ranks = reduced_homology_ranks(c)
            alt = sum((-1) ** d * r for d, r in ranks.items())
            assert euler_characteristic(c) == alt


class TestExactRank:
    def test_random_matrices_match_fraction_gauss(self):
        rng = random.Random(7)
        for _ in range(200):
            nr = rng.randint(1, 6)
            nc = rng.randint(1, 6)
            mat = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            assert exact_rank(mat) == fraction_rank(mat)

    def test_rank_deficient(self):
        mat = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert exact_rank(mat) == 2

    def test_empty(self):
        assert exact_rank([]) == 0


class TestHilbert:
    def test_2k2(self):
        hd = hilbert_data(independence_complex(disjoint_edges(2)))
        assert hd.f == (1, 4, 4)
        assert hd.d == 2
        assert hd.h == (1, 2, 1)
        assert hd.a == 0
        assert hd.hf == (1, 4, 8, 12, 16)

    def test_p4(self):
        hd = hilbert_data(independence_complex(path_graph(4)))
        assert hd.f == (1, 4, 3)
        assert hd.h == (1, 2, 0)
        assert hd.a == -1

    def test_full_simplex(self):
        for n in (1, 3, 5):
            hd = hilbert_data(independence_complex(graph_from_edges(n, [])))
            assert hd.h[0] == 1 and not any(hd.h[1:])
            assert hd.a == -n

    def test_hf_agrees_with_direct_count(self):
        for c in sweep_complexes(5):
            hd = hilbert_data(c)
            for m, value in enumerate(hd.hf):
                assert value == hilbert_function_from_f(hd.f, m)

    def test_hf_equals_hp_beyond_a(self):
        for c in sweep_complexes(5):
            hd = hilbert_data(c)
            for t in range(max(0, hd.a + 1), len(hd.hf)):
                assert hd.hf[t] == hd.hp_value(t)

    def test_hf_differs_from_hp_at_a_when_nonnegative(self):
        for c in sweep_complexes(5):
            hd = hilbert_data(c)
            if hd.a >= 0:
                assert any(hd.hf[t] != hd.hp_value(t) for t in range(hd.a + 1))

    def test_multiplicity_is_leading_data(self):
        # h(1) equals (d-1)! times the leading Hilbert coefficient, which
        # is the (d-1)-th forward difference of the polynomial, and counts
        # the facets of a pure complex
        for c in sweep_complexes(5):
            hd = hilbert_data(c)
            if hd.d >= 1:
                k = hd.d - 1
                diff = sum((-1) ** (k - i) * comb(k, i) * hd.hp_value(i)
                           for i in range(k + 1))
                assert sum(hd.h) == diff
            sizes = {m.bit_count() for m in c.facets}
            if len(sizes) == 1:
                assert sum(hd.h) == len(c.facets)


class TestReisner:
    def test_2k2_is_cm(self):
        assert reisner_cm_test(independence_complex(disjoint_edges(2)))

    def test_p3_is_not(self):
        assert not reisner_cm_test(independence_complex(path_graph(3)))

    def test_remark_graph_is_not(self, remark_graph):
        assert not reisner_cm_test(independence_complex(remark_graph))

    def test_simplices_are_cm(self):
        assert reisner_cm_test(independence_complex(graph_from_edges(4, [])))
        assert reisner_cm_test(SimplicialComplex.from_faces({1}, [()]))


class TestHochster:
    def test_2k2_complete_intersection(self):
        bt = hochster_betti_table(independence_complex(disjoint_edges(2)))
        assert (bt.reg, bt.pd, bt.depth, bt.type) == (2, 2, 2, 1)
        assert bt.entries == {(0, 0): 1, (1, 2): 2, (2, 4): 1}

    def test_p4(self):
        bt = hochster_betti_table(independence_complex(path_graph(4)))
        assert (bt.reg, bt.pd, bt.depth, bt.type) == (1, 2, 2, 2)

    def test_single_edge_hypersurface(self):
        bt = hochster_betti_table(independence_complex(complete_graph(2)))
        assert (bt.pd, bt.type, bt.reg) == (1, 1, 1)
        assert bt.entries == {(0, 0): 1, (1, 2): 1}

    def test_quotient_convention(self):
        for c in sweep_complexes(4):
            assert hochster_betti_table(c).entries[(0, 0)] == 1

    def test_reg_at_least_one_with_an_edge(self):
        for n in range(2, 6):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                if g.edge_count():
                    assert hochster_betti_table(independence_complex(g)).reg >= 1

    def test_ambient_only_vertices_shift_depth(self):
        # one ambient vertex that is not a face: S/(x1) over two variables
        c = SimplicialComplex.from_faces({1, 2}, [(2,)])
        bt = hochster_betti_table(c)
        assert bt.entries == {(0, 0): 1, (1, 1): 1}
        assert bt.depth == 1

    def test_cap(self):
        big = SimplicialComplex.from_faces(range(1, 16), [tuple(range(1, 16))])
        with pytest.raises(CapExceededError):
            hochster_betti_table(big)

    def test_labels_far_apart(self):
        # S/(x1 x40, x7): the table depends on the labels only through
        # the complex, however far apart they are
        c = SimplicialComplex.from_faces({1, 7, 40}, [(1,), (40,)])
        bt = hochster_betti_table(c)
        assert bt.entries == {(0, 0): 1, (1, 1): 1, (1, 2): 1, (2, 3): 1}
        assert bt.entries == brute_betti_table(c)

    def test_cones_are_skipped(self, monkeypatch):
        # counted from outside: on Ind(7K_2) the induced complex is a cone
        # unless W is a union of whole edges, so at most 2^7 of the 2^14
        # vertex subsets reach the homology kernel
        import importlib

        complexes = importlib.import_module("permcm.complexes")
        original = complexes._homology_of_key
        calls = []

        def counted(key):
            calls.append(key)
            return original(key)

        monkeypatch.setattr(complexes, "_homology_of_key", counted)
        bt = hochster_betti_table(independence_complex(disjoint_edges(7)))
        assert len(calls) <= 128
        assert bt.entries == {(k, 2 * k): comb(7, k) for k in range(8)}


class TestVertexDecomposable:
    def test_full_simplex(self):
        tree = vertex_decomposable_test(independence_complex(graph_from_edges(3, [])))
        assert tree == {"simplex": [[1, 2, 3]]}

    def test_remark_graph_not(self, remark_graph):
        assert vertex_decomposable_test(independence_complex(remark_graph)) is None

    def test_p4_witness(self):
        c = independence_complex(path_graph(4))
        tree = vertex_decomposable_test(c)
        assert tree is not None
        assert check_vd_tree(set(c.facet_sets()), tree)

    def test_witnesses_validate(self):
        for c in sweep_complexes(5):
            tree = vertex_decomposable_test(c)
            assert (tree is not None) == is_vertex_decomposable(c)
            if tree is not None:
                assert check_vd_tree(set(c.facet_sets()), tree)


class TestShelling:
    def test_four_cycle(self):
        assert shellable_bruteforce_test(independence_complex(disjoint_edges(2)))

    def test_two_disjoint_edge_facets(self):
        c = SimplicialComplex.from_faces({1, 2, 3, 4}, [(1, 2), (3, 4)])
        assert not shellable_bruteforce_test(c)

    def test_single_facet(self):
        c = SimplicialComplex.from_faces({1, 2}, [(1, 2)])
        assert shellable_bruteforce_test(c)

    def test_cap(self):
        facets = [(i, 10) for i in range(1, 10)]
        c = SimplicialComplex.from_faces(range(1, 11), facets)
        with pytest.raises(CapExceededError):
            shellable_bruteforce_test(c)

    def test_implication_chain(self):
        # vertex decomposable complexes shell; pure shellable complexes
        # pass Reisner (the criteria agree with unmixedness in the middle)
        for c in sweep_complexes(5):
            if len(c.facets) > 8:
                continue
            vd = is_vertex_decomposable(c)
            shellable = shellable_bruteforce_test(c)
            if vd:
                assert shellable
            pure = len({m.bit_count() for m in c.facets}) == 1
            if pure and shellable:
                assert reisner_cm_test(c)


class TestOracleOutputsPinned:
    # SHA-256 over the VD witness tree and the shelling verdict of every
    # S_5 independence complex, recorded before the shedding-vertex and
    # ordering searches were each written once
    DIGEST = "34ab04e9e1ef530af30a148c25928a8ba24f7294ab80008c3f63e4eb9a74a76c"

    def test_s5_vd_trees_and_shellings(self):
        h = hashlib.sha256()
        for p in permutations(range(1, 6)):
            c = independence_complex(graph_from_permutation(Permutation(p)))
            row = [vertex_decomposable_test(c), shellable_bruteforce_test(c)]
            h.update(json.dumps(row, sort_keys=True).encode() + b"\n")
        assert h.hexdigest() == self.DIGEST


def random_complexes(count=300, seed=2025):
    """Seeded complexes built from random faces: some are not flag, and
    some have ambient-only vertices or only the empty face."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, 8)
        faces = [
            [v for v in range(1, n + 1) if rng.random() < 0.5]
            for _ in range(rng.randint(1, 6))
        ]
        yield SimplicialComplex.from_faces(range(1, n + 1), faces)


class TestHilbertPinned:
    # SHA-256 over (f, h, d, hf, a, hilbertian, Hilbert polynomial on
    # [-3, n + 3]) of every S_n independence complex with n <= 6 and of
    # the seeded random complexes, recorded while the Hilbert polynomial
    # was still expanded in Fraction coefficients
    DIGEST = "8acc8387ca593357e361c36944c09cb37c1c4d609a5680d103dd12fc13fddd71"

    def test_hilbert_data_unchanged(self):
        h = hashlib.sha256()
        for c in [*sweep_complexes(6), *random_complexes()]:
            hd = hilbert_data(c)
            n = c.vertices.bit_count()
            row = [hd.f, hd.h, hd.d, hd.hf, hd.a, hd.hilbertian,
                   [hd.hp_value(t) for t in range(-3, n + 4)]]
            h.update(json.dumps(row).encode() + b"\n")
        assert h.hexdigest() == self.DIGEST


def betti_rows(c):
    return sorted([i, j, r] for (i, j), r in hochster_betti_table(c).entries.items())


class TestBettiPinned:
    # SHA-256 over the Hochster Betti table of every S_n independence
    # complex with n <= 6 and of the seeded random complexes (52 of them
    # not flag, 100 with ambient-only vertices), recorded while every
    # vertex subset was walked and ranked by dense Bareiss elimination
    DIGEST = "83a65dc5474f9cac2bfbf7bae3592d92273d252ca71f7d537871689c38177c8e"

    def test_betti_tables_unchanged(self):
        h = hashlib.sha256()
        for c in [*sweep_complexes(6), *random_complexes()]:
            h.update(json.dumps(betti_rows(c)).encode() + b"\n")
        assert h.hexdigest() == self.DIGEST

    def test_seeded_set_has_non_flag_and_ambient_only_cases(self):
        def is_flag(c):
            faces = _face_sets(list(c.facets))
            edges = {f for f in faces if len(f) == 2}
            verts = {v for f in faces for v in f}
            # flag: every vertex set whose pairs are all edges is a face
            return all(
                frozenset(s) in faces
                for r in range(3, len(verts) + 1)
                for s in combinations(sorted(verts), r)
                if all(frozenset(p) in edges for p in combinations(s, 2))
            )

        seeded = list(random_complexes())
        assert sum(not is_flag(c) for c in seeded) >= 20
        assert sum(c.vertices != reduce(or_, c.facets) for c in seeded) >= 20

    def test_matches_unpruned_dense_walk(self):
        for c in [*sweep_complexes(6), *random_complexes()]:
            assert hochster_betti_table(c).entries == brute_betti_table(c)


class TestExactRankAgainstBareiss:
    def test_boundary_matrices(self):
        for c in [*sweep_complexes(6), *random_complexes()]:
            for _, mat in boundary_matrices(_face_sets(list(c.facets))):
                assert exact_rank(mat) == bareiss_rank(mat)
