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
    classify,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_edges,
    graph_from_edges,
    graph_from_permutation,
    hilbert_data,
    hochster_betti_table,
    independence_complex,
    is_vertex_decomposable,
    path_graph,
    reduced_homology_ranks,
    reisner_cm_test,
)
from permcm.caps import get_cap
from permcm.complexes import _canonical, _flag_tables, _reisner_key, _series_coef, exact_rank
from bruteforce import (
    _face_sets,
    _neighbourhood_meets,
    all_graphs,
    bareiss_rank,
    boundary_matrices,
    brute_betti_table,
    check_vd_tree,
    fraction_rank,
    hilbert_function_from_f,
    is_flag,
    product_series_coef,
    serial_permutation_classes,
    shellable_bruteforce_test,
    summed_hilbert_function,
    unfolded_betti_table,
    vertex_decomposable_test,
    walked_betti_table,
    walked_reisner,
)


def sparse_rows(mat):
    """A dense matrix as the rows ``exact_rank`` takes: column -> entry."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


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
        assert len(c.facets) == 1

    def test_void_and_irrelevant_are_distinct(self):
        void = SimplicialComplex.from_faces({1, 2}, [])
        irrelevant = SimplicialComplex.from_faces({1, 2}, [()])
        assert void.is_void and not irrelevant.is_void
        assert void.faces() == set() and irrelevant.faces() == {0}

    def test_facets_antichain(self):
        c = SimplicialComplex.from_faces({1, 2, 3}, [(1, 2), (1,), (3,)])
        assert c.facet_sets() == ((1, 2), (3,))


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
        # the reduced Euler characteristic two ways: from the ranks, and
        # as the alternating face count f_{s-1} over faces of s vertices
        for c in sweep_complexes(5):
            ranks = reduced_homology_ranks(c)
            alt = sum((-1) ** d * r for d, r in ranks.items())
            assert sum((-1) ** (s + 1) * fs for s, fs in enumerate(hilbert_data(c).f)) == alt


class TestExactRank:
    def test_random_matrices_match_fraction_gauss(self):
        rng = random.Random(7)
        for _ in range(200):
            nr = rng.randint(1, 6)
            nc = rng.randint(1, 6)
            mat = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
            assert exact_rank(sparse_rows(mat)) == fraction_rank(mat)

    def test_rank_deficient(self):
        mat = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
        assert exact_rank(sparse_rows(mat)) == 2

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

    def test_series_coef_matches_the_product_form(self):
        # binomials on both sides of the zero window -d < m < 0
        for d in range(16):
            for m in range(-40, 41):
                assert _series_coef(m, d) == product_series_coef(m, d), (m, d)

    def test_hf_agrees_with_direct_count(self):
        for c in sweep_complexes(5):
            hd = hilbert_data(c)
            for m, value in enumerate(hd.hf):
                assert value == hilbert_function_from_f(hd.f, m)

    def test_prefix_sums_match_the_summed_series(self):
        complexes = list(sweep_complexes(6))
        complexes += [independence_complex(graph_from_permutation(Permutation(m[0])))
                      for m in serial_permutation_classes(7)]
        for c in complexes:
            hd = hilbert_data(c)
            assert hd.hf == summed_hilbert_function(hd), c.facets

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
        big = SimplicialComplex.from_faces(range(1, 18), [tuple(range(1, 18))])
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

    def test_folded_subsets_share_the_kernel(self, monkeypatch):
        # every induced subgraph of P_14 folds down to a few small
        # graphs, so a cold homology memo gains only their entries (the
        # unfolded walk adds 189)
        import importlib

        complexes = importlib.import_module("permcm.complexes")
        cache = {}
        monkeypatch.setattr(complexes, "_HOMOLOGY_CACHE", cache)
        c = independence_complex(path_graph(14))
        entries = hochster_betti_table(c).entries
        assert len(cache) <= 10
        assert entries == unfolded_betti_table(c)

    def test_joins_split_into_components(self, monkeypatch):
        # nothing in 3K_4 folds, but an induced subgraph is a disjoint
        # union and its complex the join of the parts' complexes: only the
        # 11 folded subsets of each K_4 reach the kernel (the unfolded
        # walk makes 12^3 = 1728 calls)
        import importlib

        complexes = importlib.import_module("permcm.complexes")
        original = complexes._homology_of_key
        calls = []

        def counted(key):
            calls.append(key)
            return original(key)

        monkeypatch.setattr(complexes, "_homology_of_key", counted)
        c = independence_complex(graph_from_permutation(Permutation((4, 3, 2, 1, 8, 7, 6, 5, 12, 11, 10, 9))))
        entries = hochster_betti_table(c).entries
        assert len(calls) <= 33
        monkeypatch.setattr(complexes, "_homology_of_key", original)
        assert entries == unfolded_betti_table(c)

    def test_a_complex_that_is_not_flag_takes_each_restricted_set_once(self, monkeypatch):
        # S^2 plus 10 ambient-only vertices is not flag, so nothing folds,
        # but the 2^14 subsets W restrict to 16 sets of used vertices:
        # each (|W|, W & used) pair pays _maximalize once (the walk over
        # W made 2^14 calls)
        import importlib

        complexes = importlib.import_module("permcm.complexes")
        original = complexes._maximalize
        sphere = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
        c = SimplicialComplex.from_faces(range(1, 15), sphere)
        calls = []

        def counted(masks):
            calls.append(None)
            return original(masks)

        monkeypatch.setattr(complexes, "_maximalize", counted)
        entries = hochster_betti_table(c).entries
        assert len(calls) <= 2**4 * 11
        monkeypatch.setattr(complexes, "_maximalize", original)
        assert entries == unfolded_betti_table(c)


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
        # the package reads VD off the Alexander dual; the direct shedding
        # search gives a witness tree exactly when it answers yes
        s7 = [independence_complex(graph_from_permutation(Permutation(members[0])))
              for members in serial_permutation_classes(7)]
        seen = set()
        for c in [*sweep_complexes(6), *random_complexes(), *s7]:
            tree = vertex_decomposable_test(c)
            vd = is_vertex_decomposable(c)
            assert (tree is not None) == vd
            if tree is not None:
                assert check_vd_tree(set(c.facet_sets()), tree)
            seen.add(vd)
        assert seen == {True, False}

    def test_more_facets_than_the_splitting_cap(self):
        # 3K_3 has 27 maximal independent sets, above the 20-generator
        # vertex_splittable cap, which VD does not read
        g = graph_from_permutation(Permutation((3, 2, 1, 6, 5, 4, 9, 8, 7)))
        c = independence_complex(g)
        assert len(c.facets) == 27 > get_cap("vertex_splittable")
        assert is_vertex_decomposable(c)
        assert classify(g).oracle["vertex_decomposable"] is True


class TestShelling:
    def test_four_cycle(self):
        assert shellable_bruteforce_test(independence_complex(disjoint_edges(2)))

    def test_two_disjoint_edge_facets(self):
        c = SimplicialComplex.from_faces({1, 2, 3, 4}, [(1, 2), (3, 4)])
        assert not shellable_bruteforce_test(c)

    def test_single_facet(self):
        c = SimplicialComplex.from_faces({1, 2}, [(1, 2)])
        assert shellable_bruteforce_test(c)

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


def relabelled(g, order):
    """g with vertex v renamed order[v - 1]."""
    return graph_from_edges(g.n, [(order[u - 1], order[v - 1]) for u, v in g.edges()])


def fold_test_graphs(count=20, seed=12):
    """Seeded permutation graphs with 9 <= n <= 12 under a random
    relabelling, then P_12, 6K_2, the complement of P_11, C_9 and C_10,
    and two relabelled disjoint unions: K_3 + K_4 + K_2 + K_1, and
    C_5 + C_5 + K_2 (whose complexes are joins of spheres)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(9, 12)
        g = graph_from_permutation(Permutation(tuple(rng.sample(range(1, n + 1), n))))
        yield relabelled(g, rng.sample(range(1, n + 1), n))
    yield from (path_graph(12), disjoint_edges(6), complement(path_graph(11)),
                cycle_graph(9), cycle_graph(10))
    cliques = graph_from_permutation(Permutation((3, 2, 1, 7, 6, 5, 4, 9, 8, 10)))
    yield relabelled(cliques, rng.sample(range(1, 11), 10))
    cycles = graph_from_edges(12, [(i, i % 5 + 1) for i in range(1, 6)]
                              + [(i, i % 5 + 6) for i in range(6, 11)] + [(11, 12)])
    yield relabelled(cycles, rng.sample(range(1, 13), 12))


class TestFoldAgainstUnfoldedWalk:
    def test_independence_complexes(self):
        for g in fold_test_graphs():
            c = independence_complex(g)
            assert hochster_betti_table(c).entries == unfolded_betti_table(c)

    # SHA-256 over the Betti tables of the independence complexes of the
    # least member of each of the 776 classes of S_7, recorded before
    # the Hochster sum folded dominated vertices
    S7_DIGEST = "8c79b72c465abf3eaba001d945ccf0cceeec5db07f4aa5e7afd3ff5a4ac889e8"

    def test_s7_class_representatives_pinned(self):
        h = hashlib.sha256()
        classes = serial_permutation_classes(7)
        for members in classes:
            c = independence_complex(graph_from_permutation(Permutation(members[0])))
            h.update(json.dumps(betti_rows(c)).encode() + b"\n")
        assert len(classes) == 776
        assert h.hexdigest() == self.S7_DIGEST


def three_k4():
    return graph_from_permutation(Permutation((4, 3, 2, 1, 8, 7, 6, 5, 12, 11, 10, 9)))


class TestFoldTable:
    # the fold table must give the walk's table, keys in the same order
    def test_sweep_complexes_against_the_walk(self):
        for c in sweep_complexes(6):
            assert list(hochster_betti_table(c).entries.items()) == list(walked_betti_table(c).items())

    @pytest.mark.parametrize("g", [
        path_graph(12), disjoint_edges(6), complete_graph(12), three_k4(), cycle_graph(10),
        complement(path_graph(11)),
    ], ids=["P12", "6K2", "K12", "3K4", "C10", "coP11"])
    def test_named_graphs_against_the_walk(self, g):
        c = independence_complex(g)
        assert list(hochster_betti_table(c).entries.items()) == list(walked_betti_table(c).items())

    def test_entry_order_of_the_unfolded_sum(self):
        # demo 02 prints the entries: they keep the order in which the
        # unfolded sum, walking W down from the full set, first met them.
        # The last graph is (2K_2 joined to a vertex) + (3K_2 joined to a
        # vertex): its complex is the join of a point beside a square and
        # a point beside an octahedron, with homology in dimensions 0, 1
        # and 0, 2, so a join taken in factor order lists dimension 3
        # before dimension 2
        edges = [(1, 2), (3, 4), *((5, v) for v in range(1, 5)),
                 (6, 7), (8, 9), (10, 11), *((12, v) for v in range(6, 12))]
        for c in [*sweep_complexes(6), independence_complex(graph_from_edges(12, edges))]:
            assert list(hochster_betti_table(c).entries.items()) == list(unfolded_betti_table(c).items())

    @pytest.mark.parametrize("n,bound", [(12, 12), (16, 16)])
    def test_pieces_share_the_kernel_by_skeleton(self, monkeypatch, n, bound):
        # nothing in K_n folds, and each of its 2^n - n - 1 vertex sets
        # with two or more vertices is one piece; the pieces of one size
        # share their edgeless skeleton, so a cold kernel sees one of
        # each size and the empty set
        import importlib

        complexes = importlib.import_module("permcm.complexes")
        monkeypatch.setattr(complexes, "_HOMOLOGY_CACHE", {})
        monkeypatch.setattr(complexes, "_SKELETON_CACHE", {})
        original = complexes._homology_of_key
        calls = []

        def counted(key):
            calls.append(key)
            return original(key)

        monkeypatch.setattr(complexes, "_homology_of_key", counted)
        bt = hochster_betti_table(independence_complex(complete_graph(n)))
        assert len(calls) <= bound
        # n points: beta_{i,i+1} = i * C(n, i + 1)
        assert bt.entries == {(0, 0): 1, **{(i, i + 1): i * comb(n, i + 1) for i in range(1, n)}}


class TestExactRankAgainstBareiss:
    def test_boundary_matrices(self):
        for c in [*sweep_complexes(6), *random_complexes()]:
            for _, mat in boundary_matrices(_face_sets(list(c.facets))):
                assert exact_rank(sparse_rows(mat)) == bareiss_rank(mat)


class TestFlagTable:
    def test_meets_exactly_on_flag_complexes(self):
        # a flag test that wrongly answers "not flag" only loses the cone
        # skip, so the Betti pins cannot see it; this test can
        seen = set()
        for c in [*sweep_complexes(6), *random_complexes()]:
            key = _canonical(c.facets)
            used = (1 << max(m.bit_length() for m in key)) - 1
            flag = is_flag(c)
            assert (_neighbourhood_meets(key, used) is not None) == flag
            seen.add(flag)
        assert seen == {True, False}

    def test_one_pass_against_the_clique_search(self):
        # the one-pass tables decide flagness as the clique search does,
        # and their meet table is its table; a wrong "not flag" would only
        # send Hochster and Reisner down their slower paths
        seen = set()
        for c in [*sweep_complexes(6), *random_complexes()]:
            key = _canonical(c.facets)
            used = (1 << max(m.bit_length() for m in key)) - 1
            tables = _flag_tables(key)
            assert (tables is not None) == is_flag(c)
            if tables is not None:
                assert tables.meet == _neighbourhood_meets(key, used)
            seen.add(tables is not None)
        assert seen == {True, False}


@pytest.fixture
def cold(monkeypatch):
    """Empty memo tables for Reisner and the kernel, and a counter of the
    calls of the recursive Reisner walk."""
    import importlib

    complexes = importlib.import_module("permcm.complexes")
    for name in ("_HOMOLOGY_CACHE", "_SKELETON_CACHE"):
        monkeypatch.setattr(complexes, name, {})
    walk = complexes._reisner_key
    calls = []

    def counted(key):
        calls.append(key)
        return walk(key)

    monkeypatch.setattr(complexes, "_reisner_key", counted)
    return calls


def flag_path_agrees(calls, c):
    """Reisner on c agrees with the recursive walk; within the cap a
    complex that is not pure fails at once, and a pure one reaches the
    walk exactly when it is not flag.  True when c took the table path."""
    del calls[:]
    verdict = reisner_cm_test(c)
    tables = "_flag" in vars(c) and c._flag is not None
    if is_pure(c):
        assert tables != bool(calls)
    else:
        assert not calls and "_flag" not in vars(c)
    assert verdict == _reisner_key(_canonical(c.facets))
    return tables


def is_pure(c):
    return len({m.bit_count() for m in c.facets}) <= 1


class TestReisnerFlagPath:
    def test_sweep_complexes(self, cold):
        assert all(flag_path_agrees(cold, c) for c in sweep_complexes(6) if is_pure(c))

    def test_all_labelled_graphs(self, cold):
        for n in range(1, 6):
            for g in all_graphs(n):
                flag_path_agrees(cold, independence_complex(g))

    def test_s7_class_complexes(self, cold):
        for members in serial_permutation_classes(7):
            flag_path_agrees(cold, independence_complex(graph_from_permutation(Permutation(members[0]))))

    def test_complexes_that_are_not_flag_fall_back(self, cold):
        # pure complexes that are not flag take the walk: a few of the
        # seeded ones, the boundaries of a triangle and a tetrahedron, a
        # hollow triangle beside an edge, and two tetrahedron boundaries
        # sharing a vertex, whose link there is two circles
        tetra = list(combinations((1, 2, 3, 4), 3))
        spheres = SimplicialComplex.from_faces(range(1, 8), tetra + list(combinations((1, 5, 6, 7), 3)))
        named = [
            (SimplicialComplex.from_faces({1, 2, 3}, combinations((1, 2, 3), 2)), True),
            (SimplicialComplex.from_faces({1, 2, 3, 4}, tetra), True),
            (SimplicialComplex.from_faces(range(1, 6), [(1, 2), (1, 3), (2, 3), (4, 5)]), False),
            (spheres, False),
        ]
        for c, cm in named:
            assert not is_flag(c)
            assert not flag_path_agrees(cold, c)
            assert reisner_cm_test(c) == cm
        seeded = [c for c in random_complexes() if is_pure(c) and not flag_path_agrees(cold, c)]
        assert sum(not is_flag(c) for c in seeded) >= 2

    @pytest.mark.parametrize("g", [
        path_graph(12), cycle_graph(10), complete_graph(12), disjoint_edges(6), three_k4(),
        complement(path_graph(11)),
    ], ids=["P12", "C10", "K12", "6K2", "3K4", "coP11"])
    def test_named_graphs(self, cold, g):
        flag_path_agrees(cold, independence_complex(g))

    def test_non_pure_flag_complexes(self, cold):
        for faces in ([(1, 2), (3,)], [(1, 2, 3), (3, 4)], [(1, 3), (2,)]):
            c = SimplicialComplex.from_faces({1, 2, 3, 4}, faces)
            assert is_flag(c) and not is_pure(c)
            flag_path_agrees(cold, c)
            assert not reisner_cm_test(c)

    def test_void_empty_face_and_ambient_only(self, cold):
        void = SimplicialComplex.from_faces({1, 2}, [])
        assert not flag_path_agrees(cold, void) and reisner_cm_test(void)
        assert flag_path_agrees(cold, SimplicialComplex.from_faces({1, 2}, [()]))
        path = SimplicialComplex.from_faces({1, 2, 3, 4, 5}, [(1, 2), (2, 3)])
        two_edges = SimplicialComplex.from_faces({1, 2, 3, 4, 5}, [(1, 3), (2, 4)])
        assert flag_path_agrees(cold, path) and reisner_cm_test(path)
        assert flag_path_agrees(cold, two_edges) and not reisner_cm_test(two_edges)

    def test_above_the_cap_walks(self, cold, monkeypatch):
        monkeypatch.setenv("PERMCM_CAPS", "hochster=5")
        c = independence_complex(disjoint_edges(3))
        assert reisner_cm_test(c) and cold
        assert "_flag" not in vars(c)  # no table built

    def test_classify_builds_the_tables_once(self, cold, monkeypatch):
        import importlib

        from permcm import classify

        complexes = importlib.import_module("permcm.complexes")
        build = complexes._flag_tables
        built = []

        def counted(key):
            built.append(key)
            return build(key)

        monkeypatch.setattr(complexes, "_flag_tables", counted)
        report = classify(disjoint_edges(4))
        assert report.oracle["reisner_cm"] and report.oracle["betti_type"] == 1
        assert len(built) == 1 and not cold


    def test_the_face_walk_reads_the_homology_memo(self, cold, monkeypatch):
        # above the cap, Reisner takes each face's link from the facets;
        # Ind(4K_2), the boundary of the 4-dimensional cross-polytope,
        # has 81 faces but links of only five shapes, so the kernel runs
        # once per shape and every other face is a memo hit
        import importlib

        complexes = importlib.import_module("permcm.complexes")
        lookup = complexes._homology_of_key
        looked_up = []

        def counted(key):
            looked_up.append(key)
            return lookup(key)

        monkeypatch.setattr(complexes, "_homology_of_key", counted)
        monkeypatch.setenv("PERMCM_CAPS", "hochster=7")
        c = independence_complex(disjoint_edges(4))
        assert reisner_cm_test(c) and cold
        assert len(looked_up) == len(c.faces()) == 81
        assert len(complexes._HOMOLOGY_CACHE) == 5


def walk_agrees(c):
    """The face-by-face fallback agrees with the recursive vertex-link
    walk it replaced; returns the verdict."""
    key = _canonical(c.facets)
    verdict = _reisner_key(key)
    assert verdict == walked_reisner(key)
    return verdict


class TestReisnerFallbackAgainstTheWalk:
    def test_sweep_and_seeded_complexes(self):
        seen = {walk_agrees(c) for c in [*sweep_complexes(6), *random_complexes()]}
        assert seen == {True, False}

    def test_named_complexes_that_are_not_flag(self):
        # the boundaries of a triangle and a tetrahedron, a hollow
        # triangle beside an edge, and two tetrahedron boundaries
        # sharing a vertex, whose link there is two circles
        tetra = list(combinations((1, 2, 3, 4), 3))
        named = [
            (SimplicialComplex.from_faces({1, 2, 3}, combinations((1, 2, 3), 2)), True),
            (SimplicialComplex.from_faces({1, 2, 3, 4}, tetra), True),
            (SimplicialComplex.from_faces(range(1, 6), [(1, 2), (1, 3), (2, 3), (4, 5)]), False),
            (SimplicialComplex.from_faces(
                range(1, 8), tetra + list(combinations((1, 5, 6, 7), 3))), False),
        ]
        for c, cm in named:
            assert walk_agrees(c) == cm

    def test_graphs_under_a_low_cap(self, monkeypatch):
        # with the cap at four, every complex with more used vertices,
        # here each one on five or seven vertices, builds no table and
        # takes the fallback
        monkeypatch.setenv("PERMCM_CAPS", "hochster=4")
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        graphs += [graph_from_permutation(Permutation(m[0])) for m in serial_permutation_classes(7)]
        fell_back = 0
        for g in graphs:
            c = independence_complex(g)
            verdict = reisner_cm_test(c)
            if reduce(or_, c.facets).bit_count() > 4:
                assert "_flag" not in vars(c)
                fell_back += 1
            assert verdict == walk_agrees(c)
        assert fell_back == 1024 + 776
