from itertools import permutations

import pytest

from permcm import (
    ClaimFailureError,
    NotPermutationGraphError,
    Permutation,
    bicm_and_hilbertian,
    classify,
    cm_by_clique_partition,
    complete_graph,
    cycle_graph,
    disjoint_edges,
    extract_shedding_order,
    gap_witness_check,
    gorenstein_by_structure,
    graph_from_edges,
    graph_from_permutation,
    path_graph,
    verify_cohesive_order,
    verify_shedding_certificate,
)


class TestCmByCliquePartition:
    def test_p4(self):
        cm, parts = cm_by_clique_partition(path_graph(4))
        assert cm and len(parts) == 1
        assert parts[0].blocks == ((1, 2), (3, 4))

    def test_remark_graph(self, remark_graph):
        cm, parts = cm_by_clique_partition(remark_graph)
        assert not cm and len(parts) == 2

    def test_complete_graphs(self):
        for n in range(1, 6):
            cm, parts = cm_by_clique_partition(complete_graph(n))
            assert cm and parts[0].blocks == (tuple(range(1, n + 1)),)

    def test_rejects_non_permutation_graph(self):
        with pytest.raises(NotPermutationGraphError):
            cm_by_clique_partition(cycle_graph(5))


class TestSheddingExtraction:
    def test_2k2_peels_an_endpoint_per_edge(self):
        g = disjoint_edges(2)
        cert = extract_shedding_order(g)
        assert len(cert.order) == 2
        assert cert.order == (2, 4)
        assert verify_shedding_certificate(g, cert)

    def test_k3_peels_the_chain(self):
        g = complete_graph(3)
        cert = extract_shedding_order(g)
        assert len(cert.order) == 2
        assert cert.remaining == (1,)
        assert verify_shedding_certificate(g, cert)

    def test_p4_certificate_reverifies(self):
        g = path_graph(4)
        cert = extract_shedding_order(g)
        assert len(cert.order) == 2
        assert verify_shedding_certificate(g, cert)
        for step in cert.steps:
            assert step.upset_verified and step.shedding_verified

    def test_requires_no_isolated_vertices(self):
        with pytest.raises(ValueError):
            extract_shedding_order(graph_from_edges(3, [(1, 2)]))

    def test_requires_cm(self, remark_graph):
        # C_4 is unmixed with two partitions; P_3 is not unmixed
        for g in (remark_graph, cycle_graph(4), path_graph(3)):
            with pytest.raises(ValueError, match="only for Cohen-Macaulay inputs"):
                extract_shedding_order(g)

    def test_certificate_independent_of_chosen_order(self):
        # any cohesive order yields a certificate that re-verifies
        g = graph_from_permutation(Permutation((2, 1, 4, 3, 5)))
        g_stripped = disjoint_edges(2)
        for p in permutations(range(1, 5)):
            if verify_cohesive_order(g_stripped, p):
                from permcm import CohesiveOrder

                cert = extract_shedding_order(g_stripped, order=CohesiveOrder(p))
                assert verify_shedding_certificate(g_stripped, cert)

    def test_tampered_certificate_fails(self):
        g = disjoint_edges(2)
        cert = extract_shedding_order(g)
        bad = cert.steps[0].__class__(
            vertices=cert.steps[0].vertices,
            order=cert.steps[0].order,
            partition=cert.steps[0].partition,
            t=cert.steps[0].t,
            shedding_vertex=1,  # wrong endpoint: 1 is covered, not a top
            lower_cover=2,
            upset_verified=True,
            shedding_verified=True,
        )
        tampered = cert.__class__(
            order=(1,) + cert.order[1:],
            cohesive_order=cert.cohesive_order,
            steps=(bad,) + cert.steps[1:],
            remaining=cert.remaining,
        )
        assert not verify_shedding_certificate(g, tampered)


class TestGorenstein:
    def test_three_disjoint_edges(self):
        assert gorenstein_by_structure(disjoint_edges(3)) == (True, False)

    def test_k5(self):
        assert gorenstein_by_structure(complete_graph(5)) == (False, True)

    def test_p4_is_its_own_complement(self):
        assert gorenstein_by_structure(path_graph(4)) == (False, True)

    def test_k2_gorenstein_not_nearly(self):
        assert gorenstein_by_structure(complete_graph(2)) == (True, False)

    def test_rejects_isolated_vertices(self):
        with pytest.raises(ValueError):
            gorenstein_by_structure(graph_from_edges(3, [(1, 2)]))


class TestGapWitness:
    def test_2k2_empty_set(self):
        assert gap_witness_check(disjoint_edges(2)) is True

    def test_3k2_all_endpoints(self):
        assert gap_witness_check(disjoint_edges(3)) is True

    def test_k3_not_applicable(self):
        assert gap_witness_check(complete_graph(3)) is None

    def test_k4_fails(self):
        # alpha = 1 < 2 on complete graphs, so use C_4: alpha = 2,
        # deleting N[empty] leaves C_4 itself, which is not 2K_2
        assert gap_witness_check(cycle_graph(4)) is False


class TestBicmHilbertian:
    def test_p4(self):
        assert bicm_and_hilbertian(path_graph(4)) == (True, True, -1)

    def test_2k2(self):
        assert bicm_and_hilbertian(disjoint_edges(2)) == (False, False, 0)

    def test_complete(self):
        for n in range(2, 6):
            assert bicm_and_hilbertian(complete_graph(n)) == (True, False, 0)

    def test_rejects_non_cm(self, remark_graph):
        with pytest.raises(ValueError):
            bicm_and_hilbertian(remark_graph)


class TestClassify:
    def test_mixed_permutation_graph(self):
        g = graph_from_permutation(Permutation((2, 4, 5, 1, 3)))
        r = classify(g)
        assert r.is_permutation
        assert not r.unmixed
        assert r.cm is False
        assert r.vertex_decomposable is True
        assert r.reg == r.oracle["betti_reg"] == 1
        assert r.a_invariant == r.oracle["hilbert_a"]
        assert r.oracle["reisner_cm"] is False

    def test_remark_graph(self, remark_graph):
        r = classify(remark_graph)
        assert r.is_permutation
        assert r.unmixed
        assert r.cm is False
        assert r.vertex_decomposable is False
        assert len(r.witnesses["clique_partitions"]) == 2
        assert r.witnesses["shedding"] is None

    def test_c5_partial_report(self):
        r = classify(cycle_graph(5))
        assert not r.is_permutation
        assert r.cm is None and r.gorenstein is None and r.bicm is None
        assert r.cohesive_order is None
        assert r.oracle is not None and r.oracle["reisner_cm"] is True
        assert r.reg == r.oracle["betti_reg"] == 2

    def test_edgeless(self):
        r = classify(graph_from_permutation(Permutation((1, 2, 3))))
        assert r.cm and r.gorenstein and r.hilbertian
        assert r.a_invariant == -3
        assert r.witnesses["shedding"] is None  # nothing to peel

    def test_isolated_vertex_stripped_for_gorenstein(self):
        g = graph_from_edges(3, [(1, 2)])
        r = classify(g)
        assert r.isolated_vertices == (3,)
        assert r.gorenstein is True  # the stripped graph is one edge
        assert r.cm is True
        assert r.witnesses["shedding"] is not None
        # certificate is expressed in the original labels
        assert r.witnesses["shedding"]["order"] == [2]

    def test_2k2_report(self):
        r = classify(disjoint_edges(2))
        assert r.cm and r.gorenstein and not r.nearly_gorenstein
        assert not r.bicm and not r.hilbertian and r.a_invariant == 0
        assert r.witnesses["gap_witness"] is True
        assert r.oracle["betti_type"] == 1

    def test_consistency_on_small_sweep(self):
        for n in range(1, 6):
            for p in permutations(range(1, n + 1)):
                r = classify(graph_from_permutation(Permutation(p)))
                if r.gorenstein:
                    assert r.cm
                if r.bicm:
                    assert r.cm
                if r.cm:
                    assert r.unmixed
                assert r.cm == r.oracle["reisner_cm"]
                assert r.vertex_decomposable == r.oracle["vertex_decomposable"]
                assert r.reg == r.oracle["betti_reg"]
                if r.cm:
                    assert r.a_invariant == r.oracle["hilbert_a"]
                    assert r.hilbertian == r.oracle["hilbertian"]

    def test_rejects_empty_graph(self):
        from permcm import Graph

        with pytest.raises(ValueError):
            classify(Graph(0, (0,)))

    def test_report_serializes(self):
        import json

        r = classify(graph_from_permutation(Permutation((3, 1, 4, 2))))
        text = json.dumps(r.to_dict(), sort_keys=True)
        assert '"is_permutation": true' in text


class TestClaimNeverFails:
    def test_cm_graphs_up_to_6(self):
        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                cm, _ = cm_by_clique_partition(g)
                if not cm:
                    continue
                kept = [v for v in g.vertices() if g.adj[v]]
                if not kept:
                    continue
                from permcm import induced_subgraph

                stripped, _ = induced_subgraph(g, kept)
                try:
                    cert = extract_shedding_order(stripped)
                except ClaimFailureError as exc:  # pragma: no cover
                    pytest.fail(f"claim failed on {g.edges()}: {exc}")
                assert verify_shedding_certificate(stripped, cert)


class TestGraphFacts:
    def test_sweeps_enumerate_independent_sets_once_per_graph(self, monkeypatch):
        # counted from outside: every module binding of the enumerator is
        # replaced, so a fallback call inside any callee is counted too
        import importlib

        from bruteforce import labelled_survey_rows
        from permcm.cli import _survey_row, run_verify, survey_rows

        original = importlib.import_module("permcm.invariants").maximal_independent_sets
        calls = []

        def counted(g):
            calls.append(g)
            return original(g)

        for name in ("invariants", "complexes", "ideals", "classify", "cli"):
            module = importlib.import_module(f"permcm.{name}")
            if getattr(module, "maximal_independent_sets", None) is original:
                monkeypatch.setattr(module, "maximal_independent_sets", counted)
        # a sweep checks one graph per isomorphism class: 33 at n = 5
        assert run_verify("vd", 5).checked == 120
        assert len(calls) == 33
        calls.clear()
        assert len(survey_rows(5)) == 120
        assert len(calls) == 33
        calls.clear()
        # the labelled sweep checks each of the 120 graphs once
        assert len(labelled_survey_rows(5, _survey_row)) == 120
        assert len(calls) == 120


class TestSheddingWalk:
    @staticmethod
    def count(monkeypatch, module_name, fn_name):
        # counted from outside: every module binding is replaced, so a
        # call inside any callee is counted too
        import importlib

        original = getattr(importlib.import_module(f"permcm.{module_name}"), fn_name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name in ("graphs", "invariants", "complexes", "ideals", "classify", "cli"):
            module = importlib.import_module(f"permcm.{name}")
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
        return calls

    def test_each_step_enumerates_independent_sets_once(self, monkeypatch):
        # K_4 on 2..5 plus three isolated vertices: one enumeration for
        # the graph, one for the stripped K_4, one per peeled vertex
        mis = self.count(monkeypatch, "invariants", "maximal_independent_sets")
        induced = self.count(monkeypatch, "graphs", "induced_subgraph")
        report = classify(graph_from_permutation(Permutation((1, 5, 4, 3, 2, 6, 7))))
        assert report.witnesses["shedding"]["order"] == [5, 4, 3]
        assert len(mis) == 5
        assert len(induced) == 4  # the stripping, then one per peeled vertex

    def test_certificate_check_peels_once_per_step(self, monkeypatch):
        g = disjoint_edges(3)
        cert = extract_shedding_order(g)
        induced = self.count(monkeypatch, "graphs", "induced_subgraph")
        assert verify_shedding_certificate(g, cert)
        assert len(induced) == len(cert.steps)
