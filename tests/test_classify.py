from dataclasses import replace
from itertools import permutations

import pytest

from permcm import (
    ClaimFailureError,
    GraphFacts,
    NotPermutationGraphError,
    Permutation,
    SheddingCertificate,
    classify,
    cm_by_clique_partition,
    complete_graph,
    cycle_graph,
    disjoint_edges,
    extract_shedding_order,
    gap_witness_check,
    graph_from_edges,
    graph_from_permutation,
    path_graph,
    verify_cohesive_order,
    verify_shedding_certificate,
)
from permcm.graphs import mask_of, vbit


def enumerations(monkeypatch):
    """The number of sets found by each enumeration of maximal
    independent sets, counted at the clique search of the one
    enumerator, so a memo hit is not counted."""
    import permcm.invariants

    original = permcm.invariants.maximal_cliques
    sizes = []

    def counted(*args, **kwargs):
        sets = original(*args, **kwargs)
        sizes.append(len(sets))
        return sets

    monkeypatch.setattr(permcm.invariants, "maximal_cliques", counted)
    return sizes


class TestCmByCliquePartition:
    def test_p4(self):
        cm, parts = cm_by_clique_partition(path_graph(4))
        assert cm and len(parts) == 1
        assert parts[0] == ((1, 2), (3, 4))

    def test_remark_graph(self, remark_graph):
        cm, parts = cm_by_clique_partition(remark_graph)
        assert not cm and len(parts) == 2

    def test_complete_graphs(self):
        for n in range(1, 6):
            cm, parts = cm_by_clique_partition(complete_graph(n))
            assert cm and parts[0] == (tuple(range(1, n + 1)),)

    def test_rejects_non_permutation_graph(self):
        with pytest.raises(NotPermutationGraphError):
            cm_by_clique_partition(cycle_graph(5))

    def test_rejects_an_order_that_is_not_a_permutation_of_the_vertices(self):
        # a given order is trusted to be cohesive, but it must at least
        # list the vertices 1..n once each
        for g, order in [(cycle_graph(5), (9,)), (path_graph(4), ()),
                         (path_graph(4), (1, 2, 3, 3)), (path_graph(4), (0, 1, 2, 3))]:
            with pytest.raises(ValueError, match="must be a permutation"):
                cm_by_clique_partition(g, order)
            with pytest.raises(ValueError, match="must be a permutation"):
                GraphFacts(g, order=order).cm

    @pytest.mark.parametrize("order", [(True, 2), (1.0, 2.0)], ids=["bool", "float"])
    def test_rejects_an_order_whose_entries_are_not_ints(self, order):
        # True == 1 and 1.0 == 1, so a set test alone lets both through
        g = complete_graph(2)
        for check in (cm_by_clique_partition, verify_cohesive_order, extract_shedding_order):
            with pytest.raises(ValueError, match="must be a permutation"):
                check(g, order)
        with pytest.raises(ValueError, match="must be a permutation"):
            GraphFacts(g, order=order)


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

    def test_isolated_vertices_are_left_out_in_place(self):
        # 3 is a cone point: no step lists it, and the labels stay the input's
        g = graph_from_permutation(Permutation((2, 1, 3, 5, 4)))
        cert = extract_shedding_order(g)
        assert cert.order == (2, 5) and cert.remaining == (1, 4)
        assert cert.cohesive_order == (1, 2, 4, 5)
        assert all(3 not in step.vertices for step in cert.steps)
        assert verify_shedding_certificate(g, cert)
        # with 3 still listed, the certificate no longer replays
        first = replace(cert.steps[0], vertices=(1, 2, 3, 4, 5), order=(1, 2, 3, 4, 5))
        assert not verify_shedding_certificate(
            g, replace(cert, cohesive_order=first.order, steps=(first,) + cert.steps[1:]))

    def test_edgeless_graph_has_the_empty_certificate(self):
        for n in range(4):
            g = graph_from_edges(n, [])
            cert = extract_shedding_order(g)
            assert cert == SheddingCertificate((), (), (), ())
            assert verify_shedding_certificate(g, cert)

    def test_requires_cm(self, remark_graph):
        # C_4 is unmixed with two partitions; P_3 is not unmixed; P_6,
        # labelled as the inversion graph of 2,4,1,6,3,5, is not unmixed
        # but has exactly one partition into alpha maximal cliques
        p6 = graph_from_permutation(Permutation((2, 4, 1, 6, 3, 5)))
        for g in (remark_graph, cycle_graph(4), path_graph(3), p6):
            with pytest.raises(ValueError, match="only for Cohen-Macaulay inputs"):
                extract_shedding_order(g)

    def test_rejects_an_order_that_is_not_a_permutation_of_the_vertices(self):
        # K_2 has no vertex 3, and a cohesive_order of (1, 2) would hide it
        for order in [(1, 2, 3), (1,), (1, 1), (0, 1)]:
            with pytest.raises(ValueError, match="must be a permutation"):
                extract_shedding_order(complete_graph(2), order)

    def test_certificate_independent_of_chosen_order(self):
        # any cohesive order yields a certificate that re-verifies
        g = graph_from_permutation(Permutation((2, 1, 4, 3, 5)))
        g_stripped = disjoint_edges(2)
        for p in permutations(range(1, 5)):
            if verify_cohesive_order(g_stripped, p):
                cert = extract_shedding_order(g_stripped, order=p)
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

    def test_peel_accepts_exactly_the_shedding_vertices(self):
        # j sheds when every maximal independent set of g - j stays
        # maximal in g, that is, contains a neighbour of j; the walk
        # only peels vertices that have one
        from bruteforce import all_graphs, brute_maximal_independent_sets
        from permcm import induced_subgraph
        from permcm.classify import _peel

        for n in range(1, 6):
            for g in all_graphs(n):
                for j in g.vertices():
                    if not g.adj[j]:
                        continue
                    smaller = induced_subgraph(g, g.full_mask & ~vbit(j))
                    sheds = all(
                        any(g.has_edge(j, v if v < j else v + 1) for v in s)
                        for s in brute_maximal_independent_sets(smaller)
                    )
                    assert (_peel(g, j) is not None) == sheds, (g.edges(), j)

    def test_partition_into_non_maximal_cliques_fails(self):
        # K_3 split as {1} | {2, 3}: block 2 still holds the shedding
        # vertex 3 and its lower cover 2, but neither block is maximal
        g = complete_graph(3)
        cert = extract_shedding_order(g)
        first = replace(cert.steps[0], partition=((1,), (2, 3)), t=2)
        tampered = replace(cert, steps=(first,) + cert.steps[1:])
        assert verify_shedding_certificate(g, tampered) is False

    @pytest.mark.parametrize("field, value", [
        ("remaining", (1, 2, 3)),
        ("order", (4, 2)),
        ("cohesive_order", (4, 3, 2, 1)),
    ])
    def test_tampered_top_level_field_fails(self, field, value):
        # the fields `shed` prints: the shedding vertices in step order,
        # the survivors of the last step and the first step's order
        g = disjoint_edges(2)
        cert = extract_shedding_order(g)
        assert getattr(cert, field) != value
        assert not verify_shedding_certificate(g, replace(cert, **{field: value}))

    @pytest.mark.parametrize("field, value", [
        ("t", 0), ("t", 3), ("t", -1),
        ("shedding_vertex", 0), ("shedding_vertex", 5), ("shedding_vertex", 2),
        ("lower_cover", 0), ("lower_cover", 5), ("lower_cover", 2),
        ("partition", ((0,), (3, 4))), ("partition", ((1,), (3, 4, 5))),
        ("partition", ((1, 2), (3, 4))),
        ("vertices", (0, 1, 3, 4)), ("vertices", (1, 2, 3, 4)),
        ("order", (0, 3, 4)), ("order", (1, 3, 4, 5)), ("order", (2, 3, 4)),
    ])
    def test_tampered_step_fails_without_raising(self, field, value):
        # step 2 of 2K_2 sheds 4 from {1, 3, 4}: a block index out of
        # 1..len(partition), or a label that is 0, out of range or
        # already shed (2), must be rejected
        g = disjoint_edges(2)
        cert = extract_shedding_order(g)
        steps = (cert.steps[0], replace(cert.steps[1], **{field: value}))
        tampered = replace(
            cert, steps=steps, order=tuple(s.shedding_vertex for s in steps)
        )
        assert verify_shedding_certificate(g, tampered) is False


def gorenstein_flags(g):
    """(gorenstein, strictly nearly Gorenstein) of the graph's facts."""
    facts = GraphFacts(g)
    return facts.gorenstein, facts.nearly_gorenstein


class TestGorenstein:
    def test_three_disjoint_edges(self):
        assert gorenstein_flags(disjoint_edges(3)) == (True, False)

    def test_k5(self):
        assert gorenstein_flags(complete_graph(5)) == (False, True)

    def test_p4_is_its_own_complement(self):
        assert gorenstein_flags(path_graph(4)) == (False, True)

    def test_k2_gorenstein_not_nearly(self):
        assert gorenstein_flags(complete_graph(2)) == (True, False)

    def test_isolated_vertices_are_ignored(self):
        assert gorenstein_flags(graph_from_edges(3, [(1, 2)])) == (True, False)
        k3_and_a_point = graph_from_edges(4, [(1, 2), (1, 3), (2, 3)])
        assert gorenstein_flags(k3_and_a_point) == (False, True)


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

    def test_agrees_with_subset_walk(self):
        from bruteforce import all_graphs, subset_walk_gap_witness_check

        graphs = [g for n in range(6) for g in all_graphs(n)]
        graphs += [
            graph_from_permutation(Permutation(p))
            for n in range(1, 8) for p in permutations(range(1, n + 1))
        ]
        for g in graphs:
            assert gap_witness_check(g) == subset_walk_gap_witness_check(g), g.edges()


def bicm_flags(g):
    """(bi-CM, Hilbertian, a-invariant) of the graph's facts."""
    facts = GraphFacts(g)
    a, hilbertian = facts.a_invariant
    return facts.bicm, hilbertian, a


class TestBicmHilbertian:
    def test_p4(self):
        assert bicm_flags(path_graph(4)) == (True, True, -1)

    def test_2k2(self):
        assert bicm_flags(disjoint_edges(2)) == (False, False, 0)

    def test_complete(self):
        for n in range(2, 6):
            assert bicm_flags(complete_graph(n)) == (True, False, 0)

    def test_rejects_non_cm(self, remark_graph):
        with pytest.raises(ValueError):
            bicm_flags(remark_graph)


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

                stripped = induced_subgraph(g, mask_of(kept))
                try:
                    cert = extract_shedding_order(stripped)
                except ClaimFailureError as exc:  # pragma: no cover
                    pytest.fail(f"claim failed on {g.edges()}: {exc}")
                assert verify_shedding_certificate(stripped, cert)


class TestCertificatesOfEveryPermutationGraph:
    def test_extraction_matches_facts_and_reverifies_up_to_6(self):
        # in the input's labels, isolated vertices or not
        with_isolated = 0
        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                g = graph_from_permutation(Permutation(p))
                facts = GraphFacts(g)
                if not facts.cm:
                    continue
                cert = extract_shedding_order(g)
                if facts.shedding is not None:
                    assert cert == facts.shedding, p
                    with_isolated += bool(g.isolated_vertices())
                assert verify_shedding_certificate(g, cert), p
        assert with_isolated == 75


class TestGraphFacts:
    def test_shedding_matches_relabel_then_translate(self):
        # the certificate built in the input's labels equals the one
        # extracted on the stripped graph and mapped back; graphs with
        # isolated vertices are where the two routes could differ
        from bruteforce import translated_shedding

        with_isolated = 0
        for n in range(1, 7):
            for p in permutations(range(1, n + 1)):
                facts = GraphFacts(graph_from_permutation(Permutation(p)))
                if not facts.cm:
                    continue
                expected = translated_shedding(facts.g, facts.order)
                assert facts.shedding == expected, p
                if expected is not None and facts.g.isolated_vertices():
                    with_isolated += 1
        assert with_isolated > 0

    def test_sweeps_enumerate_independent_sets_once_per_graph(self, monkeypatch):
        from bruteforce import labelled_survey_rows
        from permcm.cli import _survey_row, run_verify, survey_rows

        calls = enumerations(monkeypatch)
        # a sweep checks one graph per isomorphism class: 33 at n = 5
        assert run_verify("vd", 5).checked == 120
        assert len(calls) == 33
        calls.clear()
        assert len(survey_rows(5).keys) == 120
        assert len(calls) == 33
        calls.clear()
        # the labelled sweep checks each of the 120 graphs once
        assert len(labelled_survey_rows(5, _survey_row)) == 120
        assert len(calls) == 120


    def test_nearly_gate_matches_the_ungated_flag(self):
        # the edge-count gate only skips recognition: every labelled graph
        # with n <= 6 and every S_7 class gets the flag it got before
        from bruteforce import all_graphs, serial_permutation_classes, ungated_nearly_gorenstein
        from permcm.cli import _facts

        graphs = [g for n in range(7) for g in all_graphs(n)]
        graphs += [_facts(members[0]).g for members in serial_permutation_classes(7)]
        flags = []
        for g in graphs:
            facts = GraphFacts(g)
            flags.append(facts.nearly_gorenstein)  # gated, before structure is kept
            assert flags[-1] == ungated_nearly_gorenstein(facts), g.edges()
        assert 0 < sum(flags) < len(flags)

    def test_cm_gate_matches_the_partition_test(self):
        # the partition search runs on unmixed graphs only: every labelled
        # graph with n <= 6 and every S_7 class gets the flag of the full
        # test.  Both trust a given order to be cohesive and check only
        # that it lists the vertices, so the identity order given to
        # every graph checks the gate on each of them without
        # recognition.
        from bruteforce import all_graphs, serial_permutation_classes
        from permcm.cli import _facts

        graphs = [g for n in range(7) for g in all_graphs(n)]
        graphs += [_facts(members[0]).g for members in serial_permutation_classes(7)]
        flags = []
        for g in graphs:
            order = g.vertices()
            flags.append(GraphFacts(g, order).cm)
            assert flags[-1] == cm_by_clique_partition(g, order)[0], g.edges()
        assert 0 < sum(flags) < len(flags)

    def test_cm_gate_rejects_graphs_without_a_cohesive_order(self):
        # C_5 is unmixed; with a pendant vertex it is mixed
        mixed = graph_from_edges(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 6)])
        for g in (cycle_graph(5), mixed):
            with pytest.raises(NotPermutationGraphError):
                GraphFacts(g).cm

    def test_report_invariants_match_the_tuple_form(self):
        # the report's invariants are the seven fields compute_invariants
        # returned when it built the sorted tuples itself
        from dataclasses import asdict

        from bruteforce import all_graphs, serial_permutation_classes, tuple_invariants

        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        graphs += [graph_from_permutation(Permutation(m[0])) for m in serial_permutation_classes(6)]
        for g in graphs:
            report = classify(g, with_oracle=False)
            assert report.invariants == asdict(tuple_invariants(g)), g.edges()

    def test_classify_searches_the_matchings_once(self, monkeypatch, remark_graph):
        import permcm.invariants

        original = permcm.invariants.matching_invariants
        calls = []

        def counted(g):
            calls.append(g)
            return original(g)

        monkeypatch.setattr(permcm.invariants, "matching_invariants", counted)
        for g in (remark_graph, path_graph(4), cycle_graph(5), disjoint_edges(3),
                  graph_from_permutation(Permutation((2, 4, 5, 1, 3)))):
            calls.clear()
            classify(g)
            assert calls == [g]


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
        mis = enumerations(monkeypatch)
        induced = self.count(monkeypatch, "graphs", "induced_subgraph")
        report = classify(graph_from_permutation(Permutation((1, 5, 4, 3, 2, 6, 7))))
        assert report.witnesses["shedding"]["order"] == [5, 4, 3]
        assert len(mis) == 5
        assert len(induced) == 4  # the stripping, then one per peeled vertex

    def test_classify_enumerates_each_graph_once(self, monkeypatch):
        # 3K_2, then the three graphs the walk peels off it; the walk and
        # the gap witness reread the sets of 3K_2 itself
        sizes = enumerations(monkeypatch)
        classify(disjoint_edges(3), with_oracle=False)
        assert sizes == [8, 4, 2, 1]

    def test_certificate_check_peels_once_per_step(self, monkeypatch):
        g = disjoint_edges(3)
        cert = extract_shedding_order(g)
        induced = self.count(monkeypatch, "graphs", "induced_subgraph")
        assert verify_shedding_certificate(g, cert)
        assert len(induced) == len(cert.steps)

    @pytest.mark.parametrize("g", [disjoint_edges(2), path_graph(4)], ids=["2K_2", "P_4"])
    def test_classify_reports_the_extracted_certificate(self, g):
        # nothing to strip: the walk from the facts gives the certificate
        # that extract_shedding_order gives
        report = classify(g)
        assert report.cm and report.witnesses["shedding"] is not None
        assert extract_shedding_order(g).to_dict() == report.witnesses["shedding"]
