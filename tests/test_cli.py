import json
import os
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest

from itertools import permutations
from math import factorial

from permcm import cli
from permcm.classes import class_records
from permcm.classify import GraphFacts
from permcm.cli import main, render_survey, run_verify, survey_rows
from permcm.graphs import graph_from_permutation, inversions
from permcm.invariants import InvariantSet
from bruteforce import (
    csv_writer_survey,
    inversion_edges_cell,
    serial_permutation_classes,
    survey_members,
)


def _json_oracle(survey) -> str:
    """The JSON survey as one ``json.dumps`` of every member's dict."""
    return json.dumps(survey_members(survey), indent=2, sort_keys=True) + "\n"


def _chunks(survey, fmt: str) -> list[str]:
    """What ``render_survey`` writes, one string a call."""
    chunks = []
    render_survey(survey, fmt, chunks.append)
    return chunks


def _rendered(survey, fmt: str) -> str:
    return "".join(_chunks(survey, fmt))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassifyCommand:
    def test_perm_input(self, capsys):
        code, out, _ = run(capsys, "classify", "--perm", "2,4,5,1,3")
        assert code == 0
        report = json.loads(out)
        assert report["is_permutation"] is True
        assert report["edges"] == [[1, 2], [1, 4], [1, 5], [3, 4], [3, 5]]

    def test_graph_file(self, capsys, tmp_path, remark_graph):
        from permcm import graph_to_json

        path = tmp_path / "remark.json"
        path.write_text(json.dumps(graph_to_json(remark_graph)))
        code, out, _ = run(capsys, "classify", "--graph", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["cm"] is False and report["unmixed"] is True

    def test_trivial_permutation(self, capsys):
        code, out, _ = run(capsys, "classify", "--perm", "1,2,3")
        report = json.loads(out)
        assert code == 0
        assert report["cm"] is True and report["a_invariant"] == -3

    def test_no_oracle(self, capsys):
        code, out, _ = run(capsys, "classify", "--perm", "2,1", "--no-oracle")
        assert code == 0
        assert json.loads(out)["oracle"] is None

    def test_bad_perm_exits_2(self, capsys):
        code, _, err = run(capsys, "classify", "--perm", "1,1,2")
        assert code == 2 and "error" in err

    def test_bad_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2, "edges": [[1, 1]]}')
        code, _, err = run(capsys, "classify", "--graph", str(path))
        assert code == 2 and "error" in err

    def test_missing_input_exits_2(self, capsys):
        code, _, err = run(capsys, "classify")
        assert code == 2

    def test_c14_without_oracle_finishes(self, capsys, tmp_path):
        # C_14 is not a permutation graph; recognising that used to take
        # exponential time
        from permcm import cycle_graph, graph_to_json

        path = tmp_path / "c14.json"
        path.write_text(json.dumps(graph_to_json(cycle_graph(14))))
        code, out, _ = run(capsys, "classify", "--no-oracle", "--graph", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["is_permutation"] is False and report["cohesive_order"] is None

    def test_unparseable_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "classify", "--graph", str(path))
        assert code == 2

    @pytest.mark.parametrize("edge", [5, None, "12", {"a": 1, "b": 2}])
    def test_edge_that_is_not_a_pair_exits_2(self, capsys, tmp_path, edge):
        path = tmp_path / "edge.json"
        path.write_text(json.dumps({"n": 3, "edges": [edge]}))
        code, out, err = run(capsys, "classify", "--graph", str(path))
        assert code == 2 and out == ""
        assert f"edge {edge!r} is not a pair" in err

    @pytest.mark.parametrize("perm", ["1_0,9,8,7,6,5,4,3,2,1", "+2,1", "\u0662,1"])
    def test_perm_entries_are_ascii_digits(self, capsys, perm):
        code, out, err = run(capsys, "classify", "--perm", perm)
        assert code == 2 and out == "" and "bad permutation" in err

    @pytest.mark.parametrize("perm", ["2,,1", "2,1,", ",2,1", "2, ,1"])
    def test_empty_perm_entry_exits_2(self, capsys, perm):
        code, out, err = run(capsys, "classify", "--perm", perm)
        assert code == 2 and out == "" and "bad permutation" in err

    @pytest.mark.parametrize("perm", ["2,1,3", "2 1 3", "2, 1, 3", " 2 ,1\t3 "])
    def test_commas_and_whitespace_separate_perm_entries(self, capsys, perm):
        code, out, _ = run(capsys, "classify", "--no-oracle", "--perm", perm)
        assert code == 0 and json.loads(out)["edges"] == [[1, 2]]

    def test_perm_and_graph_together_exit_2(self, capsys, tmp_path):
        path = tmp_path / "k2.json"
        path.write_text('{"n": 2, "edges": [[1, 2]]}')
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--perm", "1,2", "--graph", str(path)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "not allowed with" in captured.err


class TestVerifyCommand:
    def test_vd_small(self, capsys):
        code, out, _ = run(capsys, "verify", "vd", "--n", "4")
        assert code == 0
        result = json.loads(out)
        assert result["discrepancies"] == []
        assert result["total_permutations"] == 24
        assert result["distinct_graphs"] == result["total_permutations"]

    def test_cap_exceeded_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "vd", "--n", "9")
        assert code == 2 and "cap" in err

    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMCM_CAPS", "gap=3")
        code, _, err = run(capsys, "verify", "gap", "--n", "4")
        assert code == 2 and "cap" in err

    @pytest.mark.parametrize("caps,entry,why", [
        ("vdd=8", "'vdd=8'", "unknown cap"),
        ("vd=8x", "'vd=8x'", "name=integer"),  # vd is not read by verify cm
        ("cm=-1", "'cm=-1'", "negative"),
        ("cm=7, cm=6", "'cm=6'", "set twice"),
    ])
    def test_bad_caps_entry_exits_2(self, capsys, monkeypatch, caps, entry, why):
        monkeypatch.setenv("PERMCM_CAPS", caps)
        code, out, err = run(capsys, "verify", "cm", "--n", "3")
        assert code == 2 and out == ""
        assert entry in err and why in err

    def test_bad_caps_fail_commands_that_read_no_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("PERMCM_CAPS", "vdd=8")
        code, out, err = run(capsys, "shed", "--perm", "2,1")
        assert code == 2 and out == "" and "'vdd=8'" in err

    @pytest.mark.parametrize("argv", [
        ("--n", "-1"),
        ("--n", "3", "--jobs", "0"),
        ("--n", "3", "--jobs", "-2"),
    ])
    def test_bad_sweep_sizes_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", "cm", *argv)
        assert code == 2 and out == "" and "must be" in err

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_every_theorem_holds_on_the_smallest_sweeps(self, capsys, n):
        from permcm.cli import _CHECKS

        for theorem in sorted(_CHECKS):
            code, out, _ = run(capsys, "verify", theorem, "--n", str(n))
            doc = json.loads(out)
            assert code == 0 and doc["discrepancies"] == [], (theorem, doc)

    def test_the_ring_selects_the_structurally_gorenstein_graphs(self):
        # the gap sweep selects by the ring; on every class with n <= 7,
        # isolated vertices included (the goren sweep skips those, and
        # an isolated vertex cones the complex), Reisner CM and Hochster
        # type 1 hold exactly where the structural flag does
        classes = [c for n in range(1, 8) for c in serial_permutation_classes(n)]
        positives = 0
        for members in classes:
            f = cli._facts(members[0])
            ring = cli._oracle_gorenstein(f.complex)
            assert ring == f.gorenstein, members[0]
            positives += ring
        assert len(classes) == 969 and positives == 19

    def test_unknown_theorem_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope", "--n", "3"])
        assert exc.value.code == 2


class TestSurveyCommand:
    def test_rows_n1(self):
        survey = survey_rows(1)
        assert len(survey.keys) == 1 and survey_members(survey)[0]["edges"] == ""

    def test_distinct_graph_count_n3(self):
        # sigma <-> inversion set is a bijection, so S_3 gives 6 rows
        assert len(survey_rows(3).keys) == 6

    def test_csv_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(capsys, "survey", "--n", "4", "--out", str(out1))[0] == 0
        assert run(capsys, "survey", "--n", "4", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_matches_serial(self):
        assert _rendered(survey_rows(4), "csv") == _rendered(survey_rows(4, jobs=2), "csv")

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_out_file_holds_the_stdout_bytes(self, capsys, tmp_path, fmt):
        # the file takes the rendered chunks as they are made, as stdout does
        out = tmp_path / "survey.txt"
        _, stdout, _ = run(capsys, "survey", "--n", "7", "--format", fmt)
        code, message, _ = run(capsys, "survey", "--n", "7", "--format", fmt, "--out", str(out))
        assert code == 0 and message == f"wrote 5040 rows to {out}\n"
        assert out.read_text(encoding="utf-8") == stdout

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "survey", "--n", "2", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 2
        assert {r["edges"] for r in rows} == {"", "1-2"}

    def test_header_and_booleans(self, capsys):
        code, out, _ = run(capsys, "survey", "--n", "2")
        header, *rows = out.strip().splitlines()
        assert header.startswith("edges,alpha,tau,matching")
        assert any(",1," in r for r in rows)

    def test_cap(self, capsys):
        code, _, err = run(capsys, "survey", "--n", "9")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--n", "-3"),
        ("--n", "3", "--jobs", "0"),
    ])
    def test_bad_sweep_sizes_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "survey", *argv)
        assert code == 2 and out == "" and "must be" in err


class TestSurveyFastPaths:
    def test_pair_table_selects_the_inversions(self):
        # every permutation of S_n, n <= 7: its edge bytes name its
        # sorted inversions through the pair table, none is 0, and with
        # any tag after a zero byte the keys sort as the inversion lists
        for n in range(8):
            pairs, cells = cli._pair_table(n)
            members = list(permutations(range(1, n + 1)))
            edges = [cli._edge_bytes(p, pairs) for p in members]
            assert [";".join(cells[b] for b in e) for e in edges] == list(
                map(inversion_edges_cell, members))
            assert all(0 not in e for e in edges)
            keys = [e + b"\0" + (len(members) - i).to_bytes(2, "big") for i, e in enumerate(edges)]
            by_key = sorted(range(len(members)), key=keys.__getitem__)
            assert by_key == sorted(range(len(members)), key=lambda i: inversions(members[i]))

    @pytest.mark.parametrize("n", range(7))
    def test_renderer_matches_csv_writer(self, n):
        survey = survey_rows(n)
        assert _rendered(survey, "csv") == csv_writer_survey(survey_members(survey))

    def test_renderer_on_mixed_cells(self):
        # each class's row is formatted on its own: True and 1, False
        # and 0 format alike in CSV, while JSON tells a bool from the
        # int it equals, and None from both; the tags take no byte
        # (position 0), one or two
        values = [None, True, 1, False, 0, -1, -12, 7, 1, True, None, 0, False]
        rows = []
        for i, value in enumerate(values):
            row = dict.fromkeys(cli._SURVEY_COLUMNS[1:], 0)
            row.update(a_invariant=value, hilbertian=values[-1 - i], cm=value)
            rows.append(tuple(row[c] for c in cli._SURVEY_COLUMNS[1:]))
        rows += rows[::-1] * 20
        edges = [b"", b"\x01\x03", b"\x02"]
        keys = sorted(edges[i % 3] + b"\0" + i.to_bytes((i.bit_length() + 7) // 8, "big")
                      for i in range(len(rows)))
        survey = cli.Survey(3, rows, keys)
        assert _rendered(survey, "csv") == csv_writer_survey(survey_members(survey))
        assert _rendered(survey, "json") == _json_oracle(survey)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("n", range(7))
    def test_json_renderer_matches_json_dumps(self, n, jobs):
        # each class's text is formatted once around its members' edges
        survey = survey_rows(n, jobs=jobs)
        assert _rendered(survey, "json") == _json_oracle(survey)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_render_comes_in_chunks(self, fmt):
        # the text is written chunk by chunk, never as one document:
        # the head, one chunk per _CHUNK members, and the end
        survey = survey_rows(7)
        chunks = _chunks(survey, fmt)
        assert len(chunks) == 2 + -(-len(survey.keys) // cli._CHUNK) == 4
        members = survey_members(survey)
        assert "".join(chunks) == (csv_writer_survey(members) if fmt == "csv"
                                   else _json_oracle(survey))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_members_of_a_class_share_one_row(self, jobs):
        # one row tuple per class, in column order, and each key tags
        # the row of its class; every class has a member
        for n in range(7):
            survey = survey_rows(n, jobs=jobs)
            assert len(survey.keys) == factorial(n)
            assert len(survey.rows) == len(class_records(n))
            assert {type(row) for row in survey.rows} == {tuple}
            assert {len(row) for row in survey.rows} == {len(cli._SURVEY_COLUMNS) - 1}
            tags = {int.from_bytes(key.partition(b"\0")[2], "big") for key in survey.keys}
            assert tags == set(range(len(survey.rows)))
            assert survey.keys == sorted(survey.keys)

    def test_survey_retains_under_100_bytes_per_permutation(self):
        # a permutation is held as one bytes key, and the class records
        # and the children's members are dropped once the map ends;
        # a member that kept a tuple and its edges cell besides its key
        # took 228 bytes at n = 7
        import gc
        import tracemalloc

        survey_rows(7)  # the pair table and the simple orbits stay per process
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            survey = survey_rows(7)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(survey.keys) == 5040
        assert retained <= 100 * 5040, retained

    def test_pool_runs_inside_survey_rows(self, capsys, monkeypatch):
        # the benchmark's pool utilization divides the pool's CPU by the
        # wall time of survey_rows, so the pool must run inside it and
        # its result come back built: rows and sorted keys, not a lazy
        # iterable
        running, calls, returned = [], [], []
        map_classes, rows_of = cli._map_classes, cli.survey_rows

        def mapped(*args):
            calls.append(bool(running))
            return map_classes(*args)

        def rows_while_running(*args, **kwargs):
            running.append(True)
            try:
                survey = rows_of(*args, **kwargs)
            finally:
                running.clear()
            returned.append(survey)
            return survey

        monkeypatch.setattr(cli, "_map_classes", mapped)
        monkeypatch.setattr(cli, "survey_rows", rows_while_running)
        assert run(capsys, "survey", "--n", "5", "--jobs", "2")[0] == 0
        assert calls == [True]
        assert [(type(s), type(s.rows), type(s.keys)) for s in returned] == [
            (cli.Survey, list, list)]
        assert len(returned[0].keys) == 120 and returned[0].keys == sorted(returned[0].keys)

    def test_partitions_searched_for_unmixed_classes_only(self, monkeypatch):
        # CM is unmixed and a unique partition, so the survey searches
        # the partitions of the one graph of each unmixed class; the
        # classes are counted here by brute force
        from bruteforce import brute_canonical, brute_maximal_independent_sets

        module = sys.modules["permcm.classify"]  # the package's classify is the function
        original = module.maximal_clique_partitions
        searched = []

        def counted(g, *args, **kwargs):
            searched.append(g)
            return original(g, *args, **kwargs)

        monkeypatch.setattr(module, "maximal_clique_partitions", counted)
        survey_rows(6)

        def unmixed(g):
            return len({len(s) for s in brute_maximal_independent_sets(g)}) == 1

        classes = {brute_canonical(g) for g in map(graph_from_permutation, permutations(range(1, 7)))
                   if unmixed(g)}
        assert all(map(unmixed, searched))
        assert sorted(map(brute_canonical, searched)) == sorted(classes)


# Predicates that no graph of S_6 sets: none.  A name listed here is
# reported by its check but never true, so the sweep checks nothing
# positively through it.
NEVER_FIRES: dict[str, set[str]] = {theorem: set() for theorem in cli._CHECKS}


def test_unmixedness_sweeps_make_no_matching_search(monkeypatch):
    # vd, cm and covs read unmixedness from independence_invariants, so
    # none of them runs the matching branch and bound; ainv reads im
    import permcm.invariants

    calls = []
    search = permcm.invariants.matching_invariants

    def counted(g):
        calls.append(g)
        return search(g)

    monkeypatch.setattr(permcm.invariants, "matching_invariants", counted)
    for theorem in ("vd", "cm", "covs"):
        run_verify(theorem, 6)
    assert calls == []
    run_verify("ainv", 6)
    assert calls


@pytest.mark.parametrize("theorem", sorted(cli._CHECKS))
def test_every_predicate_fires_at_n6(monkeypatch, theorem):
    # the names a check reports, recorded as the sweep runs it, against
    # the names its counts hold: each must be true on some graph
    check, reported = cli._CHECKS[theorem], set()

    def recorded(f):
        res = check(f)
        if res is not None:
            reported.update(res["predicates"])
        return res

    monkeypatch.setitem(cli._CHECKS, theorem, recorded)
    counts = run_verify(theorem, 6).counts
    assert reported
    assert reported - set(counts) == NEVER_FIRES[theorem]


def test_nearly_sweep_recognises_only_the_gated_classes(monkeypatch):
    # the nearly check reads the structure flags only for a graph it
    # calls nearly Gorenstein, so recognition runs only where the flag's
    # edge-count gate sends it: classes with no isolated vertex and
    # C(n,2) or C(n,2) - n + 1 edges
    module = sys.modules["permcm.classify"]
    original = module.recognize_structure
    calls = []

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(module, "recognize_structure", counted)
    n = 6
    result = run_verify("nearly", n)
    full = n * (n - 1) // 2
    gated = [g for g in (graph_from_permutation(members[0])
                         for members in serial_permutation_classes(n))
             if not g.isolated_vertices() and g.edge_count() in (full, full - n + 1)]
    assert len(calls) == len(gated) == 14
    assert result.ok


# (theorem, permutation, cached fact preset, its value, result): each
# check on the facts of an inversion graph with one theorem-side fact
# forced wrong, recorded before the checks built their results through
# one helper.  The ``shed`` check reads no fact that forces its failure.
FORCED_FAILURES = [
    ("vd", (2, 1), "cm", False,
     {"ok": False,
      "predicates": {"reisner_cm": True, "cm_partition": False, "unmixed_and_vd": True},
      "detail": "reisner=True partition=False unmixed+vd=True"}),
    ("cm", (2, 1), "cm_partitions", (False, ()),
     {"ok": False,
      "predicates": {"oracle_cm": True, "unmixed": True, "unique_partition": False},
      "detail": "cm=True unmixed=True partitions=0"}),
    ("goren", (2, 1), "gorenstein", False,
     {"ok": False,
      "predicates": {"oracle_gorenstein": True, "disjoint_edges": False},
      "detail": "cm_and_type1=True disjoint_edges=False"}),
    ("nearly", (3, 2, 1), "nearly_gorenstein", False,
     {"ok": False,
      "predicates": {"nearly_structural": False, "facet_points": True, "facet_path": False},
      "detail": "nearly=False points=True path=False"}),
    ("nearly", (3, 1, 2), "nearly_gorenstein", True,
     {"ok": False,
      "predicates": {"nearly_structural": True, "facet_points": False, "facet_path": False},
      "detail": "nearly=True points=False path=False"}),
    ("ainv", (2, 1), "a_invariant", (5, False),
     {"ok": False,
      "predicates": {"reg_equals_im": True, "cm": True, "a_formula": False,
                     "hilbertian_window": True},
      "detail": "hilbert a=0 formula=5"}),
    ("ainv", (2, 1), "invariants", InvariantSet(1, 1, True, 1, 2),
     {"ok": False,
      "predicates": {"reg_equals_im": False, "cm": True, "a_formula": True,
                     "hilbertian_window": True},
      "detail": "betti reg=1 im=2"}),
    ("bicm", (2, 1), "cm", False,
     {"ok": False,
      "predicates": {"cm_and_im1": False, "oracle_bicm": True},
      "detail": "cm∧im=1 is False, oracle True"}),
    ("hilb", (2, 1), "a_invariant", (0, True),
     {"ok": False,
      "predicates": {"a_window_identity": True, "cm": True, "formula_hilbertian": False},
      "detail": "a=0 window=False"}),
    ("covs", (2, 1), "cm", False,
     {"ok": False,
      "predicates": {"vertex_splittable": True, "linear_quotients": True, "cm": False},
      "detail": "split=True lq=True cm=False"}),
    ("gap", (2, 1, 4, 3), "gap_lemma", False,
     {"ok": False,
      "predicates": {"gap_witness": False},
      "detail": "some neighbourhood-deleted graph is not 2K_2"}),
]


@pytest.mark.parametrize("theorem,perm,fact,value,expected", FORCED_FAILURES,
                         ids=[f"{t}-{fact}" for t, _, fact, _, _ in FORCED_FAILURES])
def test_forced_failure_result(theorem, perm, fact, value, expected):
    f = GraphFacts(graph_from_permutation(perm), order=tuple(range(1, len(perm) + 1)))
    f.__dict__[fact] = value  # the cached property's slot
    res = cli._CHECKS[theorem](f)
    assert res == expected
    assert list(res["predicates"]) == list(expected["predicates"])


class TestShedCommand:
    def test_cm_input(self, capsys):
        code, out, _ = run(capsys, "shed", "--perm", "2,1,4,3")
        assert code == 0
        cert = json.loads(out)
        assert cert["order"] == [2, 4]
        assert len(cert["steps"]) == 2

    def test_isolated_stripped_and_reported(self, capsys):
        code, out, _ = run(capsys, "shed", "--perm", "2,1,3")
        assert code == 0
        cert = json.loads(out)
        assert cert["isolated_vertices_stripped"] == [3]
        assert cert["order"] == [2]

    def test_non_cm_exits_1(self, capsys, tmp_path, remark_graph):
        from permcm import graph_to_json

        path = tmp_path / "remark.json"
        path.write_text(json.dumps(graph_to_json(remark_graph)))
        code, _, err = run(capsys, "shed", "--graph", str(path))
        assert code == 1 and "Cohen-Macaulay" in err

    def test_non_permutation_exits_1(self, capsys, tmp_path):
        from permcm import cycle_graph, graph_to_json

        path = tmp_path / "c5.json"
        path.write_text(json.dumps(graph_to_json(cycle_graph(5))))
        code, _, err = run(capsys, "shed", "--graph", str(path))
        assert code == 1 and "permutation" in err

    @pytest.mark.parametrize("perm", ["2,1,3,5,4", "2,1,3", "1,5,4,3,2,6,7", "1,2,3", "3,1,4,2"])
    def test_printed_certificate_reverifies(self, capsys, perm):
        from permcm import (
            Permutation,
            SheddingCertificate,
            ShedStep,
            graph_from_permutation,
            verify_shedding_certificate,
        )

        def tuples(x):
            return tuple(map(tuples, x)) if isinstance(x, list) else x

        code, out, _ = run(capsys, "shed", "--perm", perm)
        assert code == 0
        doc = json.loads(out)
        cert = SheddingCertificate(
            order=tuples(doc["order"]),
            cohesive_order=tuples(doc["cohesive_order"]),
            steps=tuple(ShedStep(**{k: tuples(v) for k, v in s.items()})
                        for s in doc["steps"]),
            remaining=tuples(doc["remaining"]),
        )
        g = graph_from_permutation(Permutation(tuple(map(int, perm.split(",")))))
        assert verify_shedding_certificate(g, cert)

    @pytest.mark.parametrize("perm", ["3,1,4,2", "2,1,4,3", "2,1,3", "2,1,3,6,5,4"])
    def test_payload_is_classify_witness(self, capsys, perm):
        code, out, _ = run(capsys, "shed", "--perm", perm)
        assert code == 0
        _, report_out, _ = run(capsys, "classify", "--perm", perm, "--no-oracle")
        report = json.loads(report_out)
        expected = dict(report["witnesses"]["shedding"],
                        isolated_vertices_stripped=report["isolated_vertices"])
        assert json.loads(out) == expected


# 20K_2 (n = 40) has 2^20 maximal independent sets
TWENTY_K2 = ",".join(f"{2 * k + 2},{2 * k + 1}" for k in range(20))


@pytest.mark.parametrize("argv", [
    ("shed",),
    ("ideal",),
    ("classify", "--no-oracle"),
])
def test_independent_set_enumeration_stops_at_the_cap(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--perm", TWENTY_K2)
    assert code == 2 and out == ""
    assert ("maximal independent set count (a lower bound) size 1025 exceeds the "
            "'independent_sets' cap 1024") in err
    assert time.perf_counter() - start < 2.0


def test_matching_search_on_k30_stops_at_its_ceiling():
    # K_30 has 435 edges, any two of them adjacent: the matching search
    # must stop at 15 edges rather than prove that no 16 fit
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    perm = ",".join(str(v) for v in range(30, 0, -1))
    result = subprocess.run(
        [sys.executable, "-m", "permcm", "classify", "--no-oracle", "--perm", perm],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    invariants = report["invariants"]
    assert (invariants["matching"], invariants["induced_matching"]) == (15, 1)


@pytest.mark.parametrize("command", ["classify", "shed", "ideal"])
def test_deep_recursion_exits_2(capsys, tmp_path, command):
    # the leaves of K_{1,1200} are a 1,200-clique of the complement, so
    # the clique search recurses 1,200 deep
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"n": 1201, "edges": [[1, k] for k in range(2, 1202)]}))
    code, out, err = run(capsys, command, "--graph", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "1201" in err


def test_deeply_nested_json_exits_2(capsys, tmp_path):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, "classify", "--graph", str(path))
    assert code == 2 and out == "" and err.startswith("error:")


class TestIdealCommand:
    def test_p4(self, capsys):
        code, out, _ = run(capsys, "ideal", "--perm", "3,1,4,2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["generators"]) == 3
        assert payload["linear_quotients_order"] is not None
        assert payload["vertex_splittable"] is not None

    def test_power_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ideal", "--perm", "3,2,1", "--power", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --power 2" in capsys.readouterr().err

    def test_zero_vertex_graph_has_the_unit_ideal(self, capsys, tmp_path):
        # like every edgeless graph: the empty set is its one maximal
        # independent set, so the empty cover generates (1)
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 0, "edges": []}))
        code, out, _ = run(capsys, "ideal", "--graph", str(path))
        assert code == 0
        payload = json.loads(out)
        assert payload["generators"] == [[]]
        assert payload["linear_quotients_order"] == [[]]
        assert payload["vertex_splittable"] == {"base": [[]]}


def test_readme_command_lines_parse():
    # every documented invocation must still be accepted by the parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    lines = [words for words in lines if words and words[0] == "permcm"]
    assert len(lines) >= 7
    parser = cli._build_parser()
    for words in lines:
        args = parser.parse_args(words[1:])
        assert args.command == words[1]


class TestDeterminism:
    def test_verify_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "ainv", "--n", "4")
        _, out2, _ = run(capsys, "verify", "ainv", "--n", "4")
        assert out1 == out2

    def test_verify_parallel_matches_serial(self):
        serial = run_verify("cm", 5).to_dict()
        parallel = run_verify("cm", 5, jobs=2).to_dict()
        assert serial == parallel

    def test_survey_stdout_parallel_matches_serial(self, capsys):
        _, serial, _ = run(capsys, "survey", "--n", "7")
        _, parallel, _ = run(capsys, "survey", "--n", "7", "--jobs", "2")
        assert serial.count("\n") == 5041
        assert parallel == serial

    def test_verify_stdout_parallel_matches_serial(self, capsys):
        _, serial, _ = run(capsys, "verify", "cm", "--n", "7")
        _, parallel, _ = run(capsys, "verify", "cm", "--n", "7", "--jobs", "2")
        assert json.loads(serial)["checked"] == 5040
        assert parallel == serial

    def test_pool_has_at_most_one_worker_per_cpu_and_chunk(self, monkeypatch):
        # a forked pool starts every worker it is allowed at once, so a
        # large --jobs is checked with a fake pool that maps serially
        import permcm.cli

        workers, tasks = [], []

        class SerialPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                calls = list(zip(*iterables))
                tasks.append(len(calls))
                return [fn(*args) for args in calls]

        monkeypatch.setattr(permcm.cli, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(permcm.cli, "_usable_cpus", lambda: 3)
        # the pool is forked before the records exist, so its size is
        # bounded by the CPUs alone: the parent is one of the three
        # processes, and each maps four slices
        assert run_verify("vd", 5, jobs=10_000).to_dict() == run_verify("vd", 5).to_dict()
        assert workers == [min(10_000, 3) - 1]
        assert tasks == [4 * workers[0]]

    def test_pool_width_reads_the_cpu_affinity(self, monkeypatch):
        # under taskset -c 0 the host may have 8 CPUs, but this process
        # runs on one: a second process would share it, so none is forked
        import permcm.cli

        def no_pool(max_workers):
            raise AssertionError(f"pool of {max_workers} forked on one CPU")

        serial = run_verify("vd", 5).to_dict()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(permcm.cli, "ProcessPoolExecutor", no_pool)
        assert permcm.cli._usable_cpus() == 1
        assert run_verify("vd", 5, jobs=2).to_dict() == serial

    def test_usable_cpus_without_affinity(self, monkeypatch):
        # where the platform has no affinity call, the host's count
        # stands, and an unknown count is one CPU
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli._usable_cpus() == 8
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli._usable_cpus() == 1

    def test_jobs_2_forks_one_worker(self, monkeypatch):
        # the parent maps its own share of the classes, so --jobs 2 runs
        # two processes: it starts exactly one
        import multiprocessing.process

        if cli._usable_cpus() < 2:
            pytest.skip("needs two usable CPUs")
        expected = [survey_rows(5), run_verify("cm", 5).to_dict()]
        start = multiprocessing.process.BaseProcess.start
        started = []

        def counted(self):
            started.append(self)
            return start(self)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
        for sweep, serial in zip([lambda: survey_rows(5, jobs=2),
                                  lambda: run_verify("cm", 5, jobs=2).to_dict()], expected):
            started.clear()
            assert sweep() == serial
            assert len(started) == 1

    def test_failing_parent_share_cancels_the_waiting_slices(self, monkeypatch):
        # the parent's own slices fail at once while the one worker is
        # still on its first slice: the error propagates, and the slices
        # not handed to the worker yet are cancelled, not run
        from concurrent.futures import ProcessPoolExecutor

        futures = []

        class RecordingPool(ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                futures.append(super().submit(*args, **kwargs))
                return futures[-1]

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        with pytest.raises(RuntimeError, match="parent share"):
            cli._map_classes(partial(_fail_in_parent, os.getpid()), 5, 2)
        assert len(futures) == 4
        assert any(f.cancelled() for f in futures)


def _fail_in_parent(parent: int, position: int, record):
    """``record`` after a pause in a worker; an error in ``parent``."""
    if os.getpid() == parent:
        raise RuntimeError("parent share failed")
    time.sleep(0.1)
    return record
