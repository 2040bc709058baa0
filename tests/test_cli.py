import json
import time

import pytest

from permcm.cli import main, render_survey, run_verify, survey_rows


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

    def test_unknown_theorem_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nope", "--n", "3"])
        assert exc.value.code == 2


class TestSurveyCommand:
    def test_rows_n1(self):
        rows = survey_rows(1)
        assert len(rows) == 1 and rows[0]["edges"] == ""

    def test_distinct_graph_count_n3(self):
        # sigma <-> inversion set is a bijection, so S_3 gives 6 rows
        assert len(survey_rows(3)) == 6

    def test_csv_deterministic(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run(capsys, "survey", "--n", "4", "--out", str(out1))[0] == 0
        assert run(capsys, "survey", "--n", "4", "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_matches_serial(self):
        assert render_survey(survey_rows(4), "csv") == render_survey(
            survey_rows(4, jobs=2), "csv"
        )

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

    @pytest.mark.parametrize("perm", ["3,1,4,2", "2,1,4,3", "2,1,3", "2,1,3,6,5,4"])
    def test_payload_is_classify_witness(self, capsys, perm):
        code, out, _ = run(capsys, "shed", "--perm", perm)
        assert code == 0
        _, report_out, _ = run(capsys, "classify", "--perm", perm, "--no-oracle")
        report = json.loads(report_out)
        expected = dict(report["witnesses"]["shedding"],
                        isolated_vertices_stripped=report["isolated_vertices"])
        assert json.loads(out) == expected


class TestIdealCommand:
    def test_p4(self, capsys):
        code, out, _ = run(capsys, "ideal", "--perm", "3,1,4,2")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["generators"]) == 3
        assert payload["linear_quotients_order"] is not None
        assert payload["vertex_splittable"] is not None

    def test_power_hook(self, capsys):
        code, out, _ = run(capsys, "ideal", "--perm", "3,2,1", "--power", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["power"]["k"] == 2
        assert payload["power"]["linear_quotients"] is True

    def test_power_over_cap_fails_fast(self, capsys):
        # the 16-generator cover ideal of 4K_2: its 6th power has 2,401
        # minimal generators, and the filter stops at the 21st
        code, _, err = run(capsys, "ideal", "--perm", "2,1,4,3,6,5,8,7", "--power", "6")
        assert code == 2
        assert "generator count (a lower bound) size 21 exceeds the 'linear_quotients' cap 20" in err

    def test_ninth_power_stops_at_the_cap(self, capsys):
        # 10,000 minimal generators among C(24, 9) = 1.3 million products;
        # the products come in lex order and the walk stops at the 21st
        start = time.perf_counter()
        code, _, err = run(capsys, "ideal", "--perm", "2,1,4,3,6,5,8,7", "--power", "9")
        assert code == 2
        assert "generator count (a lower bound) size 21 exceeds the 'linear_quotients' cap 20" in err
        assert time.perf_counter() - start < 2.0


class TestDeterminism:
    def test_verify_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "verify", "ainv", "--n", "4")
        _, out2, _ = run(capsys, "verify", "ainv", "--n", "4")
        assert out1 == out2

    def test_verify_parallel_matches_serial(self):
        serial = run_verify("cm", 5).to_dict()
        parallel = run_verify("cm", 5, jobs=2).to_dict()
        assert serial == parallel
