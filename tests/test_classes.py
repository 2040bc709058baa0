"""Isomorphism classes of inversion graphs and the class sweep.

The canonical code is checked against a brute-force canonical form over
all relabellings, and every class-sweep document against the labelled
sweep of ``bruteforce.py``, which checks all n! graphs one by one.
"""

from functools import lru_cache
from itertools import permutations

import pytest

from permcm import Permutation, graph_from_permutation
from permcm import cli
from permcm.classes import canonical_code, permutation_classes
from bruteforce import (
    brute_canonical,
    labelled_survey_rows,
    labelled_verify,
)

# isomorphism classes of the inversion graphs of S_n, n = 0..7
CLASS_COUNTS = [1, 1, 2, 4, 11, 33, 142, 776]


class TestCanonicalCode:
    def test_codes_agree_with_brute_force(self):
        # two permutations share a code exactly when their graphs are
        # isomorphic: code and brute form determine each other
        for n in range(7):
            pairs = {
                (canonical_code(p), brute_canonical(graph_from_permutation(p)))
                for p in permutations(range(1, n + 1))
            }
            assert len({c for c, _ in pairs}) == len(pairs) == len({b for _, b in pairs})
            assert len(pairs) == CLASS_COUNTS[n]

    @pytest.mark.parametrize("n", range(8))
    def test_classes_partition_by_code(self, n):
        classes = permutation_classes(n)
        assert len(classes) == CLASS_COUNTS[n]
        members = [p for c in classes for p in c]
        assert sorted(members) == list(permutations(range(1, n + 1)))
        assert all(c == sorted(c) for c in classes)
        assert [c[0] for c in classes] == sorted(c[0] for c in classes)
        codes = [{canonical_code(p) for p in c} for c in classes]
        assert all(len(c) == 1 for c in codes)
        assert len(set.union(set(), *codes)) == len(classes)

    def test_prime_quotient_symmetries(self):
        # 2413 and 3142 are inverse (and reverse-complement) of each
        # other: both give P_4
        assert canonical_code((2, 4, 1, 3)) == canonical_code((3, 1, 4, 2))
        assert canonical_code((2, 4, 1, 3)) != canonical_code((2, 1, 4, 3))


@lru_cache(maxsize=None)
def _oracle_verify(theorem: str, n: int) -> dict:
    return labelled_verify(theorem, n, cli._CHECKS[theorem])


class TestClassSweepAgainstLabelledSweep:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("theorem", sorted(cli._CHECKS))
    def test_verify_documents(self, theorem, jobs):
        for n in range(6):
            result, expected = cli.run_verify(theorem, n, jobs=jobs), _oracle_verify(theorem, n)
            assert result.to_dict() == expected
            assert list(result.counts) == list(expected["counts"])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_survey_rows(self, jobs):
        for n in range(6):
            assert cli.survey_rows(n, jobs=jobs) == labelled_survey_rows(n, cli._survey_row)


def _edge_count_check(f):
    """A check that passes on every graph with one predicate, its edge count."""
    return {"ok": True, "predicates": {f"edges={f.g.edge_count()}": True}, "detail": None}


def test_counts_list_predicates_as_the_labelled_sweep_meets_them(monkeypatch):
    monkeypatch.setitem(cli._CHECKS, "cm", _edge_count_check)
    for n in range(6):
        expected = labelled_verify("cm", n, _edge_count_check)
        result = cli.run_verify("cm", n)
        assert result.to_dict() == expected
        assert list(result.counts) == list(expected["counts"])


def _cm_failing_on_p4(f):
    """``cli._check_cm``, failing on every graph that is a path on four
    vertices plus isolated vertices: one isomorphism class per n >= 4."""
    res = cli._check_cm(f)
    degrees = sorted(f.g.degree(v) for v in f.g.vertices() if f.g.degree(v))
    if degrees == [1, 1, 2, 2] and f.g.edge_count() == 3:
        res = dict(res, ok=False, detail="patched failure")
    return res


class TestFailingClass:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_class_expands_to_its_members(self, monkeypatch, jobs):
        monkeypatch.setitem(cli._CHECKS, "cm", _cm_failing_on_p4)
        for n in (4, 5):
            result = cli.run_verify("cm", n, jobs=jobs)
            expected = labelled_verify("cm", n, _cm_failing_on_p4)
            assert len(expected["discrepancies"]) > 1
            assert result.to_dict() == expected
            assert list(result.counts) == list(expected["counts"])

    def test_records_replay(self, monkeypatch):
        monkeypatch.setitem(cli._CHECKS, "cm", _cm_failing_on_p4)
        records = cli.run_verify("cm", 5).discrepancies
        assert records
        for record in records:
            assert set(record) == {"perm", "edges", "predicates", "detail"}
            g = graph_from_permutation(Permutation(tuple(record["perm"])))
            assert [list(e) for e in g.edges()] == record["edges"]
            assert record["predicates"] == cli._check_cm(cli._facts(tuple(record["perm"])))["predicates"]
