"""Isomorphism classes of inversion graphs and the class sweep.

The canonical code is checked against a brute-force canonical form over
all relabellings, the classes built from substitution trees against the
scan of S_n, and every class-sweep document against the labelled sweep
of ``bruteforce.py``, which checks all n! graphs one by one.
"""

from functools import lru_cache
from itertools import permutations

import pytest

from permcm import Permutation, graph_from_permutation
from permcm import cli
import permcm.classes
from permcm.classes import (
    canonical_code,
    class_chunk,
    class_members,
    class_records,
    merge_classes,
    permutation_classes,
    simple_orbits,
)
from bruteforce import (
    brute_canonical,
    labelled_survey_rows,
    labelled_verify,
    serial_permutation_classes,
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


class TestChunkedClasses:
    @pytest.mark.parametrize("n", range(9))
    def test_chunks_assemble_the_serial_classes(self, n):
        # the same classes, in the same order, with the same member
        # lists, whether S_n comes in one chunk or split by the first
        # one, two or three values, as a pooled sweep splits it by two
        expected = serial_permutation_classes(n)
        assert permutation_classes(n) == expected
        for length in range(1, min(n, 3) + 1):
            prefixes = permutations(range(1, n + 1), length)
            assert merge_classes(class_chunk(n, p) for p in prefixes) == expected


# simple permutations of length k = 1..8 (OEIS A111111)
SIMPLE_COUNTS = [1, 2, 0, 2, 6, 46, 338, 2926]


def _brute_is_simple(p):
    """No window of 2..k-1 positions holds an interval of values."""
    k = len(p)
    return not any(max(p[i:j]) - min(p[i:j]) == j - i - 1
                   for i in range(k) for j in range(i + 2, k + 1) if j - i < k)


class TestGeneratedClasses:
    @pytest.mark.parametrize("n", range(9))
    def test_records_match_the_scan(self, n):
        # class_chunk is the oracle: the same codes with the same sizes,
        # a representative of each, and the same members on expansion
        scanned = {canonical_code(members[0]): members for members in permutation_classes(n)}
        records = class_records(n)
        assert len(records) == len(scanned)
        assert {code: size for code, size, _ in records} == {
            code: len(members) for code, members in scanned.items()}
        for code, _, rep in records:
            assert canonical_code(rep) == code
            assert sorted(class_members(code, n)) == scanned[code]
        # the edgeless graph's class, of the identity alone, comes first
        assert records[0][1:] == (1, tuple(range(1, n + 1)))

    def test_simple_permutation_counts(self):
        for k, count in enumerate(SIMPLE_COUNTS, 1):
            orbits = simple_orbits(k)
            members = [p for orbit in orbits for p in orbit]
            assert len(members) == len(set(members)) == count
            assert all(_brute_is_simple(p) for p in members)
            least = [min(orbit) for orbit in orbits]
            assert least == sorted(least)
        assert not any(_brute_is_simple(p) for p in permutations(range(1, 4)))

    def test_verify_builds_no_member_list(self, monkeypatch):
        # besides the edgeless graph's class, of one member, only the
        # classes whose result holds a predicate the edgeless graph's
        # does not are expanded, for their least edge key
        expanded = []

        def members(code, n):
            expanded.append(code)
            return class_members(code, n)

        def no_scan(*args):
            raise AssertionError("verify scanned S_n")

        monkeypatch.setattr(cli, "class_members", members)
        monkeypatch.setattr(cli, "class_chunk", no_scan)
        edgeless = class_records(6)[0][0]
        assert cli.run_verify("cm", 6).to_dict() == _oracle_verify("cm", 6)
        assert expanded == [edgeless]
        assert cli.run_verify("gap", 6).to_dict() == _oracle_verify("gap", 6)
        assert len(expanded) > 2


class TestPooledSweep:
    def test_pool_is_forked_before_anything_is_canonicalised(self, monkeypatch):
        # with a recording pool that maps in process: the pool comes
        # first, its first round maps the class chunks, and every code
        # is computed inside a mapped call, as in a worker
        events = []
        original = permcm.classes._code

        def recorded_code(p, memo):
            if not events or events[-1] != "mapping":
                events.append("code in parent")
            return original(p, memo)

        class RecordingPool:
            def __init__(self, max_workers):
                events.append("pool")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                events.append(fn)
                out = []
                for args in zip(*iterables):
                    events.append("mapping")
                    out.append(fn(*args))
                    events.append("mapped")
                return out

        monkeypatch.setattr(permcm.classes, "_code", recorded_code)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        assert cli.survey_rows(5, jobs=2) == labelled_survey_rows(5, cli._survey_row)
        assert "code in parent" not in events
        mapped = [e for e in events if callable(e)]
        assert events[0] == "pool"
        assert mapped == [class_chunk, cli._sweep_chunk]


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
    # every class but the edgeless one holds a new predicate, so every
    # class gets its least edge key
    monkeypatch.setitem(cli._CHECKS, "cm", _edge_count_check)
    for n in range(7):
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
        for n in (4, 5, 6):
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
