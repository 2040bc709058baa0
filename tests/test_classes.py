"""Isomorphism classes of inversion graphs and the class sweep.

The canonical code is checked against a brute-force canonical form over
all relabellings, the classes built from substitution trees against the
scan of S_n, and every class-sweep document against the labelled sweep
of ``bruteforce.py``, which checks all n! graphs one by one.
"""

import tracemalloc
from functools import lru_cache
from itertools import permutations

import pytest

from permcm import Permutation, graph_from_permutation
from permcm.graphs import inversions
from permcm import cli
import permcm.classes
from permcm.classes import _inflate, _prime_forms, class_members, class_records, simple_orbits
from bruteforce import (
    brute_canonical,
    canonical_code,
    labelled_survey_rows,
    labelled_verify,
    serial_permutation_classes,
    survey_members,
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
        classes = serial_permutation_classes(n)
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


def _recording_pool(events: list):
    """A stand-in for ``ProcessPoolExecutor`` that maps in process, in
    order, and logs to ``events``: "pool" when it is made, and "mapping"
    and "mapped" around each call it maps, as a worker would run it."""

    class RecordingPool:
        def __init__(self, max_workers):
            events.append("pool")

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            out = []
            for args in zip(*iterables):
                events.append("mapping")
                out.append(fn(*args))
                events.append("mapped")
            return out

    return RecordingPool


def _same(position, record):
    return position, record


class TestChunkedClasses:
    @pytest.mark.parametrize("n", range(9))
    def test_chunks_assemble_the_serial_classes(self, monkeypatch, n):
        # the pool of the sweeps maps strided slices of the records and
        # interleaves their results back: at every pool width, slices
        # empty or not, the records come in order, each with its
        # position, and expanded they are the classes of the serial
        # scan, in the same order
        monkeypatch.setattr(cli, "ProcessPoolExecutor", _recording_pool([]))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
        records = class_records(n)
        for jobs in (1, 2, 3, 8):
            assert cli._map_classes(_same, n, jobs) == list(enumerate(records))
        classes = sorted(sorted(class_members(code, n)) for code, _, _ in records)
        assert classes == serial_permutation_classes(n)


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
        # the scan is the oracle: the same codes with the same sizes,
        # a representative of each, and the same members on expansion
        scanned = {canonical_code(members[0]): members for members in serial_permutation_classes(n)}
        records = class_records(n)
        assert len(records) == len(scanned)
        assert {code: size for code, size, _ in records} == {
            code: len(members) for code, members in scanned.items()}
        for code, _, rep in records:
            assert canonical_code(rep) == code
            assert sorted(class_members(code, n)) == scanned[code]
        # the edgeless graph's class, of the identity alone, comes first
        assert records[0][1:] == (1, tuple(range(1, n + 1)))

    def test_prime_representatives_inflate_their_code(self):
        # a prime record comes from the candidate that is its code, so
        # its representative is the code's quotient inflated by the
        # children's representatives, in the code's order
        reps = {}
        for n in range(1, 9):
            records = class_records(n)
            primes = [(code, rep) for code, _, rep in records if code[:1] == (2,)]
            assert len(primes) == len({code for code, _ in primes})
            for (_, q, codes), rep in primes:
                assert rep == _inflate(q, [reps[c] for c in codes])
            reps.update((code, rep) for code, _, rep in records)

    def test_records_are_kept_without_their_lower_levels(self):
        # from cold caches, S_8 is built and held alone: while its
        # records are referenced, dropping what the sweeps keep frees
        # under 0.1% of what the call retained.  A freed tuple of
        # under 20 items goes to CPython's free list, where tracemalloc
        # still counts it, so those lists are filled before the drop
        permcm.classes.drop_levels()
        simple_orbits.cache_clear()
        tracemalloc.start()
        try:
            records = class_records(8)
            built = tracemalloc.get_traced_memory()[0]
            filler = [tuple(range(k)) for k in range(1, 21) for _ in range(2000)]
            del filler
            filled = tracemalloc.get_traced_memory()[0]
            permcm.classes.drop_levels()
            freed = filled - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(records) == 5699
        assert freed < 0.001 * built

    def test_simple_permutation_counts(self):
        # each orbit rebuilt from its least member holds only simple
        # permutations, and the orbits together hold all of them
        for k, count in enumerate(SIMPLE_COUNTS, 1):
            least = simple_orbits(k)
            orbits = [{form[0] for form in _prime_forms(q, ((),) * k)} for q in least]
            members = [p for orbit in orbits for p in orbit]
            assert len(members) == len(set(members)) == count
            assert all(_brute_is_simple(p) for p in members)
            assert list(least) == [min(orbit) for orbit in orbits] == sorted(least)
        assert not any(_brute_is_simple(p) for p in permutations(range(1, 4)))

    def test_verify_builds_no_member_list(self, monkeypatch):
        # a passing sweep expands no class: only a failing class is
        # re-checked member by member
        expanded = []

        def members(code, n):
            expanded.append(code)
            return class_members(code, n)

        monkeypatch.setattr(cli, "class_members", members)
        for theorem in sorted(cli._CHECKS):
            assert cli.run_verify(theorem, 6).to_dict() == _oracle_verify(theorem, 6)
        assert expanded == []


class TestPooledSweep:
    def test_pool_is_forked_before_anything_is_canonicalised(self, monkeypatch):
        # with a recording pool that maps in process and no class
        # records built yet: for both sweeps the pool comes first, its
        # slices are submitted before the parent maps its own, and every
        # record is built inside a mapped call, as in a worker
        events = []

        def in_pool():
            pool_events = [e for e in events if e in ("mapping", "mapped")]
            return pool_events[-1:] == ["mapping"]

        def recorded(build):
            def wrapper(*args):
                events.append("build" if in_pool() else "build in parent")
                return build(*args)
            return wrapper

        class_slice = cli._class_slice

        def sliced(*args):
            if not in_pool():
                events.append("parent slice")
            return class_slice(*args)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", _recording_pool(events))
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(cli, "_class_slice", sliced)
        for name in ("_sum_records", "_prime_records"):
            monkeypatch.setattr(permcm.classes, name, recorded(getattr(permcm.classes, name)))
        sweeps = [
            lambda: survey_members(cli.survey_rows(5, jobs=2))
            == labelled_survey_rows(5, cli._survey_row),
            lambda: cli.run_verify("cm", 5, jobs=2).to_dict() == _oracle_verify("cm", 5),
        ]
        for sweep in sweeps:
            permcm.classes.class_records.cache_clear()
            events.clear()
            assert sweep()
            assert events[0] == "pool"
            assert "build" in events
            assert "build in parent" not in events
            # two processes: the pool's one worker maps 4 slices, the
            # parent one, every other record
            assert events.count("mapping") == 4 * (2 - 1)
            assert events.count("parent slice") == 1
            assert events.index("parent slice") > max(
                i for i, e in enumerate(events) if e == "mapped")


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
            members = survey_members(cli.survey_rows(n, jobs=jobs))
            assert members == labelled_survey_rows(n, cli._survey_row)


def _edge_count_check(f):
    """A check that passes on every graph with one predicate, its edge count."""
    return {"ok": True, "predicates": {f"edges={f.g.edge_count()}": True}, "detail": None}


def test_counts_list_predicates_in_record_order(monkeypatch):
    # every class holds one predicate, its edge count: counts lists them
    # as the class records' representatives first hold them, and the
    # document equals the labelled sweep's
    monkeypatch.setitem(cli._CHECKS, "cm", _edge_count_check)
    for n in range(7):
        result = cli.run_verify("cm", n)
        assert result.to_dict() == labelled_verify("cm", n, _edge_count_check)
        first_met = {}
        for _, _, rep in class_records(n):
            first_met.setdefault(f"edges={len(inversions(rep))}", None)
        assert list(result.counts) == list(first_met)


def _cm_failing_on_p4(f):
    """``cli._check_cm``, failing on every graph that is a path on four
    vertices plus isolated vertices: one isomorphism class per n >= 4."""
    res = cli._check_cm(f)
    degrees = sorted(f.g.degree(v) for v in f.g.vertices() if f.g.degree(v))
    if degrees == [1, 1, 2, 2] and f.g.edge_count() == 3:
        res = dict(res, ok=False, detail="patched failure")
    return res


def _cm_failing_on_p4_or_k3(f):
    """``_cm_failing_on_p4``, failing also on every graph that is a
    triangle plus isolated vertices: two classes per n >= 4, whose
    members interleave in edge order."""
    res = _cm_failing_on_p4(f)
    if sorted(f.g.degree(v) for v in f.g.vertices() if f.g.degree(v)) == [2, 2, 2]:
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

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_discrepancies_of_two_classes_merge_in_edge_order(self, monkeypatch, jobs):
        monkeypatch.setitem(cli._CHECKS, "cm", _cm_failing_on_p4_or_k3)
        for n in (4, 5, 6):
            result = cli.run_verify("cm", n, jobs=jobs)
            expected = labelled_verify("cm", n, _cm_failing_on_p4_or_k3)
            perms = {tuple(d["perm"]) for d in expected["discrepancies"]}
            # both classes fail, and their records alternate in the sweep
            classes = [canonical_code(p) for p in sorted(perms, key=inversions)]
            assert sum(a != b for a, b in zip(classes, classes[1:])) > 1
            assert result.to_dict() == expected

    def test_records_replay(self, monkeypatch):
        monkeypatch.setitem(cli._CHECKS, "cm", _cm_failing_on_p4)
        records = cli.run_verify("cm", 5).discrepancies
        assert records
        for record in records:
            assert set(record) == {"perm", "edges", "predicates", "detail"}
            g = graph_from_permutation(Permutation(tuple(record["perm"])))
            assert [list(e) for e in g.edges()] == record["edges"]
            assert record["predicates"] == cli._check_cm(cli._facts(tuple(record["perm"])))["predicates"]
