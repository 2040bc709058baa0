"""Composition laws over the substitution tree.

A class whose root is a direct sum is the disjoint union of its parts'
graphs, so its independence complex is the join of theirs and its
Stanley-Reisner ring their tensor product; a skew sum is the join of
its parts' graphs, so its complex is the disjoint union of theirs.
Each law is checked on every direct-sum and skew-sum class with
2 <= n <= 8, with the parts read off the class code.

The strict nearly-Gorenstein flag is left out: it reads only the graph
without its isolated vertices, and it is true on 25 direct sums with
n <= 8 that have one.  The smallest is 1,4,3,2, a triangle beside a
vertex, whose ring is a polynomial extension of a ring of type 2, and
so not nearly Gorenstein.
"""

from functools import lru_cache
from math import prod

import pytest

from permcm import (
    Permutation,
    graph_from_permutation,
    hilbert_data,
    hochster_betti_table,
    independence_complex,
    reisner_cm_test,
)
from permcm.classes import class_records
from permcm.classify import GraphFacts

# the classes of S_2..S_8 whose root is a direct sum, and as many skew sums
SUM_CLASSES = 1186


@lru_cache(maxsize=1)
def _levels() -> dict:
    """The code -> representative of every class on one to eight points."""
    return {code: rep for n in range(1, 9) for code, _, rep in class_records(n)}


def _trimmed(h: tuple[int, ...]) -> tuple[int, ...]:
    while len(h) > 1 and not h[-1]:
        h = h[:-1]
    return h


def _times(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            out[i + j] += a * b
    return tuple(out)


@lru_cache(maxsize=None)
def _facts(code) -> dict:
    """The theorem-side and oracle facts of the class with this code."""
    g = graph_from_permutation(Permutation(_levels()[code]))
    facts = GraphFacts(g, tuple(range(1, g.n + 1)))
    comp = independence_complex(g)
    hd, betti = hilbert_data(comp), hochster_betti_table(comp)
    return {
        "n": g.n, "cm": facts.cm, "gorenstein": facts.gorenstein,
        "alpha": facts.invariants.alpha, "tau": facts.invariants.tau,
        "im": facts.invariants.induced_matching,
        "a": facts.a_invariant[0] if facts.cm else None,
        "reisner": reisner_cm_test(comp), "h": _trimmed(hd.h), "hilbert_a": hd.a,
        "reg": betti.reg, "pd": betti.pd, "type": betti.type,
    }


def _sums(kind: int) -> list[tuple[dict, list[dict]]]:
    """The facts of each class whose root has this kind, with its parts'."""
    return [(_facts(code), [_facts(c) for c in code[1]])
            for code in _levels() if code[:1] == (kind,)]


@pytest.fixture(scope="module")
def direct_sums():
    sums = _sums(0)
    assert len(sums) == SUM_CLASSES
    return sums


class TestDirectSums:
    def test_theorem_side(self, direct_sums):
        for whole, parts in direct_sums:
            assert whole["cm"] == all(p["cm"] for p in parts)
            assert whole["gorenstein"] == all(p["gorenstein"] for p in parts)
            for key in ("alpha", "tau", "im"):
                assert whole[key] == sum(p[key] for p in parts)
            if whole["cm"]:  # a(K_1) = -1
                assert whole["a"] == sum(p["a"] for p in parts)

    def test_oracle_side(self, direct_sums):
        for whole, parts in direct_sums:
            assert whole["reisner"] == all(p["reisner"] for p in parts)
            h = (1,)
            for p in parts:
                h = _times(h, p["h"])
            assert whole["h"] == h
            for key in ("hilbert_a", "reg", "pd"):
                assert whole[key] == sum(p[key] for p in parts)
            assert whole["type"] == prod(p["type"] for p in parts)

    def test_both_sides_see_each_verdict(self, direct_sums):
        assert {w["cm"] for w, _ in direct_sums} == {w["gorenstein"] for w, _ in direct_sums} == {True, False}


def test_skew_sums():
    # the complex of a join is the disjoint union of the parts' complexes:
    # CM only when it is a set of points, each part one vertex
    sums = _sums(1)
    assert len(sums) == SUM_CLASSES
    for whole, parts in sums:
        points = all(p["n"] == 1 for p in parts)
        assert whole["cm"] == whole["reisner"] == points
        assert whole["alpha"] == max(p["alpha"] for p in parts)
