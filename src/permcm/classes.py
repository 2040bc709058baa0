"""Isomorphism classes of inversion graphs, from the substitution
decomposition of their permutations.

The modular decomposition tree of an inversion graph is the substitution
decomposition of its permutation (Colbourn, *On testing isomorphism of
permutation graphs*, 1981): the strong modules are the position
intervals whose values also form an interval.  A node is

* a direct sum, when a proper prefix holds the smallest values: the
  graph is the disjoint union of its children;
* a skew sum, when a proper prefix holds the largest values: the graph
  is the join of its children;
* otherwise prime: its children are the maximal proper intervals, and
  the quotient is a simple permutation.

A prime quotient graph has exactly four cohesive orders, the four
realizers sigma, its inverse, its reverse-complement and the
reverse-complement of its inverse, so the code of a prime node is the
least of its four (quotient, child codes in quotient order) pairs.  A
sum node sorts the codes of its children.  Two permutations get the
same code exactly when their inversion graphs are isomorphic.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Sequence

Code = tuple


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p, 1):
        inv[v - 1] = i
    return tuple(inv)


def _reverse_complement(p: tuple[int, ...]) -> tuple[int, ...]:
    top = len(p) + 1
    return tuple(top - v for v in reversed(p))


def _children(p: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """Kind of the root node (0 direct sum, 1 skew sum, 2 prime) and the
    position ranges [start, stop) of its children, left to right."""
    n = len(p)
    hi, lo = 0, n + 1
    sum_cuts, skew_cuts = [0], [0]
    for k, v in enumerate(p, 1):
        hi, lo = max(hi, v), min(lo, v)
        if hi == k:
            sum_cuts.append(k)
        if lo == n + 1 - k:
            skew_cuts.append(k)
    for kind, cuts in enumerate((sum_cuts, skew_cuts)):
        if len(cuts) > 2:
            return kind, list(zip(cuts, cuts[1:]))
    # prime: the maximal proper intervals partition the positions, so
    # the child at a position is the longest proper interval from it
    ranges = []
    start = 0
    while start < n:
        lo = hi = p[start]
        stop = start + 1
        for j in range(start + 1, n if start else n - 1):
            lo, hi = min(lo, p[j]), max(hi, p[j])
            if hi - lo == j - start:
                stop = j + 1
        ranges.append((start, stop))
        start = stop
    return 2, ranges


def _code(p: tuple[int, ...], memo: dict[tuple[int, ...], Code]) -> Code:
    if len(p) <= 1:
        return ()
    kind, ranges = _children(p)
    codes = []
    for start, stop in ranges:
        block = p[start:stop]
        low = min(block) - 1
        pattern = tuple(v - low for v in block)
        code = memo.get(pattern)
        if code is None:
            code = memo[pattern] = _code(pattern, memo)
        codes.append(code)
    if kind < 2:
        return (kind, tuple(sorted(codes)))
    firsts = sorted(range(len(ranges)), key=lambda k: p[ranges[k][0]])
    quotient = [0] * len(ranges)
    for rank, k in enumerate(firsts, 1):
        quotient[k] = rank
    q = tuple(quotient)
    inv = _inverse(q)
    by_position = tuple(codes)
    by_value = tuple(codes[k] for k in firsts)
    return (2,) + min(
        (q, by_position),
        (inv, by_value),
        (_reverse_complement(q), by_position[::-1]),
        (_reverse_complement(inv), by_value[::-1]),
    )


def canonical_code(perm: Sequence[int]) -> Code:
    """A code of the inversion graph of ``perm`` that two permutations
    share exactly when their inversion graphs are isomorphic."""
    return _code(tuple(perm), {})


# block patterns, kept for the life of the process: a sweep's workers
# canonicalise many chunks, and their blocks recur from chunk to chunk
_MEMO: dict[tuple[int, ...], Code] = {}


def class_chunk(n: int, prefix: tuple[int, ...] = ()) -> list[tuple[Code, set[tuple[int, ...]]]]:
    """(code, orbit) for each permutation of S_n that starts with
    ``prefix`` and is the least of its orbit, in ascending order.

    The orbit of p is {p, its inverse, its reverse-complement, the
    reverse-complement of its inverse}: all four give isomorphic graphs,
    so only the least is canonicalised and its orbit joins its class
    whole.  The other three start with ``p.index(1) + 1``,
    ``n + 1 - p[-1]`` and ``n - p.index(n)``, so a permutation whose
    first value exceeds one of these is rejected before its orbit is
    built.
    """
    rest = [v for v in range(1, n + 1) if v not in prefix]
    out = []
    for tail in permutations(rest):
        p = prefix + tail
        if n and (n + 1 - p[-1] < p[0] or p.index(1) + 1 < p[0] or n - p.index(n) < p[0]):
            continue
        inv = _inverse(p)
        orbit = {p, inv, _reverse_complement(p), _reverse_complement(inv)}
        if p == min(orbit):
            out.append((_code(p, _MEMO), orbit))
    return out


def merge_classes(
    chunks: Iterable[list[tuple[Code, set[tuple[int, ...]]]]],
) -> list[list[tuple[int, ...]]]:
    """The classes of S_n from the ``class_chunk`` lists of prefixes
    that cover it, in ascending prefix order.

    Each class is sorted, and the classes come in the order of their
    least members: a class's least member is the least member of one
    of its orbits, and the orbits come in that order.
    """
    by_code: dict[Code, list[tuple[int, ...]]] = {}
    for chunk in chunks:
        for code, orbit in chunk:
            by_code.setdefault(code, []).extend(orbit)
    return [sorted(members) for members in by_code.values()]


def permutation_classes(n: int) -> list[list[tuple[int, ...]]]:
    """S_n split by the isomorphism class of the inversion graph: one
    chunk, with the empty prefix."""
    return merge_classes([class_chunk(n)])
