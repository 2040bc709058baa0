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

The classes come two ways.  ``class_chunk`` and ``merge_classes`` scan
S_n and keep every member; ``class_records`` builds each class from its
tree, bottom-up, with its size and one member, and ``class_members``
expands one class when its members are needed (Albert and Atkinson,
*Simple permutations and pattern restricted permutations*, 2005).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial, prod
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


def _symmetries(p: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The orbit of ``p`` under inverse and reverse-complement: four
    permutations whose inversion graphs are isomorphic."""
    inv = _inverse(p)
    return {p, inv, _reverse_complement(p), _reverse_complement(inv)}


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
    return (2,) + min(_prime_forms(tuple(quotient), tuple(codes)))


def _prime_forms(q: tuple[int, ...], codes: tuple[Code, ...]) -> tuple[tuple, ...]:
    """The four (quotient, child codes in quotient order) pairs of the
    prime node with quotient ``q`` and child codes ``codes`` by
    position: the node read through each of its four realizers.  The
    least is the node's code, and the distinct ones are the labelled
    forms of its class."""
    inv = _inverse(q)
    by_value = tuple(codes[i - 1] for i in inv)
    return (
        (q, codes),
        (inv, by_value),
        (_reverse_complement(q), codes[::-1]),
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
        orbit = _symmetries(p)
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


# -- classes from their trees ---------------------------------------------------

Record = tuple  # (code, size, representative)


@lru_cache(maxsize=None)
def simple_orbits(k: int) -> tuple[frozenset[tuple[int, ...]], ...]:
    """The simple permutations of length ``k``, one orbit of the four
    symmetries at a time, in the order of their least members.

    A permutation is simple when no window of positions but a single
    one or all of them holds an interval of values.  A depth-first
    search drops a prefix as soon as a window ending at its last
    position does; the symmetries keep simplicity, so each orbit is
    kept at its least member.
    """
    simple, p, used = [], [], [False] * (k + 1)

    def grow() -> None:
        j = len(p)
        if j == k:
            simple.append(tuple(p))
            return
        stop = 0 if j == k - 1 else -1  # the window of all k is allowed
        for v in range(1, k + 1):
            if used[v]:
                continue
            lo = hi = v
            for i in range(j - 1, stop, -1):
                lo, hi = min(lo, p[i]), max(hi, p[i])
                if hi - lo == j - i:
                    break
            else:
                p.append(v)
                used[v] = True
                grow()
                p.pop()
                used[v] = False

    grow()
    orbits = (frozenset(_symmetries(q)) for q in simple)
    return tuple(orbit for q, orbit in zip(simple, orbits) if q == min(orbit))


def _inflate(q: tuple[int, ...], blocks: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The permutation with quotient ``q`` whose block at position i is
    the pattern ``blocks[i]``."""
    base = [0] * (len(q) + 1)
    for v in range(1, len(q)):
        base[v + 1] = base[v] + len(blocks[q.index(v)])
    return tuple(base[v] + x for v, block in zip(q, blocks) for x in block)


def _sum_quotient(kind: int, k: int) -> tuple[int, ...]:
    """The quotient of a direct sum (kind 0) or a skew sum (kind 1) of
    ``k`` children."""
    return tuple(range(1, k + 1)) if kind == 0 else tuple(range(k, 0, -1))


def _sum_records(levels: list[list[Record]], m: int, kind: int) -> list[Record]:
    """The classes of S_m whose root is a direct sum (kind 0) or a skew
    sum (kind 1): a multiset of at least two smaller classes whose roots
    are not of that kind.  Its size is the number of orders of the
    multiset times the sizes of its children.  The edgeless graph's
    class, m leaves under a direct sum, comes first."""
    cands = [r for size in range(1, m) for r in levels[size] if r[0][:1] != (kind,)]
    out = []

    def grow(start: int, left: int, chosen: list[int]) -> None:
        if not left:
            if len(chosen) >= 2:
                children = [cands[i] for i in chosen]
                orders = factorial(len(chosen)) // prod(
                    factorial(chosen.count(i)) for i in set(chosen))
                out.append((
                    (kind, tuple(sorted(code for code, _, _ in children))),
                    orders * prod(size for _, size, _ in children),
                    _inflate(_sum_quotient(kind, len(children)), [rep for _, _, rep in children]),
                ))
            return
        for i in range(start, len(cands)):
            width = len(cands[i][2])
            if width > left:
                break
            chosen.append(i)
            grow(i, left - width, chosen)
            chosen.pop()

    grow(0, m, [])
    return out


def _prime_records(levels: list[list[Record]], m: int) -> list[Record]:
    """The classes of S_m whose root is prime: one simple permutation of
    each orbit, with each assignment of smaller classes to its points.
    Its size is the number of distinct forms times the sizes of its
    children, and its representative is the inflation of its quotient."""
    found: dict[Code, Record] = {}
    for k in range(4, m + 1):
        for orbit in simple_orbits(k):
            q = min(orbit)
            for cuts in combinations(range(1, m), k - 1):
                widths = [b - a for a, b in zip((0,) + cuts, cuts + (m,))]
                for children in product(*(levels[w] for w in widths)):
                    forms = _prime_forms(q, tuple(code for code, _, _ in children))
                    code = (2,) + min(forms)
                    if code not in found:
                        found[code] = (
                            code,
                            len(set(forms)) * prod(size for _, size, _ in children),
                            _inflate(q, [rep for _, _, rep in children]),
                        )
    return list(found.values())


# the classes of S_m by size m, each level built once per process
_LEVELS: list[list[Record]] = [[((), 1, ())], [((), 1, (1,))]]


def class_records(n: int) -> list[Record]:
    """(code, size, representative) for each class of S_n, built from
    the substitution trees, bottom-up over the sizes 1..n: sum nodes,
    then skew sums, then prime nodes.  The sizes add up to n!, and the
    edgeless graph's class, of the identity alone, comes first."""
    while len(_LEVELS) <= n:
        m = len(_LEVELS)
        _LEVELS.append(_sum_records(_LEVELS, m, 0) + _sum_records(_LEVELS, m, 1)
                       + _prime_records(_LEVELS, m))
    return _LEVELS[n]


def _arrangements(items: tuple) -> list[tuple]:
    """The distinct orders of the sorted tuple ``items``."""
    if not items:
        return [()]
    return [(x,) + rest for i, x in enumerate(items) if not i or items[i - 1] != x
            for rest in _arrangements(items[:i] + items[i + 1:])]


@lru_cache(maxsize=None)
def _expand(code: Code) -> tuple[tuple[int, ...], ...]:
    """The members of the class with this code, on at least one point,
    expanded from its tree."""
    if not code:
        return ((1,),)
    if code[0] == 2:
        _, q0, codes0 = code
        forms = set(_prime_forms(q0, codes0))
    else:
        forms = {(_sum_quotient(code[0], len(order)), order) for order in _arrangements(code[1])}
    return tuple(_inflate(q, blocks) for q, codes in forms
                 for blocks in product(*map(_expand, codes)))


def class_members(code: Code, n: int) -> tuple[tuple[int, ...], ...]:
    """The members of the class of S_n with this code, expanded from its
    tree (``n`` tells the empty permutation from a single point, which
    share the code ``()``)."""
    return _expand(code) if n else ((),)
