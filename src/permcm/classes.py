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

The classes are built from their trees, never by scanning S_n:
``class_records`` builds each class bottom-up, with its size and one
member, and ``class_members`` expands one class when its members are
needed (Albert and Atkinson, *Simple permutations and pattern
restricted permutations*, 2005).  The scan that computes the code of
every permutation is the tests' oracle of both.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, product
from math import factorial, prod
from typing import Sequence

Code = tuple


def _inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, v in enumerate(p, 1):
        inv[v - 1] = i
    return tuple(inv)


def _reverse_complement(p: tuple[int, ...]) -> tuple[int, ...]:
    top = len(p) + 1
    return tuple(top - v for v in reversed(p))


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


Record = tuple  # (code, size, representative)


@lru_cache(maxsize=None)
def simple_orbits(k: int) -> tuple[tuple[int, ...], ...]:
    """The least member of each orbit of the simple permutations of
    length ``k`` under the four symmetries, in ascending order.

    A permutation is simple when no window of positions but a single
    one or all of them holds an interval of values.  A depth-first
    search drops a prefix as soon as a window ending at its last
    position does; the symmetries keep simplicity, so each orbit is
    kept at its least member: the least quotient of its ``_prime_forms``.
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
                x = p[i]
                if x < lo:
                    lo = x
                elif x > hi:
                    hi = x
                if hi - lo == j - i:
                    break
            else:
                p.append(v)
                used[v] = True
                grow()
                p.pop()
                used[v] = False

    grow()
    return tuple(q for q in simple if q == min(_prime_forms(q, ((),) * k))[0])


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
    each orbit, with each assignment of smaller classes to its points
    that is its class's code (its first form is the least).  Its size is
    the number of distinct forms times the sizes of its children, and
    its representative is its quotient inflated by theirs.  Each
    candidate decides alone whether it is its class's record."""
    out = []
    for k in range(4, m + 1):
        for q in simple_orbits(k):
            for cuts in combinations(range(1, m), k - 1):
                widths = [b - a for a, b in zip((0,) + cuts, cuts + (m,))]
                for children in product(*(levels[w] for w in widths)):
                    forms = _prime_forms(q, tuple(code for code, _, _ in children))
                    if forms[0] == min(forms):
                        out.append((
                            (2,) + forms[0],
                            len(set(forms)) * prod(size for _, size, _ in children),
                            _inflate(q, [rep for _, _, rep in children]),
                        ))
    return out


@lru_cache(maxsize=1)
def class_records(n: int) -> list[Record]:
    """(code, size, representative) for each class of S_n, built from
    the substitution trees, bottom-up over the sizes 1..n: sum nodes,
    then skew sums, then prime nodes.  The sizes add up to n!, and the
    edgeless graph's class, of the identity alone, comes first.  Only
    the last S_n asked is kept, until ``drop_levels``."""
    levels = [[((), 1, ())], [((), 1, (1,))]]
    for m in range(2, n + 1):
        levels.append(_sum_records(levels, m, 0) + _sum_records(levels, m, 1)
                      + _prime_records(levels, m))
    return levels[n]


def _arrangements(items: tuple) -> list[tuple]:
    """The distinct orders of the sorted tuple ``items``."""
    if not items:
        return [()]
    return [(x,) + rest for i, x in enumerate(items) if not i or items[i - 1] != x
            for rest in _arrangements(items[:i] + items[i + 1:])]


def _expand(code: Code) -> tuple[tuple[int, ...], ...]:
    """The members of the class with this code, on at least one point,
    expanded from its tree.  Only the children's members are kept
    (``_expand_child``, until ``drop_levels``): a sweep expands each
    class at most once, and its children recur from class to class."""
    if not code:
        return ((1,),)
    if code[0] == 2:
        _, q0, codes0 = code
        forms = set(_prime_forms(q0, codes0))
    else:
        forms = {(_sum_quotient(code[0], len(order)), order) for order in _arrangements(code[1])}
    return tuple(_inflate(q, blocks) for q, codes in forms
                 for blocks in product(*map(_expand_child, codes)))


_expand_child = lru_cache(maxsize=None)(_expand)


def class_members(code: Code, n: int) -> tuple[tuple[int, ...], ...]:
    """The members of the class of S_n with this code, expanded from its
    tree (``n`` tells the empty permutation from a single point, which
    share the code ``()``)."""
    return _expand(code) if n else ((),)


def drop_levels() -> None:
    """Free what the class sweeps build and keep: the records of S_n
    (the next ``class_records`` builds them again) and the children's
    members (``_expand_child``)."""
    class_records.cache_clear()
    _expand_child.cache_clear()
