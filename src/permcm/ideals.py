"""Squarefree monomial ideals: cover ideals, linear quotients, splittings.

A squarefree monomial is a variable subset, stored as a bitmask (bit i-1
for x_i), and an ideal is its antichain of minimal generators.  The two
searches are exact, and here they are capped by generator count:

* linear quotients: an ordering u_1..u_m such that each colon ideal
  (u_1,...,u_{k-1}) : u_k is generated by variables.  For squarefree
  monomials (u_i) : u_k is the monomial on u_i minus u_k, so the step
  condition is purely set arithmetic.
* vertex splittable: I = (0), (u) or S, or I = x_i I_1 + I_2 for some
  pivot variable with I_2 contained in I_1 and both parts recursively
  splittable.  The search, ``_split_pivot``, lives in
  ``permcm.complexes``, which reads vertex decomposability off it
  through the Alexander dual.  It is memoised on canonical forms and
  returns its pivot in the caller's labels, so a witness tree here is
  one call of it per node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from .caps import check_cap
from .complexes import _split_pivot
from .graphs import Graph, mask_of, vertices_of
from .invariants import independence_invariants

_T = TypeVar("_T")


def _minimalize(masks: Iterable[int]) -> tuple[int, ...]:
    """Antichain of divisibility-minimal squarefree monomials."""
    pool = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    keep: list[int] = []
    for m in pool:
        if not any(k & m == k for k in keep):
            keep.append(m)
    return tuple(sorted(keep))


@dataclass(frozen=True)
class MonomialIdeal:
    """n ambient variables; gens a sorted antichain of minimal generators.

    ``gens == ()`` is the zero ideal, ``gens == (0,)`` the unit ideal.
    """

    n: int
    gens: tuple[int, ...]

    @staticmethod
    def from_supports(n: int, supports: Iterable[Iterable[int]]) -> "MonomialIdeal":
        masks = []
        for s in supports:
            m = mask_of(s)
            if m & ~((1 << n) - 1):
                raise ValueError("generator uses a variable beyond the ambient count")
            masks.append(m)
        return MonomialIdeal(n, _minimalize(masks))

    def generator_sets(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(vertices_of(m) for m in self.gens))


def cover_ideal(g: Graph) -> MonomialIdeal:
    """Generators are the minimal vertex covers of the graph, the
    complements of its maximal independent sets."""
    return MonomialIdeal(g.n, independence_invariants(g)[3])


def _first_ordering(
    items: Sequence[_T], step_ok: Callable[[list[_T], _T], bool]
) -> list[_T] | None:
    """The first arrangement of the distinct ``items``, in depth-first
    order, in which each item passes ``step_ok(placed, new)`` against the
    items before it; None when there is none.

    ``step_ok`` must read ``placed`` only as a set.  Then whether a
    prefix can be completed depends only on the set it covers, so the
    prefix sets that failed are remembered and never searched again.
    """
    order: list[_T] = []
    dead: set[frozenset[_T]] = set()

    def extend(remaining: list[_T]) -> bool:
        if not remaining:
            return True
        state = frozenset(order)
        if state in dead:
            return False
        for idx, cand in enumerate(remaining):
            if step_ok(order, cand):
                order.append(cand)
                if extend(remaining[:idx] + remaining[idx + 1:]):
                    return True
                order.pop()
        dead.add(state)
        return False

    return order if extend(list(items)) else None


def _linear_step_ok(placed: Sequence[int], new: int) -> bool:
    # Colon of the prefix ideal by ``new``: generated by the differences
    # p \ new.  It is generated by variables iff every difference
    # contains a single-variable difference.
    singles = 0
    diffs = []
    for p in placed:
        d = p & ~new
        if d.bit_count() == 1:
            singles |= d
        diffs.append(d)
    return all(d & singles for d in diffs)


def is_linear_quotients_order(ideal: MonomialIdeal, order: Sequence[Sequence[int] | int]) -> bool:
    """Check a proposed generator ordering for the colon condition."""
    masks = [m if isinstance(m, int) else mask_of(m) for m in order]
    if sorted(masks) != sorted(ideal.gens):
        raise ValueError("order is not a permutation of the generators")
    for k in range(1, len(masks)):
        if not _linear_step_ok(masks[:k], masks[k]):
            return False
    return True


def linear_quotients_order(ideal: MonomialIdeal) -> tuple[tuple[int, ...], ...] | None:
    """An ordering with linear quotients, or None.

    Greedy extension with backtracking; failed prefix sets are memoised
    (the feasibility of a prefix only depends on the set it covers).
    """
    check_cap("linear_quotients", len(ideal.gens), "generator count")
    order = _first_ordering(ideal.gens, _linear_step_ok)
    return None if order is None else tuple(vertices_of(m) for m in order)


def vertex_splittable_test(ideal: MonomialIdeal) -> dict | None:
    """Witness tree for the recursive splitting, or None.

    Base cases are the zero ideal, a principal ideal and the unit ideal.
    The recursion splits the generators as x_i G(I_1) plus G(I_2) and
    requires I_2 inside I_1 with both parts splittable.  Each node takes
    its pivot x_i from one call of the memoised search
    (``permcm.complexes._split_pivot``), which only returns a pivot
    whose two parts split in turn.
    """
    check_cap("vertex_splittable", len(ideal.gens), "generator count")

    def build(gens: tuple[int, ...]) -> dict | None:
        if len(gens) <= 1:
            return {"base": [list(vertices_of(g)) for g in gens]}
        xb = _split_pivot(gens)
        if xb is None:
            return None
        return {
            "pivot": xb.bit_length(),
            "factor": build(tuple(sorted(g & ~xb for g in gens if g & xb))),
            "rest": build(tuple(g for g in gens if not g & xb)),
        }

    return build(ideal.gens)

