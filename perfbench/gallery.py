"""Seeded classification gallery for the ``classify-mix`` workload.

A gallery is 100 graphs in the order they are classified:

* 90 inversion graphs of uniformly random permutations, 30 each with
  n = 9, 10 and 11, every one randomly relabelled.
* a fixed family, also relabelled: P_10..P_12, 5K_2, 6K_2, the
  complements of P_10 and P_11, K_12, and the non-permutation graphs
  C_9 and C_10.

The 100 graphs are drawn once, from ``POOL_SEED``; the run seed sets
their order, which decides what the memo tables hold when each graph
arrives.  Drawing the random graphs per seed instead made the median
latency of two seeds differ by 15% or more, because the median sits
inside the spread of the n = 10 graphs, and recognising a relabelled
P_12 or 6K_2 costs up to eight times more under some labellings than
under others.  A fixed set is also what lets ``golden.json`` hold the
digest of every report any seed can produce.

Graphs are built here from plain edge lists, so the program under test
receives only the generated graphs.
"""

from __future__ import annotations

import random
import statistics
from collections import Counter
from itertools import combinations

POOL_SEED = "permcm-gallery-pool-v1"
RANDOM_NS = (9, 10, 11)
PER_N = 30


def _path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(1, n)]


def _complement(n: int, edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    present = set(edges)
    return [e for e in combinations(range(1, n + 1), 2) if e not in present]


FAMILY: dict[str, tuple[int, list[tuple[int, int]]]] = {
    "P10": (10, _path(10)),
    "P11": (11, _path(11)),
    "P12": (12, _path(12)),
    "5K2": (10, [(2 * i - 1, 2 * i) for i in range(1, 6)]),
    "6K2": (12, [(2 * i - 1, 2 * i) for i in range(1, 7)]),
    "coP10": (10, _complement(10, _path(10))),
    "coP11": (11, _complement(11, _path(11))),
    "K12": (12, list(combinations(range(1, 13), 2))),
    "C9": (9, _path(9) + [(1, 9)]),
    "C10": (10, _path(10) + [(1, 10)]),
}


def inversion_edges(perm: list[int]) -> list[tuple[int, int]]:
    """Edges {i, j}, i < j, where j appears before i in one-line notation."""
    pos = {v: k for k, v in enumerate(perm)}
    return [(i, j) for i, j in combinations(range(1, len(perm) + 1), 2) if pos[j] < pos[i]]


def _relabel(n: int, edges, rng: random.Random) -> list[list[int]]:
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    return sorted(sorted((sigma[u - 1], sigma[v - 1])) for u, v in edges)


def pool_item(key: str) -> dict:
    """The graph of one gallery entry, ``r<n>-<i>`` or a family name."""
    rng = random.Random(f"{POOL_SEED}:{key}")
    if key in FAMILY:
        n, edges = FAMILY[key]
    else:
        n = int(key[1:].partition("-")[0])
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        edges = inversion_edges(perm)
    return {"key": key, "n": n, "edges": _relabel(n, edges, rng)}


def pool_keys() -> list[str]:
    return [f"r{n}-{i}" for n in RANDOM_NS for i in range(PER_N)] + list(FAMILY)


def gallery(seed: int, part: int = 0) -> list[dict]:
    """The gallery of pass ``part`` of a run with this seed, in classify order."""
    keys = pool_keys()
    random.Random(f"order:{seed}:{part}").shuffle(keys)
    return [pool_item(k) for k in keys]


def shares(items: list[dict], facts: list[dict]) -> dict:
    """Property shares of a classified gallery.

    ``facts`` holds, per graph, the report's ``is_permutation``, ``cm``
    and facet count (the number of maximal independent sets).
    """
    perms = [f for f in facts if f["is_permutation"]]
    facets = sorted(f["facets"] for f in facts)
    return {
        "n_histogram": {str(n): c for n, c in sorted(Counter(it["n"] for it in items).items())},
        "permutation_share": len(perms) / len(facts),
        "cm_share_of_permutation": sum(bool(f["cm"]) for f in perms) / max(1, len(perms)),
        "facet_count_quartiles": statistics.quantiles(facets, n=4, method="inclusive"),
    }
