"""Command-line surface: classify, verify, survey, shed, ideal.

``verify`` runs an exhaustive sweep over the inversion graphs of all
permutations of S_n and compares a theorem-driven classifier against
its independent algebraic oracle; the discrepancy list of a correct
build is empty.  A sweep checks one member of each isomorphism class
(``permcm.classes``) and weights its result by the class size, so the
counts are those of all n! labelled graphs.
Exit codes: 0 success, 1 a theorem/oracle discrepancy (or a shed
request on a non-CM graph), 2 usage or parse errors.

Outputs are deterministic: identical invocations produce byte-identical
bytes, and parallel sweeps merge worker results in canonical order.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations, compress, repeat
from operator import itemgetter
from typing import Callable, Sequence

from .caps import check_cap, env_overrides
from .classes import Record, _inverse, class_members, class_records
from .classify import (
    ClaimFailureError,
    GraphFacts,
    _to_json,
    classify,
    extract_shedding_order,
    verify_shedding_certificate,
)
from .complexes import (
    hilbert_data,
    hochster_betti_table,
    is_vertex_decomposable,
    reisner_cm_test,
)
from .graphs import (
    Graph,
    Permutation,
    _is_path,
    complement,
    graph_from_edges,
    graph_from_json,
    graph_from_permutation,
    inversions,
    is_chordal,
)
from .ideals import (
    cover_ideal,
    linear_quotients_order,
    vertex_splittable_test,
)
from .invariants import independence_invariants


# -- per-theorem checks ------------------------------------------------------
#
# Each check takes the facts of one inversion graph, labelled as built
# from its permutation, and returns None (skipped: the statement does not
# apply) or a dict with "ok", "predicates" and, when not ok, a
# human-readable "detail".  Oracle predicates read only the graph, its
# maximal independent sets or its complex, never a theorem-side fact.

def _check_vd(f: GraphFacts) -> dict | None:
    comp = f.complex
    oracle_cm = reisner_cm_test(comp)
    theorem_cm = f.cm
    unmixed_vd = independence_invariants(f.g)[2] and is_vertex_decomposable(comp)
    ok = oracle_cm == theorem_cm == unmixed_vd
    return {
        "ok": ok,
        "predicates": {"reisner_cm": oracle_cm, "cm_partition": theorem_cm,
                       "unmixed_and_vd": unmixed_vd},
        "detail": None if ok else (
            f"reisner={oracle_cm} partition={theorem_cm} unmixed+vd={unmixed_vd}"
        ),
    }


def _check_cm(f: GraphFacts) -> dict | None:
    oracle_cm = reisner_cm_test(f.complex)
    unmixed = independence_invariants(f.g)[2]
    _, parts = f.cm_partitions
    count = len(parts)  # 0, 1, or 2 meaning "at least 2"
    if oracle_cm:
        ok = count == 1
    elif unmixed:
        ok = count != 1
    else:
        ok = True
    return {
        "ok": ok,
        "predicates": {"oracle_cm": oracle_cm, "unmixed": unmixed,
                       "unique_partition": count == 1},
        "detail": None if ok else f"cm={oracle_cm} unmixed={unmixed} partitions={count}",
    }


def _check_goren(f: GraphFacts) -> dict | None:
    if f.g.isolated_vertices():
        return None
    structural = f.gorenstein
    comp = f.complex
    cm = reisner_cm_test(comp)
    lhs = False
    if cm:
        lhs = hochster_betti_table(comp).type == 1
    ok = lhs == structural
    return {
        "ok": ok,
        "predicates": {"oracle_gorenstein": lhs, "disjoint_edges": structural},
        "detail": None if ok else f"cm_and_type1={lhs} disjoint_edges={structural}",
    }


def _facets_form_path(facets: tuple[tuple[int, ...], ...], n: int) -> bool:
    if n < 2 or any(len(f) != 2 for f in facets):
        return False
    return _is_path(graph_from_edges(n, facets))


def _check_nearly(f: GraphFacts) -> dict | None:
    g = f.g
    # Nearly Gorenstein is not kept under a cone.  An isolated vertex
    # adds a free variable x to the ring, and the trace of the canonical
    # module only extends along it, so it misses x unless the ring was
    # Gorenstein: K_3 + K_1 is not nearly Gorenstein though K_3 is.  The
    # structural flag strips isolated vertices and this check reads only
    # facet shapes, so such graphs stay skipped until an oracle that
    # reads the ring can check them.
    if g.isolated_vertices():
        return None
    flags = f.structure
    nearly = f.nearly_gorenstein
    facets = f.complex.facet_sets()
    points = g.n >= 3 and len(facets) == g.n and all(len(s) == 1 for s in facets)
    path = g.n >= 3 and _facets_form_path(facets, g.n)
    ok = nearly == (points or path)
    # the facet shapes must correspond respectively
    if nearly and flags.is_complete and not points:
        ok = False
    if nearly and flags.is_path_complement and not path:
        ok = False
    return {
        "ok": ok,
        "predicates": {"nearly_structural": nearly, "facet_points": points,
                       "facet_path": path},
        "detail": None if ok else f"nearly={nearly} points={points} path={path}",
    }


def _check_ainv(f: GraphFacts) -> dict | None:
    comp = f.complex
    im = f.invariants.induced_matching
    reg = hochster_betti_table(comp).reg
    ok = reg == im
    detail = None if ok else f"betti reg={reg} im={im}"
    cm = f.cm
    formula_ok = True
    window_ok = True
    if ok and cm:
        hd = hilbert_data(comp)
        a, hilbertian = f.a_invariant
        formula_ok = hd.a == a
        window_ok = hilbertian == hd.hilbertian
        if not formula_ok:
            detail = f"hilbert a={hd.a} formula={a}"
        elif not window_ok:
            detail = f"a={a} but window agreement={hd.hilbertian}"
    return {
        "ok": ok and formula_ok and window_ok,
        "predicates": {"reg_equals_im": ok, "cm": cm,
                       "a_formula": formula_ok, "hilbertian_window": window_ok},
        "detail": detail,
    }


def _check_bicm(f: GraphFacts) -> dict | None:
    g = f.g
    lhs = f.bicm
    # Cover-ring CM oracle: the cover ideal quotient is CM iff the edge
    # ideal has a linear resolution iff the complement is chordal; when
    # the graph has no edges the cover ideal is the unit ideal and the
    # quotient is the zero ring, which is not Cohen-Macaulay.
    oracle = (
        g.edge_count() > 0
        and reisner_cm_test(f.complex)
        and is_chordal(complement(g))
    )
    ok = lhs == oracle
    return {
        "ok": ok,
        "predicates": {"cm_and_im1": lhs, "oracle_bicm": oracle},
        "detail": None if ok else f"cm∧im=1 is {lhs}, oracle {oracle}",
    }


def _check_hilb(f: GraphFacts) -> dict | None:
    hd = hilbert_data(f.complex)
    identity_ok = (hd.a < 0) == hd.hilbertian
    cm = f.cm
    formula_ok = True
    if cm:
        formula_ok = f.a_invariant[1] == hd.hilbertian
    ok = identity_ok and formula_ok
    return {
        "ok": ok,
        "predicates": {"a_window_identity": identity_ok, "cm": cm,
                       "formula_hilbertian": formula_ok},
        "detail": None if ok else f"a={hd.a} window={hd.hilbertian}",
    }


def _check_covs(f: GraphFacts) -> dict | None:
    if not independence_invariants(f.g)[2]:
        return None
    ideal = cover_ideal(f.g)
    splittable = vertex_splittable_test(ideal) is not None
    linear = linear_quotients_order(ideal) is not None
    cm = f.cm
    ok = splittable == linear == cm
    return {
        "ok": ok,
        "predicates": {"vertex_splittable": splittable, "linear_quotients": linear,
                       "cm": cm},
        "detail": None if ok else f"split={splittable} lq={linear} cm={cm}",
    }


def _check_shed(f: GraphFacts) -> dict | None:
    if not f.cm:
        return None
    try:
        # from the bare graph, so the public extraction path is exercised
        cert = extract_shedding_order(f.g)
    except ClaimFailureError as exc:
        return {
            "ok": False,
            "predicates": {"certificate_verified": False},
            "detail": f"claim failure: {exc}",
        }
    verified = verify_shedding_certificate(f.g, cert)
    return {
        "ok": verified,
        "predicates": {"certificate_verified": verified},
        "detail": None if verified else "certificate failed independent re-check",
    }


def _check_gap(f: GraphFacts) -> dict | None:
    result = f.gap_witness
    if result is None:
        return None  # not Gorenstein, or alpha < 2: nothing claimed
    return {
        "ok": result,
        "predicates": {"gap_witness": result},
        "detail": None if result else "some neighbourhood-deleted graph is not 2K_2",
    }


_CHECKS = {
    "vd": _check_vd,
    "cm": _check_cm,
    "goren": _check_goren,
    "nearly": _check_nearly,
    "ainv": _check_ainv,
    "bicm": _check_bicm,
    "hilb": _check_hilb,
    "covs": _check_covs,
    "shed": _check_shed,
    "gap": _check_gap,
}


@dataclass
class SweepResult:
    theorem: str
    n: int
    total_permutations: int
    distinct_graphs: int
    checked: int
    skipped: int
    counts: dict[str, int] = field(default_factory=dict)
    discrepancies: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_dict(self) -> dict:
        return _to_json(self)


def _check_sweep_args(n: int, jobs: int) -> None:
    if n < 0:
        raise ValueError(f"--n must be nonnegative, got {n}")
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")


def _facts(perm: tuple[int, ...]) -> GraphFacts:
    """Facts of the inversion graph of ``perm``.  Its labelling is
    cohesive by construction, so sweeps need not recognise their graphs."""
    g = graph_from_permutation(Permutation(perm))
    return GraphFacts(g, order=tuple(range(1, g.n + 1)))


@lru_cache(maxsize=None)
def _pair_table(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[bytes, ...], tuple[str, ...]]:
    """The vertex pairs u < v on 1..n in increasing order, as 0-based
    indices, each with its two key bytes and its ``u-v`` survey cell.

    A member's edge key is the join of the key bytes of its edges: keys
    order as the edge lists do, and sort far faster (every label is
    below 256).
    """
    pairs = tuple(combinations(range(n), 2))
    return (pairs, tuple(bytes((u + 1, v + 1)) for u, v in pairs),
            tuple(f"{u + 1}-{v + 1}" for u, v in pairs))


def _inverted(p: tuple[int, ...], pairs: tuple[tuple[int, int], ...]) -> list[bool]:
    """For each of ``pairs``, whether its values appear out of order in
    ``p``: whether it is an edge of the inversion graph."""
    pos = _inverse(p)
    return [pos[v] < pos[u] for u, v in pairs]


def _class_slice(fn: Callable[[Record], object], n: int, start: int, step: int) -> list:
    """``fn`` of every ``step``-th class record of S_n from ``start``."""
    return [fn(record) for record in class_records(n)[start::step]]


def _map_classes(fn: Callable[[Record], object], n: int, jobs: int) -> list:
    """``fn`` of each class record of S_n (``class_records``), in record
    order: the one pool of both sweeps.

    With more than one job, a process pool of at most one worker per job
    and CPU maps four strided slices of the records per worker, and
    their results are interleaved back into record order.  The pool is
    forked before any record exists (a forked pool starts all its
    workers at the first submit), so each worker builds the records
    itself and none holds a copy of the parent's.
    """
    if jobs == 1:
        return _class_slice(fn, n, 0, 1)
    workers = min(jobs, os.cpu_count() or 1)
    step = 4 * workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = list(pool.map(_class_slice, repeat(fn), repeat(n), range(step), repeat(step)))
    out = [None] * sum(map(len, parts))
    for start, part in enumerate(parts):
        out[start::step] = part
    return out


def _check_class(check: Callable[[GraphFacts], dict | None], record: Record) -> tuple:
    """``record`` and the result of ``check`` on its representative."""
    return record, check(_facts(record[2]))


def _discrepancy(perm: tuple[int, ...], res: dict) -> dict:
    """A record that replays: ``classify --perm`` of ``perm`` gives the
    graph with these edges."""
    return {
        "perm": list(perm),
        "edges": [list(e) for e in inversions(perm)],
        "predicates": res["predicates"],
        "detail": res["detail"],
    }


def run_verify(theorem: str, n: int, jobs: int = 1) -> SweepResult:
    """Sweep all of S_n for one theorem/oracle pair.

    Each isomorphism class (``class_records``) is checked once, at its
    representative, through ``_map_classes``, and its result weighted
    by the class size: every check is an isomorphism invariant.  A class
    whose representative fails is expanded and re-checked member by
    member, with labels, and those results replace its weighted one.
    ``counts`` keeps the order in which the class records first hold
    each predicate; ``verify`` prints it sorted.  Discrepancies are
    sorted by their edges.  The parent builds no record: each comes
    back with its result.
    """
    if theorem not in _CHECKS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    _check_sweep_args(n, jobs)
    check_cap(theorem, n, "sweep")
    check = _CHECKS[theorem]
    counts: dict[str, int] = {}
    discrepancies = []
    checked = skipped = 0
    for (code, size, rep), result in _map_classes(partial(_check_class, check), n, jobs):
        if result is not None and not result["ok"]:
            tally = [(1, p, check(_facts(p))) for p in class_members(code, n)]
        else:
            tally = [(size, rep, result)]
        for weight, perm, res in tally:
            if res is None:
                skipped += weight
                continue
            checked += weight
            for name, value in res["predicates"].items():
                if value:
                    counts[name] = counts.get(name, 0) + weight
            if not res["ok"]:
                discrepancies.append(_discrepancy(perm, res))
    # an inversion set fixes its permutation: no two records tie
    discrepancies.sort(key=itemgetter("edges"))
    return SweepResult(
        theorem=theorem,
        n=n,
        total_permutations=checked + skipped,
        distinct_graphs=checked + skipped,
        checked=checked,
        skipped=skipped,
        counts=counts,
        discrepancies=discrepancies,
    )


# -- survey -------------------------------------------------------------------

_SURVEY_COLUMNS = [
    "edges", "alpha", "tau", "matching", "induced_matching", "unmixed",
    "cm", "gorenstein", "nearly_gorenstein", "bicm", "hilbertian",
    "a_invariant", "reg",
]


def _survey_row(f: GraphFacts) -> dict:
    """Every column but ``edges``: those are facts of the class."""
    inv = f.invariants
    cm = f.cm
    if cm:
        a, hilbertian = f.a_invariant
    else:
        hd = hilbert_data(f.complex)
        a = hd.a
        hilbertian = hd.hilbertian
    return {
        "alpha": inv.alpha,
        "tau": inv.tau,
        "matching": inv.matching,
        "induced_matching": inv.induced_matching,
        "unmixed": inv.unmixed,
        "cm": cm,
        "gorenstein": f.gorenstein,
        "nearly_gorenstein": f.nearly_gorenstein,
        "bicm": f.bicm,
        "hilbertian": hilbertian,
        "a_invariant": a,
        "reg": inv.induced_matching,
    }


def _survey_entries(members: Sequence[tuple[int, ...]], row: dict) -> list[tuple]:
    """(key, edges cell, row) for each member of a class: every member
    shares the row of the least one."""
    pairs, keys, cells = _pair_table(len(members[0]))
    out = []
    for p in members:
        edges = _inverted(p, pairs)
        out.append((b"".join(compress(keys, edges)), ";".join(compress(cells, edges)), row))
    return out


def _survey_class(n: int, record: Record) -> list[tuple]:
    """``_survey_entries`` of the members of one class of S_n, expanded
    from its tree, with the row of its representative."""
    code, _, rep = record
    return _survey_entries(class_members(code, n), _survey_row(_facts(rep)))


def survey_rows(n: int, jobs: int = 1) -> list[tuple[str, dict]]:
    """One ``(edges cell, row)`` pair per permutation of S_n, in order of
    its inversion graph's edge tuple (``_pair_table``): the cell from the
    permutation, and ``row`` every other column, from its isomorphism
    class.

    Every column but ``edges`` is an isomorphism invariant, so
    ``_map_classes`` computes the row of each class once, at its
    representative, and all members of a class share that one dict.
    """
    _check_sweep_args(n, jobs)
    check_cap("survey", n, "survey")
    entries = [e for part in _map_classes(partial(_survey_class, n), n, jobs) for e in part]
    entries.sort(key=itemgetter(0))
    # each pair replaces its entry in place, so the entry and its key
    # are freed as the pair is made: no second list of n! tuples is
    # held, and the cyclic collector, which counts allocations net of
    # frees, does not run over these tuples (a tuple holding a dict is
    # never untracked) while they are made
    for i, (_, edges, row) in enumerate(entries):
        entries[i] = edges, row
    return entries


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def render_survey(rows: Sequence[tuple[str, dict]], fmt: str) -> str:
    """The text of ``survey_rows``' pairs as CSV or as a JSON list of
    objects, each the ``edges`` cell with its row."""
    if fmt == "csv":
        # no cell holds a comma, a quote or a line break, so no cell is
        # quoted; the members of a class share their row, and its cells
        # are formatted once, with the line's end (a bool and the int it
        # equals share a cache slot, and both format alike)
        shared = itemgetter(*_SURVEY_COLUMNS[1:])
        formatted: dict[tuple, str] = {}
        pieces = [",".join(_SURVEY_COLUMNS), "\n"]
        for edges, row in rows:
            cells = shared(row)
            tail = formatted.get(cells)
            if tail is None:
                tail = formatted[cells] = "," + ",".join(map(_format_cell, cells)) + "\n"
            pieces.append(edges)
            pieces.append(tail)
        return "".join(pieces)
    if fmt == "json":
        return json.dumps([{"edges": edges, **row} for edges, row in rows],
                          indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# -- input parsing --------------------------------------------------------------

def _parse_perm(text: str) -> Permutation:
    # commas and whitespace separate the entries, and no entry may be
    # empty ("2,,1", "2,1,"); ASCII digits only: int() would also take
    # "1_0", "+2" and non-ASCII digits
    parts = re.split(r"\s*,\s*|\s+", text.strip())
    if not all(re.fullmatch(r"[0-9]+", p) for p in parts):
        raise ValueError(f"bad permutation {text!r}")
    return Permutation(tuple(map(int, parts)))


def _load_graph(args) -> Graph:
    if getattr(args, "perm", None):
        g = graph_from_permutation(_parse_perm(args.perm))
    elif getattr(args, "graph", None):
        with open(args.graph, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        g = graph_from_json(data)
    else:
        raise ValueError("provide --perm or --graph")
    args.n = g.n  # named by main's error when a search recurses too deep
    return g


# -- commands --------------------------------------------------------------------

def _cmd_classify(args) -> int:
    g = _load_graph(args)
    report = classify(g, with_oracle=not args.no_oracle)
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    result = run_verify(args.theorem, args.n, jobs=args.jobs)
    print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    return 0 if result.ok else 1


def _cmd_survey(args) -> int:
    rows = survey_rows(args.n, jobs=args.jobs)
    text = render_survey(rows, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_shed(args) -> int:
    g = _load_graph(args)
    facts = GraphFacts(g)
    if facts.order is None:
        print("input is not a permutation graph", file=sys.stderr)
        return 1
    if not facts.cm:
        print("input is not Cohen-Macaulay: no shedding order extracted",
              file=sys.stderr)
        return 1
    payload = extract_shedding_order(g, facts.order).to_dict()
    payload["isolated_vertices_stripped"] = list(g.isolated_vertices())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_ideal(args) -> int:
    g = _load_graph(args)
    ideal = cover_ideal(g)
    payload = {  # json.dumps writes tuples as arrays
        "n": ideal.n,
        "generators": ideal.generator_sets(),
        "linear_quotients_order": linear_quotients_order(ideal),
        "vertex_splittable": vertex_splittable_test(ideal),
    }
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permcm",
        description=(
            "Classify permutation graphs (Cohen-Macaulay, Gorenstein, nearly "
            "Gorenstein, bi-CM, Hilbertian) and verify the classifiers against "
            "brute-force algebraic oracles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_graph_args(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--perm", help="permutation in one-line notation, e.g. 2,4,5,1,3")
        source.add_argument("--graph", help='path to graph JSON {"n": 5, "edges": [[1,2],...]}')

    p = sub.add_parser("classify", help="full classification report as JSON")
    add_graph_args(p)
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the algebraic oracle cross-checks")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="exhaustive theorem-vs-oracle sweep over S_n")
    p.add_argument("theorem", choices=sorted(_CHECKS))
    p.add_argument("--n", type=int, required=True, help="sweep all permutations of S_n")
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "survey",
        help="one classification row per distinct graph of S_n "
             "(columns: " + ",".join(_SURVEY_COLUMNS) + "; booleans as 0/1, "
             "absent values empty)",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("shed", help="constructive shedding-order certificate (CM inputs)")
    add_graph_args(p)
    p.set_defaults(func=_cmd_shed)

    p = sub.add_parser("ideal", help="cover ideal: generators, linear quotients, splitting")
    add_graph_args(p)
    p.set_defaults(func=_cmd_ideal)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        env_overrides()  # a malformed PERMCM_CAPS fails every command
        return args.func(args)
    except (ValueError, OSError) as exc:  # a cap or a JSON error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # json.load recurses once per level of nesting, the clique and
        # ordering searches once per vertex they add
        what = f"an input with n = {args.n}" if "n" in vars(args) else "a deeply nested input"
        print(f"error: recursion limit reached on {what}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
