"""Command-line surface: classify, verify, survey, shed, ideal.

``verify`` runs an exhaustive sweep over the inversion graphs of all
permutations of S_n and compares a theorem-driven classifier against
its independent algebraic oracle; the discrepancy list of a correct
build is empty.  A sweep checks one member of each isomorphism class
(``permcm.classes``) and weights its result by the class size, so the
counts are those of all n! labelled graphs.
Exit codes: 0 success, 1 a theorem/oracle discrepancy (or a shed
request on an input that is not a CM permutation graph), 2 usage or
parse errors.

Outputs are deterministic: identical invocations produce byte-identical
bytes, and parallel sweeps merge worker results in canonical order.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import combinations, repeat
from operator import itemgetter
from typing import Callable, NamedTuple

from .caps import check_cap, env_overrides
from .classes import _inverse, class_members, class_records, drop_levels
from .classify import (
    ClaimFailureError,
    GraphFacts,
    _to_json,
    classify,
    extract_shedding_order,
    verify_shedding_certificate,
)
from .complexes import (
    SimplicialComplex,
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
# apply) or its ``_result``.  Oracle predicates read only the graph, its
# maximal independent sets or its complex, never a theorem-side fact.

def _result(ok: bool, detail: str | None, /, **predicates: bool) -> dict:
    """A check's result: ``ok``, its named predicates in the order given,
    and ``detail``, a human-readable account that is None when ok."""
    return {"ok": ok, "predicates": predicates, "detail": detail}


def _check_vd(f: GraphFacts) -> dict | None:
    comp = f.complex
    oracle_cm = reisner_cm_test(comp)
    theorem_cm = f.cm
    unmixed_vd = independence_invariants(f.g)[2] and is_vertex_decomposable(comp)
    ok = oracle_cm == theorem_cm == unmixed_vd
    return _result(
        ok, None if ok else f"reisner={oracle_cm} partition={theorem_cm} unmixed+vd={unmixed_vd}",
        reisner_cm=oracle_cm, cm_partition=theorem_cm, unmixed_and_vd=unmixed_vd)


def _check_cm(f: GraphFacts) -> dict | None:
    oracle_cm = reisner_cm_test(f.complex)
    unmixed = independence_invariants(f.g)[2]
    count = len(f.cm_partitions[1])  # 0, 1, or 2 meaning "at least 2"
    ok = count == 1 if oracle_cm else (not unmixed or count != 1)
    return _result(ok, None if ok else f"cm={oracle_cm} unmixed={unmixed} partitions={count}",
                   oracle_cm=oracle_cm, unmixed=unmixed, unique_partition=count == 1)


def _oracle_gorenstein(comp: SimplicialComplex) -> bool:
    """Gorenstein by the ring: Reisner CM and Hochster type 1.  An
    isolated vertex cones the complex, which keeps both."""
    return reisner_cm_test(comp) and hochster_betti_table(comp).type == 1


def _check_goren(f: GraphFacts) -> dict | None:
    if f.g.isolated_vertices():
        return None
    structural = f.gorenstein
    lhs = _oracle_gorenstein(f.complex)
    ok = lhs == structural
    return _result(ok, None if ok else f"cm_and_type1={lhs} disjoint_edges={structural}",
                   oracle_gorenstein=lhs, disjoint_edges=structural)


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
    nearly = f.nearly_gorenstein
    facets = f.complex.facet_sets()
    points = g.n >= 3 and len(facets) == g.n and all(len(s) == 1 for s in facets)
    path = g.n >= 3 and _facets_form_path(facets, g.n)
    ok = nearly == (points or path)
    if nearly:
        # the facet shapes must correspond respectively
        flags = f.structure
        if (flags.is_complete and not points) or (flags.is_path_complement and not path):
            ok = False
    return _result(ok, None if ok else f"nearly={nearly} points={points} path={path}",
                   nearly_structural=nearly, facet_points=points, facet_path=path)


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
    return _result(ok and formula_ok and window_ok, detail, reg_equals_im=ok, cm=cm,
                   a_formula=formula_ok, hilbertian_window=window_ok)


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
    return _result(ok, None if ok else f"cm∧im=1 is {lhs}, oracle {oracle}",
                   cm_and_im1=lhs, oracle_bicm=oracle)


def _check_hilb(f: GraphFacts) -> dict | None:
    hd = hilbert_data(f.complex)
    identity_ok = (hd.a < 0) == hd.hilbertian
    cm = f.cm
    formula_ok = not cm or f.a_invariant[1] == hd.hilbertian
    ok = identity_ok and formula_ok
    return _result(ok, None if ok else f"a={hd.a} window={hd.hilbertian}",
                   a_window_identity=identity_ok, cm=cm, formula_hilbertian=formula_ok)


def _check_covs(f: GraphFacts) -> dict | None:
    if not independence_invariants(f.g)[2]:
        return None
    ideal = cover_ideal(f.g)
    splittable = vertex_splittable_test(ideal) is not None
    linear = linear_quotients_order(ideal) is not None
    cm = f.cm
    ok = splittable == linear == cm
    return _result(ok, None if ok else f"split={splittable} lq={linear} cm={cm}",
                   vertex_splittable=splittable, linear_quotients=linear, cm=cm)


def _check_shed(f: GraphFacts) -> dict | None:
    if not f.cm:
        return None
    try:
        # from the bare graph, so the public extraction path is exercised
        cert = extract_shedding_order(f.g)
    except ClaimFailureError as exc:
        return _result(False, f"claim failure: {exc}", certificate_verified=False)
    ok = verify_shedding_certificate(f.g, cert)
    return _result(ok, None if ok else "certificate failed independent re-check",
                   certificate_verified=ok)


def _check_gap(f: GraphFacts) -> dict | None:
    # the graphs are selected by the ring, not by the structural flag,
    # so a wrong flag cannot hide a graph that fails the lemma
    if not _oracle_gorenstein(f.complex):
        return None
    ok = f.gap_lemma
    if ok is None:
        return None  # alpha < 2: nothing claimed
    return _result(ok, None if ok else "some neighbourhood-deleted graph is not 2K_2",
                   gap_witness=ok)


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
def _pair_table(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[str | None, ...]]:
    """The vertex pairs u < v on 1..n in increasing order, as 0-based
    indices, and the ``u-v`` survey cell of each pair by its key byte.

    The key byte of a pair is its index here plus 1, so a member's edge
    bytes (``_edge_bytes``) order as its edge list does and none is 0
    (there are at most 255 pairs: every survey size is capped far below
    n = 23).  Index 0 of the cells is unused.
    """
    pairs = tuple(combinations(range(n), 2))
    return pairs, (None,) + tuple(f"{u + 1}-{v + 1}" for u, v in pairs)


def _edge_bytes(p: tuple[int, ...], pairs: tuple[tuple[int, int], ...]) -> bytes:
    """The key bytes of the edges of the inversion graph of ``p``: of
    each of ``pairs`` whose values appear out of order in ``p``."""
    pos = _inverse(p)
    return bytes([i for i, (u, v) in enumerate(pairs, 1) if pos[v] < pos[u]])


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the
    platform has one (``taskset``, a cpuset), else all of the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_classes(fn: Callable[[int, int, int], object], n: int, jobs: int) -> list:
    """``fn(n, start, step)`` of each strided slice of the class records
    of S_n (``class_records``), the records at ``start``, ``start`` +
    ``step``, ...: the one pool of both sweeps.  The slices cover every
    record position once, and each sweep reduces its slices' results.

    With ``workers`` = min(jobs, usable CPUs) one, this process maps the
    one slice of step 1.  Above one, it maps the slice of every
    ``workers``-th record itself, and a process pool of ``workers`` - 1
    forked workers maps the others, in slices of step 4 * ``workers``,
    four tasks per worker; this process's result comes first, then the
    pool's in order of their start.  The pool's slices are submitted
    before this process maps its own (a forked pool starts all its
    workers at the first submit), so the workers are forked before any
    record exists: each builds the records itself and none holds a copy
    of this process's.  Once this process has mapped its slice, it drops
    the records (``drop_levels``): a later sweep builds them again.  A
    serial map imports no process pool.
    """
    workers = min(jobs, _usable_cpus())
    if workers == 1:
        try:
            return [fn(n, 0, 1)]
        finally:
            drop_levels()
    from concurrent.futures import ProcessPoolExecutor

    step = 4 * workers
    pooled = [k for k in range(step) if k % workers]
    with ProcessPoolExecutor(max_workers=workers - 1) as pool:
        mapped = pool.map(fn, repeat(n), pooled, repeat(step))
        try:
            own = fn(n, 0, workers)
        except BaseException:
            pool.shutdown(cancel_futures=True)  # the slices not started yet
            raise
        finally:
            drop_levels()
        return [own, *mapped]


def _discrepancy(perm: tuple[int, ...], res: dict) -> dict:
    """A record that replays: ``classify --perm`` of ``perm`` gives the
    graph with these edges."""
    return {
        "perm": list(perm),
        "edges": [list(e) for e in inversions(perm)],
        "predicates": res["predicates"],
        "detail": res["detail"],
    }


def _verify_slice(check: Callable[[GraphFacts], dict | None], n: int, start: int,
                  step: int) -> tuple[Counter, int, int, list[dict]]:
    """The tally of ``check`` over every ``step``-th class record of S_n
    from ``start``: ``(counts, checked, skipped, discrepancies)``.

    Each class is checked at its representative and weighted by its
    size, or, when the representative fails, checked member by member,
    with labels.  ``counts`` is the weighted count of each predicate
    that held.
    """
    records = class_records(n)
    counts = Counter()
    discrepancies = []
    checked = skipped = 0
    for k in range(start, len(records), step):
        code, size, rep = records[k]
        result = check(_facts(rep))
        tally = [(size, rep, result)]
        if result is not None and not result["ok"]:
            tally = [(1, p, check(_facts(p))) for p in class_members(code, n)]
        for weight, perm, res in tally:
            if res is None:
                skipped += weight
                continue
            checked += weight
            for name, value in res["predicates"].items():
                if value:
                    counts[name] += weight
            if not res["ok"]:
                discrepancies.append(_discrepancy(perm, res))
    return counts, checked, skipped, discrepancies


def run_verify(theorem: str, n: int, jobs: int = 1) -> SweepResult:
    """Sweep all of S_n for one theorem/oracle pair.

    Each isomorphism class (``class_records``) is checked once, at its
    representative, and its result weighted by the class size: every
    check is an isomorphism invariant.  ``_map_classes`` folds each
    slice of the records into one tally where it maps it
    (``_verify_slice``), so here the tallies are only added up.
    ``counts`` lists the predicates by name and the discrepancies are
    sorted by their edges.
    """
    if theorem not in _CHECKS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    _check_sweep_args(n, jobs)
    check_cap(theorem, n, "sweep")
    counts = Counter()
    discrepancies = []
    checked = skipped = 0
    for part, part_checked, part_skipped, part_discrepancies in _map_classes(
            partial(_verify_slice, _CHECKS[theorem]), n, jobs):
        counts += part
        checked += part_checked
        skipped += part_skipped
        discrepancies += part_discrepancies
    # an inversion set fixes its permutation: no two records tie
    discrepancies.sort(key=itemgetter("edges"))
    return SweepResult(
        theorem=theorem,
        n=n,
        total_permutations=checked + skipped,
        distinct_graphs=checked + skipped,
        checked=checked,
        skipped=skipped,
        counts=dict(sorted(counts.items())),
        discrepancies=discrepancies,
    )


# -- survey -------------------------------------------------------------------

_SURVEY_COLUMNS = [
    "edges", "alpha", "tau", "matching", "induced_matching", "unmixed",
    "cm", "gorenstein", "nearly_gorenstein", "bicm", "hilbertian",
    "a_invariant", "reg",
]


def _survey_row(f: GraphFacts) -> tuple:
    """Every column but ``edges``, in column order: those are facts of
    the class."""
    inv = f.invariants
    cm = f.cm
    if cm:
        a, hilbertian = f.a_invariant
    else:
        hd = hilbert_data(f.complex)
        a, hilbertian = hd.a, hd.hilbertian
    return (inv.alpha, inv.tau, inv.matching, inv.induced_matching, inv.unmixed, cm,
            f.gorenstein, f.nearly_gorenstein, f.bicm, hilbertian, a, inv.induced_matching)


def _survey_slice(n: int, start: int, step: int) -> tuple[slice, list[tuple], list[bytes]]:
    """The rows of every ``step``-th class record of S_n from ``start``,
    each from its class's representative, with the slice of record order
    they fill, and the key of each member of those classes, expanded
    from its tree: the member's edge bytes, a zero byte, then its
    class's position in record order, in as few big-endian bytes as it
    needs."""
    records = class_records(n)
    pairs = _pair_table(n)[0]
    rows, keys = [], []
    for k in range(start, len(records), step):
        code, _, rep = records[k]
        rows.append(_survey_row(_facts(rep)))
        tag = b"\0" + k.to_bytes((k.bit_length() + 7) // 8, "big")
        keys += [_edge_bytes(p, pairs) + tag for p in class_members(code, n)]
    return slice(start, None, step), rows, keys


class Survey(NamedTuple):
    """``survey_rows`` of S_n: ``rows`` holds the row of each class, in
    record order, and ``keys`` the key of each permutation, sorted."""

    n: int
    rows: list[tuple]
    keys: list[bytes]


def survey_rows(n: int, jobs: int = 1) -> Survey:
    """The survey of S_n: one row per isomorphism class, and one key per
    permutation, in order of its inversion graph's edge tuple.

    Every column but ``edges`` is an isomorphism invariant, so each
    slice that ``_map_classes`` maps computes the row of each of its
    classes once, at its representative, with its members' keys
    (``_survey_slice``); here the rows are put back in record order.  No
    byte of a key before its zero byte is 0, so the keys sort as the
    edge tuples do, whatever follows.  A member is held as its key
    alone: ``render_survey`` reads its ``edges`` cell and its class's
    row off it.
    """
    _check_sweep_args(n, jobs)
    check_cap("survey", n, "survey")
    parts = _map_classes(_survey_slice, n, jobs)
    rows: list[tuple] = [None] * sum(len(part_rows) for _, part_rows, _ in parts)
    keys = []
    for where, part_rows, part_keys in parts:
        rows[where] = part_rows
        keys += part_keys
    keys.sort()
    return Survey(n, rows, keys)


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


# members per chunk of the rendered text
_CHUNK = 4096


def render_survey(survey: Survey, fmt: str, write: Callable[[str], object]) -> None:
    """Pass ``write`` the text of a survey as CSV or as a JSON list of
    objects, each the ``edges`` cell of a permutation with its class's
    row, in chunks of at most ``_CHUNK`` members, each as it is made.

    The text around the cells of a class's members is built once per
    class, and a member adds only its ``edges`` cell, read off its key,
    so nothing made for a member outlives its chunk, and no string holds
    the whole text.
    """
    if fmt == "csv":
        # no cell holds a comma, a quote or a line break, so no cell is
        # quoted
        head, sep, end = ",".join(_SURVEY_COLUMNS) + "\n", "", ""
        around = [("", "," + ",".join(map(_format_cell, row)) + "\n") for row in survey.rows]
    elif fmt == "json":
        # the text of json.dumps([{"edges": edges, **row}, ...], indent=2,
        # sort_keys=True), with no member's dict built
        head, sep, end = "[", ",", ("\n]\n" if survey.keys else "]\n")
        around = [_json_around_edges(row) for row in survey.rows]
    else:
        raise ValueError(f"unknown format {fmt!r}")
    cells = _pair_table(survey.n)[1]
    keys = survey.keys
    write(head)
    for start in range(0, len(keys), _CHUNK):
        pieces = []
        for key in keys[start:start + _CHUNK]:
            edges, _, tag = key.partition(b"\0")
            front, back = around[int.from_bytes(tag, "big")]
            pieces.append(front + ";".join([cells[b] for b in edges]) + back)
        write((sep if start else "") + sep.join(pieces))
    write(end)


def _json_around_edges(row: tuple) -> list[str]:
    """The text of a survey member's JSON object before its ``edges``
    cell and after it, from the line break after the list's comma: the
    object dumped with the stand-in cell ``"\\0"``, indented as a list
    item and cut at its escape.  A cell holds only digits, ``-`` and
    ``;``, which JSON writes as they are, so its quotes are in this text."""
    text = json.dumps(dict(zip(_SURVEY_COLUMNS, ("\0",) + row)), indent=2, sort_keys=True)
    return ("\n" + text).replace("\n", "\n  ").split("\\u0000")


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
    survey = survey_rows(args.n, jobs=args.jobs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            render_survey(survey, args.format, fh.write)
        print(f"wrote {len(survey.keys)} rows to {args.out}")
    else:
        render_survey(survey, args.format, sys.stdout.write)
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


_JOBS_HELP = ("processes that map the classes, this one included "
              "(at most one per usable CPU)")


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
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
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
    p.add_argument("--jobs", type=int, default=1, help=_JOBS_HELP)
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
