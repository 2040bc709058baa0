"""Command-line surface: classify, verify, survey, shed, ideal.

``verify`` runs an exhaustive sweep over the inversion graphs of all
permutations of S_n (one graph per permutation, in order of edge set)
and compares a theorem-driven classifier against its independent
algebraic oracle; the discrepancy list of a correct build is empty.
Exit codes: 0 success, 1 a theorem/oracle discrepancy (or a shed
request on a non-CM graph), 2 usage or parse errors.

Outputs are deterministic: identical invocations produce byte-identical
bytes, and parallel sweeps merge worker results in canonical order.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import permutations
from operator import itemgetter
from typing import Callable

from .caps import CapExceededError, check_cap, env_overrides
from .classify import (
    ClaimFailureError,
    GraphFacts,
    classify,
    extract_shedding_order,
    gap_witness_check,
    verify_shedding_certificate,
)
from .cohesive import CohesiveOrder
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
    is_chordal,
)
from .ideals import (
    cover_ideal,
    linear_quotients_order,
    power_has_linear_quotients,
    vertex_splittable_test,
)


# -- per-theorem checks ------------------------------------------------------
#
# Each check takes the facts of one inversion graph, labelled as built
# from its permutation, and returns None (skipped: the statement does not
# apply) or a dict with "ok", "predicates" and, when not ok, a
# human-readable "detail".  Oracle predicates read only the graph, its
# maximal independent sets or its complex, never a theorem-side fact.

def _inversion_order(g: Graph) -> CohesiveOrder:
    """The labelling of an inversion graph, which is cohesive by
    construction, so sweeps need not recognise their graphs."""
    return CohesiveOrder(tuple(range(1, g.n + 1)))


def _check_vd(f: GraphFacts) -> dict | None:
    comp = f.complex
    oracle_cm = reisner_cm_test(comp)
    theorem_cm = f.cm
    unmixed_vd = f.invariants.unmixed and is_vertex_decomposable(comp)
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
    unmixed = f.invariants.unmixed
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
    try:
        h = graph_from_edges(n, facets)
    except ValueError:
        return False
    return _is_path(h)


def _check_nearly(f: GraphFacts) -> dict | None:
    g = f.g
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
    if not f.invariants.unmixed:
        return None
    ideal = cover_ideal(f.g, mis=f.mis)
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
    stripped, _ = f.stripped
    if stripped.n == 0:
        return {"ok": True, "predicates": {"certificate_verified": True}, "detail": None}
    try:
        # from the bare graph, so the public extraction path is exercised
        cert = extract_shedding_order(stripped)
    except ClaimFailureError as exc:
        return {
            "ok": False,
            "predicates": {"certificate_verified": False},
            "detail": f"claim failure: {exc}",
        }
    verified = verify_shedding_certificate(stripped, cert)
    return {
        "ok": verified,
        "predicates": {"certificate_verified": verified},
        "detail": None if verified else "certificate failed independent re-check",
    }


def _check_gap(f: GraphFacts) -> dict | None:
    stripped, _ = f.stripped
    if stripped.n == 0:
        return None
    if not f.gorenstein:
        return None  # nothing claimed
    result = gap_witness_check(stripped)
    if result is None:
        return None  # alpha < 2: single edge, not applicable
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
        return {
            "theorem": self.theorem,
            "n": self.n,
            "total_permutations": self.total_permutations,
            "distinct_graphs": self.distinct_graphs,
            "checked": self.checked,
            "skipped": self.skipped,
            "counts": dict(sorted(self.counts.items())),
            "discrepancies": self.discrepancies,
        }


def _check_sweep_args(n: int, jobs: int) -> None:
    if n < 0:
        raise ValueError(f"--n must be nonnegative, got {n}")
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")


def _sweep_chunk(
    per_graph: Callable[[GraphFacts], dict | None], perms: list[tuple[int, ...]]
) -> list[tuple[tuple, dict | None]]:
    out = []
    for p in perms:
        g = graph_from_permutation(Permutation(p))
        out.append((g.edges(), per_graph(GraphFacts(g, order=_inversion_order(g)))))
    return out


def _sweep(
    per_graph: Callable[[GraphFacts], dict | None], n: int, jobs: int
) -> list[tuple[tuple, dict | None]]:
    """``per_graph`` of every inversion graph of S_n, keyed by edge tuple
    and sorted by it.  An inversion set determines its permutation, so
    there is one graph per permutation."""
    perms = list(permutations(range(1, n + 1)))
    if jobs > 1 and len(perms) > 1:
        chunk = max(1, len(perms) // (jobs * 4))
        chunks = [perms[i:i + chunk] for i in range(0, len(perms), chunk)]
        results: list[tuple[tuple, dict | None]] = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for part in pool.map(_sweep_chunk, [per_graph] * len(chunks), chunks):
                results.extend(part)
    else:
        results = _sweep_chunk(per_graph, perms)
    results.sort(key=itemgetter(0))
    return results


def run_verify(theorem: str, n: int, jobs: int = 1) -> SweepResult:
    """Sweep all of S_n for one theorem/oracle pair."""
    if theorem not in _CHECKS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    _check_sweep_args(n, jobs)
    check_cap(theorem, n, "sweep")
    results = _sweep(_CHECKS[theorem], n, jobs)

    counts: dict[str, int] = {}
    discrepancies = []
    checked = skipped = 0
    for key, res in results:
        if res is None:
            skipped += 1
            continue
        checked += 1
        for name, value in res["predicates"].items():
            if value:
                counts[name] = counts.get(name, 0) + 1
        if not res["ok"]:
            discrepancies.append(
                {"edges": [list(e) for e in key], "detail": res["detail"]}
            )
    return SweepResult(
        theorem=theorem,
        n=n,
        total_permutations=len(results),
        distinct_graphs=len(results),
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
    g = f.g
    inv = f.invariants
    cm = f.cm
    if cm:
        a, hilbertian = f.a_invariant
    else:
        hd = hilbert_data(f.complex)
        a = hd.a
        hilbertian = hd.hilbertian
    return {
        "edges": ";".join(f"{u}-{v}" for u, v in g.edges()),
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


def survey_rows(n: int, jobs: int = 1) -> list[dict]:
    """One row per distinct inversion graph of S_n, deterministic order."""
    _check_sweep_args(n, jobs)
    check_cap("survey", n, "survey")
    return [row for _, row in _sweep(_survey_row, n, jobs)]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return str(value)


def render_survey(rows: list[dict], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_SURVEY_COLUMNS)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in _SURVEY_COLUMNS])
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(rows, indent=2, sort_keys=True) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


# -- input parsing --------------------------------------------------------------

def _parse_perm(text: str) -> Permutation:
    parts = [p for p in text.replace(",", " ").split() if p]
    try:
        values = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"bad permutation {text!r}") from exc
    return Permutation(values)


def _load_graph(args) -> Graph:
    if getattr(args, "perm", None):
        return graph_from_permutation(_parse_perm(args.perm))
    if getattr(args, "graph", None):
        with open(args.graph, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return graph_from_json(data)
    raise ValueError("provide --perm or --graph")


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
    if facts.stripped[0].n:
        if not facts.cm:
            print("input is not Cohen-Macaulay: no shedding order extracted",
                  file=sys.stderr)
            return 1
        payload = facts.shedding.to_dict()
    else:
        payload = {"order": [], "cohesive_order": [], "remaining": [], "steps": []}
    payload["isolated_vertices_stripped"] = list(g.isolated_vertices())
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_ideal(args) -> int:
    g = _load_graph(args)
    ideal = cover_ideal(g)
    lq = linear_quotients_order(ideal)
    vs = vertex_splittable_test(ideal)
    payload = {
        "n": ideal.n,
        "generators": [list(s) for s in ideal.generator_sets()],
        "linear_quotients_order": [list(s) for s in lq] if lq is not None else None,
        "vertex_splittable": vs,
    }
    if args.power:
        found, count = power_has_linear_quotients(ideal, args.power)
        payload["power"] = {
            "k": args.power,
            "generators": count,
            "linear_quotients": found,
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
        p.add_argument("--perm", help="permutation in one-line notation, e.g. 2,4,5,1,3")
        p.add_argument("--graph", help='path to graph JSON {"n": 5, "edges": [[1,2],...]}')

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
    p.add_argument("--power", type=int, default=0,
                   help="also search a linear-quotients order for the k-th power")
    p.set_defaults(func=_cmd_ideal)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        env_overrides()  # a malformed PERMCM_CAPS fails every command
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
