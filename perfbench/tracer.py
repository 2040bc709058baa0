"""Per-layer tracing from outside the program.

``install()`` wraps the public functions listed in ``LAYERS`` and
rebinds every name in every loaded ``permcm`` module that refers to
one of them.  Rebinding the defining module alone is not enough: a name
imported with ``from .x import f`` is a separate binding, and
``permcm.classify`` on the package is the function, not the module.

Each wrapper keeps a stack of open calls, so self time is a call's
duration minus the durations of the wrapped calls it made.  Calls and
times are summed per function as they happen instead of being kept as
spans, because a sweep makes millions of wrapped calls.

Pool workers forked after ``install()`` inherit the wrappers;
``child.Workers`` resets each worker's copy of the counters and adds
what the worker counted to its parent's report.
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS: dict[str, tuple[str, ...]] = {
    "graphs": ("graph_from_permutation", "complement", "induced_subgraph",
               "recognize_structure", "is_chordal"),
    "cohesive": ("find_cohesive_order", "verify_cohesive_order", "comparability_poset",
                 "maximal_cliques", "maximal_clique_partitions"),
    "invariants": ("compute_invariants", "maximal_independent_sets", "matching_invariants"),
    "complexes": ("independence_complex", "reisner_cm_test", "hochster_betti_table",
                  "hilbert_data", "is_vertex_decomposable", "exact_rank"),
    "classify": ("classify", "cm_by_clique_partition", "extract_shedding_order",
                 "verify_shedding_certificate", "gap_witness_check"),
    "ideals": ("cover_ideal", "linear_quotients_order", "vertex_splittable_test"),
    "cli": ("run_verify", "survey_rows", "render_survey"),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)

# Memo tables: (metric name, module, attribute).
CACHES = (
    ("complexes.homology_cache.entries", "complexes", "_HOMOLOGY_CACHE"),
    ("complexes.reisner_cache.entries", "complexes", "_REISNER_CACHE"),
    ("complexes.vd_cache.entries", "complexes", "_VD_CACHE"),
    ("ideals.split_cache.entries", "ideals", "_SPLIT_CACHE"),
)

# Functions that must record at least one call on a workload: those the
# layer table expects to move a metric of that workload.  A wrapper that
# was installed but never reached shows up here as a zero.
EXPECTED_CALLS: dict[str, tuple[str, ...]] = {
    "sweep-s7": (
        "graphs.graph_from_permutation", "graphs.complement", "graphs.induced_subgraph",
        "graphs.recognize_structure", "graphs.is_chordal",
        "cohesive.find_cohesive_order", "cohesive.verify_cohesive_order",
        "cohesive.comparability_poset", "cohesive.maximal_cliques",
        "cohesive.maximal_clique_partitions",
        "invariants.compute_invariants", "invariants.maximal_independent_sets",
        "invariants.matching_invariants",
        "complexes.independence_complex", "complexes.reisner_cm_test",
        "complexes.hochster_betti_table", "complexes.hilbert_data",
        "complexes.is_vertex_decomposable", "complexes.exact_rank",
        "classify.cm_by_clique_partition", "classify.extract_shedding_order",
        "classify.verify_shedding_certificate", "classify.gap_witness_check",
        "ideals.cover_ideal", "ideals.linear_quotients_order",
        "ideals.vertex_splittable_test",
        "cli.run_verify",
    ),
    "classify-mix": (
        "cohesive.find_cohesive_order",
        "complexes.independence_complex", "complexes.reisner_cm_test",
        "complexes.hochster_betti_table", "complexes.hilbert_data",
        "complexes.is_vertex_decomposable", "complexes.exact_rank",
        "classify.classify",
    ),
    "survey-s8": (
        "graphs.graph_from_permutation", "graphs.complement", "graphs.induced_subgraph",
        "graphs.recognize_structure", "graphs.is_chordal",
        "cohesive.maximal_cliques",
        "invariants.compute_invariants", "invariants.maximal_independent_sets",
        "invariants.matching_invariants",
        "cli.survey_rows", "cli.render_survey",
    ),
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._stack: list[list[float]] = []

    def reset(self) -> None:
        for table in (self.calls, self.self_s, self.total_s, self.counts):
            table.clear()
        self._stack.clear()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn):
        stack = self._stack
        calls, self_s, total_s = self.calls, self.self_s, self.total_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += span
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + span - frame[0]
                total_s[name] = total_s.get(name, 0.0) + span

        return wrapper

    def snapshot(self) -> dict:
        counts = dict(self.counts)
        for metric, mod, attr in CACHES:
            table = getattr(sys.modules.get(f"permcm.{mod}"), attr, None)
            counts[metric] = counts.get(metric, 0) + (len(table) if table is not None else 0)
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "counts": counts}


def merge(a: dict, b: dict) -> dict:
    out = {}
    for table in ("calls", "self_s", "total_s", "counts"):
        out[table] = dict(a.get(table, {}))
        for key, value in b.get(table, {}).items():
            out[table][key] = out[table].get(key, 0) + value
    return out


def _rebind(old, new) -> int:
    """Point every permcm module binding of ``old`` at ``new``."""
    bound = 0
    for modname, module in list(sys.modules.items()):
        if modname != "permcm" and not modname.startswith("permcm."):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)
                bound += 1
    return bound


def _count_cells(exact_rank, tracer: Tracer):
    """``exact_rank`` that also adds rows x columns of its matrix, the
    kernel's operation count, to ``complexes.exact_rank.cells``."""

    @functools.wraps(exact_rank)
    def counted(rows):
        tracer.add("complexes.exact_rank.cells", len(rows) * len(rows[0]) if rows else 0)
        return exact_rank(rows)

    return counted


def install() -> Tracer:
    """Wrap every function in ``LAYERS``; return the tracer that counts them."""
    import permcm.cli  # noqa: F401  (loads every submodule)

    tracer = Tracer()
    for mod, fns in LAYERS.items():
        module = sys.modules[f"permcm.{mod}"]
        for fn in fns:
            name = f"{mod}.{fn}"
            orig = getattr(module, fn)
            target = _count_cells(orig, tracer) if name == "complexes.exact_rank" else orig
            if _rebind(orig, tracer.wrap(name, target)) == 0:
                raise RuntimeError(f"could not rebind {name}")

    graph_cls = sys.modules["permcm.graphs"].Graph
    post_init = graph_cls.__post_init__

    def counted_post_init(self, _add=tracer.add):
        _add("graphs.Graph.constructed", 1)
        post_init(self)

    graph_cls.__post_init__ = counted_post_init
    return tracer
