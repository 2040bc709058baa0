"""The oracles must not read the theorem side.

``complexes``, ``invariants`` and ``ideals`` compute the ground truth
the classifiers are checked against, so none of them may import the
classifiers, the CLI or the isomorphism classes; the one theorem-side
routine they may use is the maximal-clique search of ``cohesive``.
The same scan keeps the CLI from reading a stripped graph: where
isolated vertices are removed is decided in ``permcm.classify`` alone;
it keeps every function from taking the maximal independent sets as
a parameter: ``permcm.invariants`` alone enumerates them; it keeps
the sorted vertex tuples of those sets to the report ``classify``
builds; it keeps both sweeps from listing S_n: their classes come
from substitution trees (``permcm.classes``); it keeps one memo keyed
by live graphs, the independence facts of ``permcm.invariants``; it
keeps one process pool, in ``permcm.cli``, and one reader of the CPU
count; it keeps every one-field dataclass to a type that checks its
value; and it keeps every private helper of the package read somewhere
in it.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "permcm"
ORACLES = ("complexes", "invariants", "ideals")
FORBIDDEN = {"classify", "cli", "classes"}
ALLOWED_FROM = {"cohesive": {"maximal_cliques"}}


def _imports(module: str) -> list[tuple[str, str | None]]:
    """(permcm module, imported name or None for the whole module) for
    every import of a permcm module in the source of ``module``."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .x import y, or from . import x
                base = node.module
            elif node.module == "permcm" or (node.module or "").startswith("permcm."):
                base = node.module.partition(".")[2]
            else:
                continue
            for alias in node.names:
                if base:
                    out.append((base.split(".")[0], alias.name))
                else:
                    out.append((alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("permcm."):
                    out.append((alias.name.split(".")[1], None))
    return out


@pytest.mark.parametrize("module", ORACLES)
def test_oracles_import_no_theorem_code(module):
    for target, name in _imports(module):
        assert target not in FORBIDDEN, f"{module} imports permcm.{target}"
        if target in ALLOWED_FROM:
            assert name in ALLOWED_FROM[target], (
                f"{module} imports {name or 'the module'} from permcm.{target}")


def test_the_cli_leaves_isolated_vertices_to_classify():
    # permcm.classify alone decides where isolated vertices are stripped
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "stripped"]
    assert not reads, f"cli.py reads .stripped on lines {reads}"


def test_no_function_takes_the_independent_sets_as_a_parameter():
    # permcm.invariants keeps each graph's maximal independent sets, so a
    # caller never hands them over and a stale or wrong one cannot be
    # passed in
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(p is not None and p.arg == "mis" for p in params):
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"parameters named mis at {found}"


def test_the_scan_sees_relative_imports():
    assert ("cohesive", "maximal_cliques") in _imports("invariants")
    assert ("complexes", "_split_pivot") in _imports("ideals")


def test_no_assert_statements():
    # python -O strips assert statements, so a check the package relies
    # on must raise on its own
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements at {found}"


def test_no_module_lists_the_permutations():
    # the sweeps build the classes of S_n from their substitution trees,
    # so nothing in the package imports or calls itertools.permutations
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                hit = any(alias.name == "permutations" for alias in node.names)
            else:
                hit = (isinstance(node, ast.Attribute) and node.attr == "permutations"
                       and isinstance(node.value, ast.Name) and node.value.id == "itertools")
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"itertools.permutations at {found}"


def _callers(name: str, mapped: bool = False) -> set[tuple[str, str]]:
    """(module, function) for each function of the package source that
    calls ``name``, or with ``mapped`` that maps it: ``map(name, ...)``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                    continue
                if mapped:
                    target = node.args[0] if node.func.id == "map" and node.args else None
                else:
                    target = node.func
                if isinstance(target, ast.Name) and target.id == name:
                    found.add((path.stem, fn.name))
    return found


def test_one_memo_keyed_by_live_graphs():
    # a graph's independence facts have one owner: the one
    # WeakKeyDictionary of permcm.invariants, whose entry holds the sets
    # and the numbers read off them
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "WeakKeyDictionary":
                    found.append(path.stem)
    assert found == ["invariants"], found


def _sites(match) -> list[tuple[str, str | None]]:
    """(module, top-level definition or None) of each node of the
    package source that ``match`` accepts, in source order."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            name = getattr(top, "name", None)
            found += [(path.stem, name) for node in ast.walk(top) if match(node)]
    return found


def _named(node: ast.AST, names: set[str]) -> bool:
    """Whether ``node`` reads or imports one of ``names``."""
    return (isinstance(node, ast.Name) and node.id in names
            or isinstance(node, ast.Attribute) and node.attr in names
            or isinstance(node, ast.alias) and node.name in names)


def test_one_pool_and_one_cpu_count():
    # both sweeps share the one pool of _map_classes, and its width is
    # read from the CPUs this process may use, in one place
    pools = _sites(lambda node: isinstance(node, ast.Call)
                   and _named(node.func, {"ProcessPoolExecutor"}))
    assert pools == [("cli", "_map_classes")]
    cpus = _sites(lambda node: _named(node, {"cpu_count", "sched_getaffinity"}))
    assert cpus and set(cpus) == {("cli", "_usable_cpus")}


def test_only_classify_builds_report_tuples():
    # the sets are masks everywhere else: a sweep never pays for their
    # sorted vertex tuples, which only a report prints
    assert _callers("vertices_of", mapped=True) == {("classify", "_as_tuples")}
    assert _callers("_as_tuples") == {("classify", "_report_invariants")}
    assert _callers("_report_invariants") == {("classify", "classify")}


def test_only_the_survey_keys_members_by_their_edges():
    # the survey's CSV is printed in edge order; verify prints its
    # counts sorted and sorts only its discrepancies, by their edges; a
    # member's key is made where its class is mapped and read where the
    # text is rendered
    assert _callers("_pair_table") == {("cli", "_survey_class"), ("cli", "render_survey")}
    assert _callers("_edge_bytes") == {("cli", "_survey_class")}


def test_one_field_dataclasses_validate():
    # a type that wraps one value must check it, as Permutation does;
    # a wrapper that checks nothing is the plain value under another name
    one_field, found = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(deco) for deco in node.decorator_list)):
                continue
            fields = [st for st in node.body if isinstance(st, ast.AnnAssign)]
            if len(fields) != 1:
                continue
            one_field.append(node.name)
            if not any(isinstance(st, ast.FunctionDef) and st.name == "__post_init__"
                       for st in node.body):
                found.append(f"{path.name}:{node.name}")
    assert "Permutation" in one_field  # the scan sees the one that checks
    assert not found, f"one-field dataclasses without __post_init__: {found}"


def _names_read(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``: as a variable, an
    attribute or an imported name."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name] += 1
    return found


def test_every_private_helper_is_read():
    # a private function, class or method that nothing in the package
    # reads outside its own body is dead code: only a test could call it
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))]
    read = sum((_names_read(tree) for tree in trees), Counter())
    defs = []
    for path, tree in zip(sorted(SRC.glob("*.py")), trees):
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and d.name.startswith("_") and not d.name.endswith("__")):
                    defs.append((path.name, d))
    dead = [f"{name}:{d.name}" for name, d in defs
            if read[d.name] <= _names_read(d)[d.name]]
    assert len(defs) > 20  # the scan sees the helpers
    assert not dead, f"private helpers nothing reads: {dead}"
