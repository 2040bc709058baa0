"""The benchmark's tracer wraps functions by name from outside the
package; a refactor that renames or deletes one of them (or
``Graph.__post_init__``, which it also wraps), that reaches the homology
kernel or the Hochster sum by another name, or whose sweeps or
classifications stop reaching a function the benchmark expects to be
called, must fail here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_traced(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_tracer_installs():
    code = (
        "import tracer\n"
        "t = tracer.install()\n"
        "import permcm.cli\n"
        "permcm.cli.main(['verify', 'shed', '--n', '3'])\n"
        "assert t.calls['classify.extract_shedding_order'] > 0, t.calls\n"
        "permcm.cli.main(['classify', '--perm', '2,1,4,3'])\n"
        "assert t.calls['complexes.exact_rank'] > 0, t.calls\n"
        "assert t.calls['complexes.hochster_betti_table'] > 0, t.calls\n"
    )
    result = _run_traced(code)
    assert result.returncode == 0, result.stderr


def test_sweeps_reach_every_expected_function():
    # every function the benchmark expects a call of on its sweep-s7
    # and survey-s8 workloads records one on the same commands at n = 5
    code = (
        "import contextlib, io\n"
        "import tracer\n"
        "t = tracer.install()\n"
        "import permcm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for theorem in ('vd', 'cm', 'goren', 'nearly', 'ainv', 'bicm', 'hilb',\n"
        "                    'covs', 'shed', 'gap'):\n"
        "        assert permcm.cli.main(['verify', theorem, '--n', '5']) == 0\n"
        "    assert permcm.cli.main(['survey', '--n', '5']) == 0\n"
        "expected = tracer.EXPECTED_CALLS['sweep-s7'] + tracer.EXPECTED_CALLS['survey-s8']\n"
        "missing = sorted(fn for fn in set(expected) if not t.calls.get(fn))\n"
        "assert not missing, missing\n"
    )
    result = _run_traced(code)
    assert result.returncode == 0, result.stderr


def test_verify_sweeps_alone_reach_every_expected_function():
    # the ten verify sweeps on their own, so the survey cannot make a
    # call the sweeps stopped making: a sweep checks one member per
    # class, and expands only a class whose member fails
    code = (
        "import contextlib, io\n"
        "import tracer\n"
        "t = tracer.install()\n"
        "import permcm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for theorem in ('vd', 'cm', 'goren', 'nearly', 'ainv', 'bicm', 'hilb',\n"
        "                    'covs', 'shed', 'gap'):\n"
        "        assert permcm.cli.main(['verify', theorem, '--n', '5']) == 0\n"
        "missing = sorted(fn for fn in tracer.EXPECTED_CALLS['sweep-s7'] if not t.calls.get(fn))\n"
        "assert not missing, missing\n"
    )
    result = _run_traced(code)
    assert result.returncode == 0, result.stderr


def test_survey_alone_reaches_every_expected_function():
    # the survey on its own, so a verify sweep cannot make a call the
    # survey stopped making: the nearly-Gorenstein flag counts edges
    # first, and only complete graphs and path complements reach
    # recognize_structure and is_chordal
    code = (
        "import contextlib, io\n"
        "import tracer\n"
        "t = tracer.install()\n"
        "import permcm.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert permcm.cli.main(['survey', '--n', '6']) == 0\n"
        "missing = sorted(fn for fn in tracer.EXPECTED_CALLS['survey-s8'] if not t.calls.get(fn))\n"
        "assert not missing, missing\n"
    )
    result = _run_traced(code)
    assert result.returncode == 0, result.stderr


def test_classify_mix_reaches_every_expected_function():
    # every function the benchmark expects a call of on its classify-mix
    # workload records one when the gallery's fixed family is classified
    code = (
        "import gallery, tracer\n"
        "t = tracer.install()\n"
        "from permcm import classify\n"
        "from permcm.graphs import graph_from_edges\n"
        "for key in gallery.FAMILY:\n"
        "    item = gallery.pool_item(key)\n"
        "    classify(graph_from_edges(item['n'], item['edges'])).to_dict()\n"
        "expected = tracer.EXPECTED_CALLS['classify-mix']\n"
        "assert 'complexes.exact_rank' in expected, expected\n"
        "assert 'complexes.reisner_cm_test' in expected, expected\n"
        "missing = sorted(fn for fn in set(expected) if not t.calls.get(fn))\n"
        "assert not missing, missing\n"
    )
    result = _run_traced(code)
    assert result.returncode == 0, result.stderr
