"""The benchmark's tracer wraps functions by name from outside the
package; a refactor that renames or deletes one of them (or
``Graph.__post_init__``, which it also wraps), or that reaches the
homology kernel or the Hochster sum by another name, must fail here."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p
    )
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
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
