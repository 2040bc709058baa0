"""Each demo script runs to completion against src/ and prints exactly
the output pinned below."""

import hashlib
import os
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout, recorded while the Hilbert polynomial
# was still expanded in Fraction coefficients; demos 02 and 05 were
# re-recorded when a line each printed went with the code behind it, and
# demo 06 when its sweeps' counts came to list the predicates by name
STDOUT_DIGESTS = {
    "01_graphs_and_cohesive_orders.py": "020109b9a2b50dd4ca2e98b630490275516ad222d0ea7a14d04fb20d2f4f423a",
    "02_algebraic_oracles.py": "268dfa6abd56aa8a2f7868a1ab0b116f17dcd37bdf29ef2eb2a344b8b10c2103",
    "03_classification_tour.py": "f1662e85ddbbacc9aff09c6ef18fa1f77373c95951057d03ca60b65b6e57bde4",
    "04_shedding_certificates.py": "4854ff0ce9c7a63092b45bc2c295cf8df087de2921e92c05a139fea513d5c3eb",
    "05_cover_ideals.py": "5a0616366578445633578cfc722bb145de1613cf0101b10044854f891a58d66b",
    "06_exhaustive_verification.py": "e2b156000ea66e695f14f2b0857f2b33f1a78e414095b6d370977b711a783b4f",
}


@cache
def run_demo(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_stdout_pinned(demo):
    digest = hashlib.sha256(run_demo(demo).stdout.encode()).hexdigest()
    assert digest == STDOUT_DIGESTS[demo.name]
