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
# was still expanded in Fraction coefficients
STDOUT_DIGESTS = {
    "01_graphs_and_cohesive_orders.py": "020109b9a2b50dd4ca2e98b630490275516ad222d0ea7a14d04fb20d2f4f423a",
    "02_algebraic_oracles.py": "cf0e07f19964515facbe6c178912acb61c008e380833117604f6f2b835632f58",
    "03_classification_tour.py": "f1662e85ddbbacc9aff09c6ef18fa1f77373c95951057d03ca60b65b6e57bde4",
    "04_shedding_certificates.py": "4854ff0ce9c7a63092b45bc2c295cf8df087de2921e92c05a139fea513d5c3eb",
    "05_cover_ideals.py": "7c611aca981613f8b17ffd3016dd252532e7a2dad38d2a6ab9479e9441f6bd83",
    "06_exhaustive_verification.py": "bd72023ad1260dec826ea2713e1b69662fb9a3b1e1ff476cf6a467fe3ebefc72",
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
