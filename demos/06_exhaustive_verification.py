#!/usr/bin/env python3
"""Mini version of the verification sweeps the CLI runs.

Each sweep covers all of S_n: it compares a theorem-driven classifier
against its independent oracle on one inversion graph per isomorphism
class and weights the result by the size of the class.
The full-size sweeps live in the acceptance suite and behind
``permcm verify``.
"""

import sys

from permcm.cli import render_survey, run_verify, survey_rows

for theorem in ("vd", "cm", "goren", "nearly", "ainv", "bicm", "covs", "shed", "gap"):
    r = run_verify(theorem, 5)
    status = "ok" if r.ok else f"{len(r.discrepancies)} DISCREPANCIES"
    print(
        f"verify {theorem:6s} n=5: {status:4s}"
        f"  checked={r.checked:3d} skipped={r.skipped:3d} counts={r.counts}"
    )

print("\nsurvey of the 24 graphs from S_4:")
render_survey(survey_rows(4), "csv", sys.stdout.write)
print()
