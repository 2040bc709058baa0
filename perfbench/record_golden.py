"""Record ``golden.json``: SHA-256 digests of every benchmark output.

Run from the root of the repository on a tree whose outputs are known
to be right (the digests in the repository come from the seed tree)::

    python3 perfbench/record_golden.py

It records each ``verify`` stdout (refusing any with discrepancies),
the survey CSV, and the classify report of each of the 100 gallery
graphs; a seed only reorders them, so every seed's gallery is checked.
"""

from __future__ import annotations

import json
import sys

from gallery import pool_item, pool_keys
from run import (CAPPED_AT_7, HERE, SURVEY_JOBS, SURVEY_N, SWEEP_CAPS, SWEEP_N,
                 THEOREMS, ClassifySession, run_child, temp_work_dir)


def record(work_dir: str) -> dict | None:
    golden: dict = {"verify": {}, "survey": None, "classify": {}}
    for theorem in THEOREMS:
        res = run_child(["cli", "verify", theorem, "--n", str(SWEEP_N)], work_dir,
                        caps=SWEEP_CAPS if theorem in CAPPED_AT_7 else None)
        if res.get("rc") != 0 or res.get("discrepancies") != 0:
            print(f"verify {theorem} failed: {res}", file=sys.stderr)
            return None
        golden["verify"][theorem] = res["sha256"]
    res = run_child(["cli", "survey", "--n", str(SURVEY_N), "--jobs", str(SURVEY_JOBS)], work_dir)
    if res.get("rc") != 0:
        print(f"survey failed: {res}", file=sys.stderr)
        return None
    golden["survey"] = res["sha256"]
    with ClassifySession(work_dir, timeout=3600) as session:
        for key in pool_keys():
            res = session.classify(pool_item(key))
            if res.get("rc") != 0:
                print(f"classify {key} failed: {res.get('error')}", file=sys.stderr)
                return None
            golden["classify"][key] = res["sha256"]
    return golden


def main() -> int:
    with temp_work_dir() as work_dir:
        golden = record(work_dir)
    if golden is None:
        return 1
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                      encoding="utf-8")
    print(f"recorded {len(THEOREMS)} verify, 1 survey and {len(golden['classify'])} classify digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
