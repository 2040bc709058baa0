"""Run the benchmark over several seeds and summarise the spread.

From the root of the repository::

    python3 perfbench/collect.py --label seed --seeds 1-10 --out BENCH_seed.json

runs ``run.py`` once per seed on every workload of ``BENCHMARK.json``,
for its ``run_seconds`` (``--trace 0`` unless ``--trace 1`` is given),
then writes every run's result and record to ``--out`` with, per
workload and metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread: the distance
between the quartiles as a share of the median.  With ``--trace 0`` the
table also shows each metric's bound from ``BENCHMARK.json`` and flags a
spread above a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, summary, ok = [], {}, True
    for workload in (w["name"] for w in bench["workloads"]):
        per_metric: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            record = json.loads(lines[-2].removeprefix("record: "))
            runs.append({"workload": workload, "seed": seed, "result": result, "record": record})
            ok &= result["correct"] and result["failed"] == 0
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()
                             if k in bounds), flush=True)
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        summary[workload] = {name: summarise(v) for name, v in per_metric.items()}
        for name, s in summary[workload].items():
            if name not in bounds:
                continue
            flag = "" if s["spread"] < bounds[name] / 3 else "  > bound/3"
            print(f"  {workload:<13} {name:<14} median {s['median']:.5g}  spread "
                  f"{s['spread']:.4f}  bound {bounds[name]}{flag}")
    Path(args.out).write_text(json.dumps(
        {"label": args.label, "trace": args.trace, "seconds": bench["run_seconds"],
         "summary": summary, "runs": runs}, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
