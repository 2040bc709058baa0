"""permcm benchmark: end-to-end and per-layer metrics, stdlib only.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload sweep-s7 --seed 1 --seconds 10 --trace 0

Workloads (why each one is here is in ``BENCHMARK.json``):

``sweep-s7``
    ``permcm verify <id> --n 7`` for all ten theorem ids, each in its
    own fresh process so memo tables start cold.  ``ainv``, ``bicm``,
    ``hilb`` and ``covs`` exceed their default sweep cap at n = 7, so
    those children get ``PERMCM_CAPS=ainv=7,bicm=7,hilb=7,covs=7``;
    every other child runs with ``PERMCM_CAPS`` unset.  A pass is the
    ten ids in a seeded order.  Item: one permutation checked against
    one theorem (50,400 per pass).  Latency: one ``verify`` call.
``classify-mix``
    A closed loop with one caller: one fresh process classifies a
    100-graph gallery (``gallery.py``) in a seeded order through
    ``permcm.classify`` plus the report's JSON, so memo tables carry
    over from graph to graph.  A pass is one gallery; later passes of a
    run use further orders of the same seed.  Item and latency: one
    graph.
``survey-s8``
    ``permcm survey --n 8 --jobs 2`` in a fresh process: the process
    pool and its row merge.  S_8 is fixed, so the seed changes
    nothing.  Item: one permutation turned into a CSV row (40,320 per
    pass).  Latency: one ``survey`` call.

A run measures whole passes until ``--seconds`` have elapsed, and
at least ``MIN_PASSES`` of them (a traced run: ``MIN_TRACE_PAIRS``).
``items_per_s`` is the median over passes of items per timed second;
latencies are per call, as ``end_to_end`` describes.  ``peak_rss_mb``
is the largest peak of one measured call: the peak RSS of its process
plus that of each pool worker it forked, summed (``child.Workers``).
Set-up (interpreter start, ``import permcm``, input generation) is
timed ``SETUP_REPS`` times in separate processes before the passes and
as many times after them, and ``setup_s`` is the median of all of them.

Every output is checked against the SHA-256 digests in ``golden.json``,
recorded from the seed tree with ``record_golden.py``: each ``verify``
stdout (whose discrepancy list must also be empty), each classify
report, and the survey CSV.  A nonzero exit, an exception, a cap
rejection or a wrong digest fails the items of that call.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
call twice in a row, untraced and then with the tracer of ``tracer.py``
installed (for ``classify-mix``: two sessions fed the same graphs in
turn), requires identical digests from both, and prints the per-layer
metrics.  It goes on for at least ``MIN_TRACE_PAIRS`` such pairs.
``trace.overhead_frac`` is the median over the pairs of traced over
untraced time, minus one; ``trace.overhead_noise_frac`` is half the
distance between the quartiles of those ratios, and an overhead smaller
than it is reported as unresolved.  A traced run also fails if a
function that ``tracer.EXPECTED_CALLS`` lists for the workload recorded
no call.

The last line of stdout is the result as one JSON object.  The line
before it, prefixed ``record:``, holds the full record: machine, caps,
gallery property shares and every pass.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gallery import gallery, shares  # noqa: E402
from tracer import CACHES, EXPECTED_CALLS, FUNCTIONS, merge  # noqa: E402

WORKLOADS = ("sweep-s7", "classify-mix", "survey-s8")
THEOREMS = ("vd", "cm", "goren", "nearly", "ainv", "bicm", "hilb", "covs", "shed", "gap")
SWEEP_N, SURVEY_N, SURVEY_JOBS = 7, 8, 2
SWEEP_ITEMS = 5040  # |S_7|
SURVEY_ITEMS = 40320  # |S_8|
SWEEP_CAPS = "ainv=7,bicm=7,hilb=7,covs=7"
CAPPED_AT_7 = frozenset({"ainv", "bicm", "hilb", "covs"})
SETUP_REPS = 12  # before the passes, and as many again after them
# A sweep pass makes only ten calls, so its latency percentiles rest on
# single calls; a second pass gives each call a median of two samples.
MIN_PASSES = {"sweep-s7": 2, "classify-mix": 1, "survey-s8": 1}
MIN_TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s", "items_per_s": "1/s", "latency_p50_s": "s",
    "latency_p90_s": "s", "peak_rss_mb": "MB",
}


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, 0 <= q <= 1.

    ``statistics.quantiles`` needs two values; a survey run has one call.
    """
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _env(caps: str | None = None) -> dict:
    """The caller's environment with permcm's path and caps pinned.

    Bytecode caching is turned on even where the caller turned it off,
    so that set-up is measured the same way in every environment.
    """
    unset = ("PERMCM_CAPS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
    env = {k: v for k, v in os.environ.items() if k not in unset}
    env["PYTHONPATH"] = str(ROOT / "src")
    if caps:
        env["PERMCM_CAPS"] = caps
    return env


def _child_argv(work_dir: str, trace: bool) -> list[str]:
    argv = [sys.executable, str(HERE / "child.py"), "--work-dir", work_dir]
    return argv + ["--trace"] if trace else argv


def run_child(args: list[str], work_dir: str, caps: str | None = None,
              trace: bool = False) -> dict:
    """Run ``child.py`` in a fresh process; a crash becomes ``rc`` -1."""
    try:
        proc = subprocess.run(_child_argv(work_dir, trace) + args, capture_output=True,
                              text=True, env=_env(caps), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": -1, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"rc": -1, "error": proc.stderr[-2000:]}
    return json.loads(lines[-1])


class ClassifySession:
    """A ``child.py classify`` process, fed one graph at a time.

    The process is killed after ``timeout`` seconds, so a hung child
    ends its session instead of the benchmark.
    """

    def __init__(self, work_dir: str, trace: bool = False,
                 timeout: float = CHILD_TIMEOUT_S) -> None:
        self.stderr = tempfile.TemporaryFile(mode="w+", dir=work_dir)
        self.proc = subprocess.Popen(_child_argv(work_dir, trace) + ["classify"],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True, env=_env(), cwd=ROOT)
        self.timer = threading.Timer(timeout, self.proc.kill)
        self.timer.start()

    def __enter__(self) -> ClassifySession:
        return self

    def __exit__(self, *exc) -> None:
        self.timer.cancel()
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if line:
            return json.loads(line)
        self.stderr.seek(0)
        return {"rc": -1, "error": self.stderr.read()[-2000:] or "classify session ended"}

    def classify(self, item: dict) -> dict:
        with contextlib.suppress(OSError):  # a dead child shows in the reply
            self.proc.stdin.write(json.dumps({"n": item["n"], "edges": item["edges"]}) + "\n")
            self.proc.stdin.flush()
        return self._reply()

    def close(self) -> dict:
        """End the input; return the session's closing report."""
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        return self._reply()


def measure_setup(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", workload, str(seed)],
                              capture_output=True, env=_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.decode()[-2000:]}")
    return times


class Pass:
    """One pass of a workload: its items, timings, digests and traces."""

    def __init__(self) -> None:
        self.items = 0
        self.failed = 0
        self.timed_s = 0.0
        self.peak_rss_kib = 0
        self.samples: list[tuple[str, float]] = []  # (call label, latency)
        self.digests: list[str | None] = []
        self.errors: list[str] = []
        self.traces: list[tuple[str, dict]] = []  # (call label, trace)
        self.per_call: list[dict] = []
        self.shares: dict | None = None

    def call(self, label: str, res: dict, items: int, expected: str | None) -> None:
        """Account for one call covering ``items`` items."""
        ok = (res.get("rc") == 0 and res.get("sha256") == expected
              and res.get("discrepancies", 0) == 0)
        self.items += items
        if "wall_s" in res:
            self.timed_s += res["wall_s"]
            self.samples.append((label, res["wall_s"]))
        self.digests.append(res.get("sha256"))
        if not ok:
            self.failed += items
            self.errors.append(f"{label}: rc={res.get('rc')} "
                               f"digest_ok={res.get('sha256') == expected} "
                               f"discrepancies={res.get('discrepancies')} {res.get('error') or ''}")
        self.per_call.append({"call": label, "wall_s": res.get("wall_s"),
                              "child_cpu_s": res.get("child_cpu_s", 0.0), "ok": ok})
        self.finish(label, res)

    def finish(self, label: str, res: dict) -> None:
        """Account for the peak RSS and trace of a process that ended."""
        self.peak_rss_kib = max(self.peak_rss_kib, res.get("peak_rss_kib", 0))
        if "trace" in res:
            self.traces.append((label, res["trace"]))


def sweep_pass(golden: dict, seed: int, index: int, work_dir: str,
               trace: bool) -> tuple[Pass, Pass | None]:
    order = list(THEOREMS)
    random.Random(f"sweep:{seed}:{index}").shuffle(order)
    plain, traced = Pass(), Pass() if trace else None
    for theorem in order:
        args = ["cli", "verify", theorem, "--n", str(SWEEP_N)]
        caps = SWEEP_CAPS if theorem in CAPPED_AT_7 else None
        plain.call(theorem, run_child(args, work_dir, caps), SWEEP_ITEMS, golden["verify"][theorem])
        if traced:
            traced.call(theorem, run_child(args, work_dir, caps, trace=True), SWEEP_ITEMS,
                        golden["verify"][theorem])
    return plain, traced


def survey_pass(golden: dict, seed: int, index: int, work_dir: str,
                trace: bool) -> tuple[Pass, Pass | None]:
    args = ["cli", "survey", "--n", str(SURVEY_N), "--jobs", str(SURVEY_JOBS)]
    plain, traced = Pass(), Pass() if trace else None
    plain.call("survey", run_child(args, work_dir), SURVEY_ITEMS, golden["survey"])
    if traced:
        traced.call("survey", run_child(args, work_dir, trace=True), SURVEY_ITEMS, golden["survey"])
    return plain, traced


def classify_pass(golden: dict, seed: int, index: int, work_dir: str,
                  trace: bool) -> tuple[Pass, Pass | None]:
    items = gallery(seed, index)
    passes = [Pass(), Pass()] if trace else [Pass()]
    facts = []
    with contextlib.ExitStack() as stack:
        sessions = [stack.enter_context(ClassifySession(work_dir, trace=k == 1))
                    for k in range(len(passes))]
        for item in items:
            replies = [s.classify(item) for s in sessions]
            for p, res in zip(passes, replies):
                p.call(item["key"], res, 1, golden["classify"].get(item["key"]))
            facts.append(replies[0].get("facts"))
        for p, s in zip(passes, sessions):
            res = s.close()
            if res.get("rc") != 0:
                p.failed = p.items
                p.errors.append(f"classify session: {res.get('error')}")
            p.finish("classify", res)
    if all(facts):
        passes[0].shares = shares(items, facts)
    return passes[0], passes[1] if trace else None


PASSES = {"sweep-s7": sweep_pass, "classify-mix": classify_pass, "survey-s8": survey_pass}


def end_to_end(passes: list[Pass], setup_s: float) -> dict:
    """End-to-end metrics of the untraced passes.

    A latency is one call: a ``verify`` id, a ``survey``, or one graph.
    Passes repeat the same calls, so each call's latency is its median
    over the passes, and the percentiles are taken across calls.
    """
    repeats: dict[str, list[float]] = {}
    for p in passes:
        for label, t in p.samples:
            repeats.setdefault(label, []).append(t)
    latencies = [statistics.median(ts) for ts in repeats.values()]
    rates = [p.items / p.timed_s for p in passes if p.timed_s > 0]
    values = {
        "setup_s": setup_s,
        "items_per_s": statistics.median(rates) if rates else 0.0,
        "latency_p50_s": percentile(latencies, 0.5) if latencies else 0.0,
        "latency_p90_s": percentile(latencies, 0.9) if latencies else 0.0,
        "peak_rss_mb": max(p.peak_rss_kib for p in passes) / 1024,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def trace_ratios(plain: list[Pass], traced: list[Pass]) -> list[float]:
    """Traced over untraced time of each call run both ways in a row."""
    return [t / u for p, q in zip(plain, traced)
            for (lu, u), (lt, t) in zip(p.samples, q.samples) if lu == lt and u > 0]


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    total: dict = {}
    for p in traced:
        for _, t in p.traces:
            total = merge(total, t)
    calls, self_s, total_s, counts = (total.get(k, {}) for k in ("calls", "self_s", "total_s", "counts"))
    metrics: dict = {}
    for fn in FUNCTIONS:
        metrics[f"{fn}.calls"] = {"value": calls.get(fn, 0), "unit": "count"}
        metrics[f"{fn}.self_s"] = {"value": self_s.get(fn, 0.0), "unit": "s"}
    for theorem in THEOREMS:
        spent = sum(t.get("self_s", {}).get("cli.run_verify", 0.0)
                    for p in traced for label, t in p.traces if label == theorem)
        metrics[f"cli.run_verify.{theorem}.self_s"] = {"value": spent, "unit": "s"}
    metrics["graphs.Graph.constructed"] = {"value": counts.get("graphs.Graph.constructed", 0), "unit": "count"}
    metrics["complexes.exact_rank.cells"] = {"value": counts.get("complexes.exact_rank.cells", 0), "unit": "count"}
    for name, _, _ in CACHES:
        metrics[name] = {"value": counts.get(name, 0), "unit": "count"}
    child_cpu = sum(c["child_cpu_s"] for p in traced for c in p.per_call)
    pool_wall = total_s.get("cli.survey_rows", 0.0)
    metrics["cli.pool.child_cpu_s"] = {"value": child_cpu, "unit": "s"}
    metrics["cli.pool.utilization"] = {
        "value": child_cpu / (SURVEY_JOBS * pool_wall) if pool_wall else 0.0, "unit": "ratio"}
    ratios = trace_ratios(plain, traced)
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    metrics["trace.overhead_frac"] = {"value": median - 1, "unit": "ratio"}
    metrics["trace.overhead_noise_frac"] = {"value": (q3 - q1) / 2, "unit": "ratio"}
    return metrics


def missing_calls(workload: str, metrics: dict) -> list[str]:
    return [fn for fn in EXPECTED_CALLS[workload] if metrics[f"{fn}.calls"]["value"] == 0]


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": model,
        "PERMCM_CAPS": {f"verify {','.join(sorted(CAPPED_AT_7))} --n {SWEEP_N}": SWEEP_CAPS,
                        "every other call": "unset (default caps)"},
    }


def run(workload: str, seed: int, seconds: float, trace: bool, work_dir: str) -> tuple[dict, dict]:
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    setup_times = [] if trace else measure_setup(workload, seed)
    make_pass = PASSES[workload]
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        p, t = make_pass(golden, seed, len(plain), work_dir, trace)
        plain.append(p)
        if t is not None:
            if t.digests != p.digests:
                t.failed = max(t.failed, 1)
                t.errors.append("traced outputs differ from untraced outputs")
            traced.append(t)
        enough = (len(trace_ratios(plain, traced)) >= MIN_TRACE_PAIRS if trace
                  else len(plain) >= MIN_PASSES[workload])
        if time.perf_counter() - start >= seconds and enough:
            break
    if not trace:
        setup_times += measure_setup(workload, seed)
    passes = plain + traced
    attempted = sum(p.items for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [e for p in passes for e in p.errors]
    if trace:
        metrics = per_layer(plain, traced)
        missing = missing_calls(workload, metrics)
        errors += [f"self-test: {fn} recorded no call" for fn in missing]
    else:
        metrics = end_to_end(plain, statistics.median(setup_times))
        missing = []
    result = {"correct": failed == 0 and not missing, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "setup_times_s": setup_times,
        "failed_frac": failed / attempted, "errors": errors[:20],
        "gallery_shares": [p.shares for p in plain if p.shares],
        "passes": [{"traced": p in traced, "items": p.items, "failed": p.failed,
                    "timed_s": p.timed_s, "peak_rss_kib": p.peak_rss_kib, "calls": p.per_call}
                   for p in passes],
    }
    return result, record


@contextlib.contextmanager
def temp_work_dir():
    """A directory inside the checkout for the children's reports, removed after."""
    path = ROOT / ".perfbench_tmp" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield str(path)
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            path.parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "permcm" / "__init__.py", HERE / "golden.json"):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    with temp_work_dir() as work_dir:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace), work_dir)

    print(f"permcm benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={len(record['passes'])}")
    print(f"machine: {json.dumps(record['machine'])}")
    for gallery_shares in record["gallery_shares"]:
        print(f"gallery: {json.dumps(gallery_shares)}")
    for err in record["errors"]:
        print(f"FAILED: {err}")
    print(f"  {'failed_frac':<40} {record['failed_frac']:.6g} ratio "
          f"({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:.6g} {m['unit']}")
    if args.trace:
        overhead = result["metrics"]["trace.overhead_frac"]["value"]
        noise = result["metrics"]["trace.overhead_noise_frac"]["value"]
        verdict = "resolved" if abs(overhead) > noise else "unresolved: within the noise"
        print(f"  tracing overhead {overhead:+.1%} +/- {noise:.1%} ({verdict})")
    print("record: " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
