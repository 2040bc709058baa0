"""One measured unit of work, run in a fresh process by ``run.py``.

Modes (the first argument after the options):

``setup <workload> <seed>``
    Import permcm, generate the workload's inputs and build them, then
    exit.  The parent times the whole process: interpreter start,
    import and input generation.
``cli <argv...>``
    Call ``permcm.cli.main(argv)`` in process, as ``python -m permcm``
    would, with stdout captured.  Reports the exit code, the wall time
    of ``main`` and the SHA-256 of stdout.
``classify``
    Read graphs (JSON ``{"n", "edges"}``), one a line, from stdin and
    answer each with one JSON line: the wall time of ``permcm.classify``
    plus the report's JSON, the report's SHA-256 and a few of its facts.
    Memo tables carry over from graph to graph.  At end of input, one
    more line closes the session.

Options, before the mode: ``--work-dir DIR`` (required for ``cli`` and
``classify``) is where pool workers forked by this process leave their
reports; ``--trace`` installs the tracer of ``tracer.py`` first and adds
its per-layer counters to the report.

Every report (the last line of ``cli``, the closing line of
``classify``) has ``peak_rss_kib``: this process's peak resident set
plus the peak of each pool worker it forked, summed.  A worker's peak
also counts the pages it shares with this process, so the sum is an
upper bound on the peak of the process tree.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback
from multiprocessing import util as mp_util


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _child_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Workers:
    """Reports of the pool workers forked from this process.

    Each worker, at exit, writes its peak RSS and, when tracing, its own
    counters (reset at fork, so the parent's are not counted twice) to
    ``work_dir``.
    """

    def __init__(self, work_dir: str, tracer=None) -> None:
        self.work_dir, self.tracer, self.parent = work_dir, tracer, os.getpid()
        mp_util.register_after_fork(self, Workers._in_worker)

    def _prefix(self) -> str:
        return f"worker-{self.parent}-"

    def _in_worker(self) -> None:
        if self.tracer is not None:
            self.tracer.reset()
        path = os.path.join(self.work_dir, f"{self._prefix()}{os.getpid()}.json")
        mp_util.Finalize(None, self._dump, args=(path,), exitpriority=100)

    def _dump(self, path: str) -> None:
        report = {"peak_rss_kib": _peak_rss_kib()}
        if self.tracer is not None:
            report["trace"] = self.tracer.snapshot()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)

    def report(self) -> dict:
        """Peak RSS of this process and its workers, and the merged trace."""
        peak = _peak_rss_kib()
        trace = self.tracer.snapshot() if self.tracer is not None else None
        for name in sorted(os.listdir(self.work_dir)):
            if not name.startswith(self._prefix()):
                continue
            path = os.path.join(self.work_dir, name)
            with open(path, encoding="utf-8") as fh:
                worker = json.load(fh)
            os.remove(path)  # a later process may get this process's pid
            peak += worker["peak_rss_kib"]
            if trace is not None:
                from tracer import merge

                trace = merge(trace, worker["trace"])
        out: dict = {"peak_rss_kib": peak}
        if trace is not None:
            out["trace"] = trace
        return out


def run_cli(argv: list[str]) -> dict:
    from permcm import cli

    out, err = io.StringIO(), io.StringIO()
    cpu0 = _child_cpu_s()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # the unit failed; the parent counts it
        rc = -1
        err.write(traceback.format_exc(limit=3))
    wall = time.perf_counter() - start
    text = out.getvalue()
    result = {"rc": rc, "wall_s": wall, "sha256": _digest(text),
              "error": err.getvalue()[-2000:] or None, "child_cpu_s": _child_cpu_s() - cpu0}
    if argv[0] == "verify" and rc in (0, 1):
        result["discrepancies"] = len(json.loads(text)["discrepancies"])
    return result


def _graph(item: dict):
    from permcm.graphs import graph_from_edges

    return graph_from_edges(item["n"], item["edges"])


def classify_one(item: dict) -> dict:
    """Classify one graph; the time covers ``classify`` and the JSON."""
    from permcm import classify

    g = _graph(item)
    start = time.perf_counter()
    try:
        report = classify(g).to_dict()
        text = json.dumps(report, indent=2, sort_keys=True)
    except Exception:  # one failed item; the session goes on
        return {"rc": -1, "wall_s": time.perf_counter() - start, "sha256": None,
                "error": traceback.format_exc(limit=3)}
    wall = time.perf_counter() - start
    return {"rc": 0, "wall_s": wall, "sha256": _digest(text),
            "facts": {"is_permutation": report["is_permutation"], "cm": report["cm"],
                      "facets": len(report["invariants"]["max_independent_sets"])}}


def main(argv: list[str]) -> int:
    work_dir, tracer = None, None
    while argv[:1] in (["--work-dir"], ["--trace"]):
        if argv[0] == "--work-dir":
            work_dir, argv = argv[1], argv[2:]
        else:
            from tracer import install

            tracer, argv = install(), argv[1:]
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        if rest[0] == "classify-mix":
            from gallery import gallery

            for item in gallery(int(rest[1])):
                _graph(item)
        else:
            import permcm.cli  # noqa: F401
        return 0
    if work_dir is None or mode not in ("cli", "classify"):
        print(f"usage: child.py --work-dir DIR [--trace] cli|classify ...; got {argv!r}",
              file=sys.stderr)
        return 2
    workers = Workers(work_dir, tracer)
    if mode == "cli":
        result = run_cli(rest)
    else:
        for line in sys.stdin:
            sys.stdout.write(json.dumps(classify_one(json.loads(line))) + "\n")
            sys.stdout.flush()
        result = {"rc": 0}
    sys.stdout.write(json.dumps(result | workers.report()) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
