#!/usr/bin/env python3
"""cvteleport benchmark.

Drives the public CLI entry point ``cvteleport.cli.main(argv)`` in-process,
one client in a closed loop: each request is one CLI invocation and the next
is sent only after the previous one returns. The package is imported from
``src/`` of the checkout this file sits in.

    python3 perfbench/run.py --workload dense_large_n --seed 1 --seconds 30 --trace 0

The request list is fixed by the workload and seed (see workloads.py). The
benchmark runs passes over the whole list while another pass still fits in
--seconds (at least one). Memo caches of the package are emptied before
every request, as in a fresh CLI process. Every response is checked against
the benchmark's own closed forms (reference.py) outside the timed region.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
passes with passes traced by spans.py and reports the per-layer metrics,
including the tracing overhead. Human-readable lines come first; the
second-to-last line is the result record stamped with the run context (also
written to perfbench/out/), and the last line is the JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import reference
import spans
import stats
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 2  # fresh-process set-ups per run, besides the run's own
SETUP_PROBE_TIMEOUT = 120
MAX_TRACED_PASSES = 3  # bounds span memory on fast workloads

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}


def setup(workload: str, seed: int):
    """Import the package and CLI, build the request list, run the warm-up.

    Returns (package, cli module, requests, cache_clear functions, seconds).
    """
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import cvteleport
    from cvteleport import cli

    requests = workloads.build(workload, seed)
    caches = _memo_caches()
    execute(cli, workloads.WARMUPS[workload], caches)  # outside the list: not checked
    elapsed = time.perf_counter() - t0
    if not Path(cvteleport.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"cvteleport was imported from {cvteleport.__file__}, not from src/")
    return cvteleport, cli, requests, caches, elapsed


def _memo_caches() -> list:
    """cache_clear of every memoized function in the package's modules."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "cvteleport" or name.startswith("cvteleport."):
            for obj in vars(module).values():
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    found[id(obj)] = clear
    return list(found.values())


class Outcome(NamedTuple):
    latency: float
    cause: str | None  # None when the response passed the reference check


def execute(cli, request: workloads.Request, caches) -> Outcome:
    """Run one request; time it; check the response."""
    for clear in caches:
        clear()
    out, err = io.StringIO(), io.StringIO()
    rc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(request.argv))
    except SystemExit as exc:  # argparse reports usage errors this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash fails this request; the loop goes on
        latency = time.perf_counter() - t0
        print(f"request {' '.join(request.argv)} raised:\n{traceback.format_exc()}",
              file=sys.stderr)
        return Outcome(latency, f"{request.kind}.exception_{type(exc).__name__}")
    latency = time.perf_counter() - t0
    cause = reference.check(request.kind, request.params, rc, out.getvalue(), err.getvalue())
    return Outcome(latency, None if cause is None else f"{request.kind}.{cause}")


def run_pass(cli, requests, caches, tracer: spans.Tracer | None = None) -> list[Outcome]:
    outcomes = []
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        outcomes.append(execute(cli, request, caches))
    return outcomes


def wall(outcomes: list[Outcome]) -> float:
    """Time the client waited on the program for one pass."""
    return sum(o.latency for o in outcomes)


def measure_setup(workload: str, seed: int, in_process: float) -> float:
    """Median set-up time over fresh-process probes and this run's own."""
    samples = [in_process]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            raise SystemExit(f"set-up probe failed:\n{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples)


def end_to_end(passes: list[list[Outcome]], setup_s: float) -> dict[str, float]:
    n = len(passes[0])
    # each request's latency is its median over the passes
    latency = [statistics.median(p[i].latency for p in passes) for i in range(n)]
    attempted = n * len(passes)
    failed = sum(o.cause is not None for p in passes for o in p)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(wall(p) for p in passes),
        "latency_p50_ms": 1e3 * stats.median_value(latency),
        "latency_tail_ms": 1e3 * stats.tail_value(latency),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }


def traced_run(package, cli, requests, caches, seconds: float):
    """Alternate untraced and traced passes; returns (passes, layer metrics, spans)."""
    tracer = spans.Tracer()
    passes, untraced, traced, per_pass, columns = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        plain = run_pass(cli, requests, caches)
        patches = spans.install(tracer, package)
        try:
            with_spans = run_pass(cli, requests, caches, tracer)
        finally:
            patches.restore()
        passes += [plain, with_spans]
        untraced.append(wall(plain))
        traced.append(wall(with_spans))
        cols = tracer.columns()
        per_pass.append(spans.layer_metrics(cols, tracer.names, tracer.objective_evals))
        columns.append(cols)
        tracer.clear()
        spent = time.perf_counter() - t0
        if len(traced) >= MAX_TRACED_PASSES or spent + untraced[-1] + traced[-1] > seconds:
            break
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return passes, metrics, (tracer.names, columns)


def write_spans(path: Path, names: list[str], columns: list[dict]) -> None:
    import numpy as np

    merged = {k: np.concatenate([c[k] for c in columns]) for k in columns[0]}
    # parents index within a pass; offset them to index the merged arrays
    offsets = np.cumsum([0] + [len(c["start"]) for c in columns[:-1]])
    merged["parent"] = np.concatenate([
        np.where(c["parent"] >= 0, c["parent"] + off, -1) for c, off in zip(columns, offsets)
    ])
    merged["pass_index"] = np.concatenate(
        [np.full(len(c["start"]), i) for i, c in enumerate(columns)])
    np.savez_compressed(path, names=np.array(names), **merged)


def _git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository. git is kept
    from searching the directories above the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy wheels bundle, if present."""
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return int(fn())
    return None


def run_context(workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "cvteleport").rglob("*.py"))),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "workload": workload,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)

    # One BLAS thread: on a small shared machine a second thread mostly adds
    # scheduling noise. The count is recorded in the run context.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if not (SRC / "cvteleport" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'cvteleport'}", file=sys.stderr)
        return 2
    package, cli, requests, caches, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    n = len(requests)
    tail_pct = stats.tail_percentile(n)

    if args.trace:
        passes, metrics, (names, columns) = traced_run(package, cli, requests, caches,
                                                      args.seconds)
        units = spans.LAYER_METRICS
    else:
        passes, t0 = [], time.perf_counter()
        while True:
            passes.append(run_pass(cli, requests, caches))
            if time.perf_counter() - t0 + wall(passes[-1]) > args.seconds:
                break
        metrics = end_to_end(passes, measure_setup(args.workload, args.seed, setup_s))
        units = E2E_UNITS

    attempted = n * len(passes)
    causes: dict[str, int] = {}
    for o in (o for p in passes for o in p):
        if o.cause is not None:
            causes[o.cause] = causes.get(o.cause, 0) + 1
    failed = sum(causes.values())
    correct = not any(reference.is_new_wrong_answer(c) for c in causes)

    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es) over {n} "
          f"requests; latency_tail_ms is p{tail_pct:.4g}")
    for name, unit in units.items():
        print(f"  {name:<42} {metrics[name]:.6g} {unit}")
    by_cause = ", ".join(f"{c}={k}" for c, k in sorted(causes.items())) or "none"
    print(f"  {'error_rate':<42} {failed / attempted:.6g} ratio ({failed}/{attempted}: {by_cause})")

    record = {
        "context": run_context(args.workload, args.seed),
        "trace": args.trace,
        "requests": n,
        "passes": len(passes),
        "tail_percentile": tail_pct,
        "error_rate": failed / attempted,
        "failures_by_cause": causes,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    per_request = [{"argv": " ".join(r.argv),
                    "latency_s": [p[i].latency for p in passes],
                    "cause": passes[0][i].cause} for i, r in enumerate(requests)]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**record, "per_request": per_request}, indent=2) + "\n")
    if args.trace:
        write_spans(OUT / f"spans-{stem}.npz", names, columns)
    print(json.dumps(record))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
