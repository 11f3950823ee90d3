"""jacprop benchmark: one seeded workload per run, checked and timed.

Usage, from the root of a checkout::

    python3 bench/run.py --workload mc-chi --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

The run imports jacprop from this checkout's ``src/``, builds the
workload from ``--seed`` and plays it in rounds until ``--seconds`` are
used up (a warm-up round, then at least two recorded rounds).  ``wall_s``
adds up, over a round's operations, each one's time over the recorded
rounds as the workload summarises it (median or fastest).  Every
operation's result is checked after the timed phase.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of ``bench/spans.py`` with ``--trace 1``.  See
``bench/README.md`` for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: Thread settings per workload; none exceeds the 2 cores it was tuned on.
THREADS = {
    "mc-chi": {"JACPROP_WORKERS": "2", "OPENBLAS_NUM_THREADS": "1"},
    "mc-profile": {"JACPROP_WORKERS": "1", "OPENBLAS_NUM_THREADS": "2"},
    "theory": {"JACPROP_WORKERS": "1", "OPENBLAS_NUM_THREADS": "1"},
}

#: Fresh processes timed from spawn to ready; setup_s is their median.
SETUP_SAMPLES = 5
#: Recorded rounds at least, after the warm-up round.
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120

LIMITS = (
    "process timers (perf_counter, monotonic) and getrusage only; no "
    "system-wide tracing and no hardware counters. Counts marked computed "
    "are derived from array shapes and ignore cache misses."
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*THREADS, "all"],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args, workdir: str):
    """Everything from process start to ready: imports, inputs, warm-up."""
    sys.path.insert(0, str(SRC))
    import jacprop

    if Path(jacprop.__file__).resolve().parent != SRC / "jacprop":
        raise RuntimeError(f"jacprop imported from {jacprop.__file__}, not {SRC}")
    import workloads

    return workloads.build(args.workload, args.seed, workdir)


def setup_samples(argv: list[str]) -> list[float]:
    """Seconds from spawning a fresh interpreter to its workload being ready."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def play(workload, seconds: float, tracer=None):
    """Run rounds for ``seconds``; with a tracer, every second round is traced.

    Round 0 warms up (first-touch allocation, lazy imports inside numpy and
    scipy): its results are checked but its wall time is not recorded.
    Returns (outcomes, untraced round walls, traced round walls, and per
    untraced round the seconds of each of its operations).
    """
    outcomes, plain, traced, op_seconds = [], [], [], []
    start = time.monotonic()
    for r in itertools.count():
        on = tracer is not None and r % 2 == 1
        if on:
            restore = spans.install(tracer)
            root = tracer.open("bench.glue")
        t0 = time.perf_counter()
        done = workload.run_round(r)
        wall = time.perf_counter() - t0
        outcomes.extend(done)
        if on:
            tracer.close(root)
            restore()
        if r > 0:
            (traced if on else plain).append(wall)
            if not on:
                op_seconds.append([o.seconds for o in done])
        if r >= MIN_ROUNDS and time.monotonic() - start + wall > seconds:
            break
    return outcomes, plain, traced, op_seconds


def check(workload, outcomes) -> int:
    """Run every result check; returns the number of failed operations."""
    failed = 0
    for o in outcomes:
        if o.error is None:
            try:
                workload.check(o)
            except Exception as exc:  # a check that cannot read the result
                o.failures.append(f"unreadable result: {type(exc).__name__}: {exc}")
        if o.error is not None or o.failures:
            failed += 1
            print(f"FAILED {o.label}: {o.error or '; '.join(o.failures)}", file=sys.stderr)
    return failed


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _getconf_caches() -> dict:
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10, check=False).stdout
    except OSError:
        return {}
    caches = {}
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0].endswith("CACHE_SIZE") and parts[1] != "0":
            caches[parts[0]] = int(parts[1])
    return caches


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else ref
    return ref


def run_record(args) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": THREADS[args.workload],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "caches": _getconf_caches(),
        "limits": LIMITS,
    }


def run_all(args) -> int:
    """Run every workload in its own process; the last line maps each to its result."""
    results = {}
    for name in THREADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        for line in lines:
            print(f"{name}: {line}")
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (SRC / "jacprop" / "__init__.py").is_file():
        print(f"bench: no jacprop sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for key, value in THREADS[args.workload].items():
        os.environ[key] = value
    os.environ["OMP_NUM_THREADS"] = THREADS[args.workload]["OPENBLAS_NUM_THREADS"]

    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        if args.setup_only:
            setup(args, workdir)
            print(time.monotonic())
            return 0
        if not args.trace:
            setup_s = statistics.median(setup_samples(argv))
        workload = setup(args, workdir)
        tracer = spans.Tracer() if args.trace else None
        outcomes, plain, traced, op_seconds = play(workload, args.seconds, tracer)
        rss = peak_rss_mb()
        failed = check(workload, outcomes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    attempted = len(outcomes)
    record = run_record(args)
    if args.trace:
        metrics = spans.layer_metrics(tracer, traced, plain)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (sum(map(workload.summary, zip(*op_seconds))), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
    print("record " + json.dumps(record, sort_keys=True))
    print(f"rounds untraced {[round(w, 4) for w in plain]} (median "
          f"{statistics.median(plain)!r}) traced "
          f"{[round(w, 4) for w in traced]}; "
          f"error_rate {failed / attempted!r} ({failed} of {attempted} operations failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
