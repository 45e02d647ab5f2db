"""One repetition of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition
begins with cold caches: the per-process scenario memo and LP solve
caches of ``repro`` cannot carry warm entries from an earlier one.  The
script imports the program, optionally installs the layer tracer, runs
the workload's warm-up, then times each operation and prints one JSON
object on its last stdout line.

Usage (from the repository root; ``run.py`` sets these up)::

    PYTHONPATH=src:bench python bench/repetition.py --workload NAME \
        --seed N --launch T [--toy] [--trace DIR]

``--launch`` is the ``time.monotonic()`` reading the parent took just
before starting this process; set-up time is measured from it.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

import layers
from repro.des import HAVE_NUMBA
from workloads import WORKLOADS, digest


def peak_rss_mib() -> float:
    """Peak RSS of this process and its reaped children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--trace", type=Path, default=None, metavar="DIR")
    args = parser.parse_args()

    tracer = None
    if args.trace is not None:
        # Before the warm-up: that is where the pool forks.
        tracer = layers.Tracer(args.trace)
        layers.install(tracer)

    workload = WORKLOADS[args.workload](args.seed, toy=args.toy)
    workload.warmup()
    operations = workload.operations()

    latencies, digests, tasks, failed, errors = [], [], 0, 0, []
    window_start = time.monotonic()
    setup_s = window_start - args.launch
    for operation in operations:
        start = time.monotonic()
        try:
            output, decided = operation()
        except Exception:  # one failed operation must not end the run
            latencies.append(time.monotonic() - start)
            failed += 1
            digests.append(None)
            errors.append(traceback.format_exc(limit=4))
            continue
        latencies.append(time.monotonic() - start)
        tasks += decided
        ok = workload.check(output)
        failed += not ok
        digests.append(digest(output) if ok else None)

    workload.close()
    for child in multiprocessing.active_children():
        child.join(timeout=30)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "window_s": math.fsum(latencies),
        "latencies_s": latencies,
        "tasks": tasks,
        "attempted": len(operations),
        "failed": failed,
        "digests": digests,
        "errors": errors,
        "peak_rss_mb": peak_rss_mib(),
        "counts": layers.telemetry_counts(workload.telemetry),
        "jobs": workload.jobs,
        "versions": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": HAVE_NUMBA,
        },
    }
    if tracer is not None:
        result["layers"] = layers.summarize(
            tracer.spans,
            layers.worker_spans(args.trace),
            result["window_s"],
            since=window_start,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
