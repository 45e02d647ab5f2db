"""The repository benchmark: four workloads, end-to-end metrics, layer trace.

Usage, from the repository root::

    python bench/run.py                         # all workloads, seed 0
    python bench/run.py --workload city_tiles --seed 3 --seconds 15
    python bench/run.py --trace                 # plus one traced repetition
    python bench/run.py --smoke                 # toy sizes, schema check

Every repetition runs in a fresh ``bench/repetition.py`` process, so no
cache carries over from one repetition to the next, and repetitions of
different workloads are interleaved round-robin (A1 B1 C1 D1 A2 ...), so a
slow phase of a shared machine hits every workload alike.  Repetitions
continue until the workload has at least ``--reps`` of them and
``--seconds`` of timed operations.  Each end-to-end metric is the median
over repetitions (latency percentiles pool every repetition's samples).

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics, or with ``--trace``
the per-layer ones.  With more than one workload the metric names carry a
``<workload>.`` prefix.  The exit code is 0 only when every operation
succeeded and every output digest matched.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"

WORKLOADS = ("sweep_holistic", "sweep_divisible", "city_tiles", "online_faulty")

#: End-to-end metric names and units (bounds live in BENCHMARK.json).
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "assign_rate": "tasks/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
}

#: Stop adding repetitions once a run has used this long (and has at
#: least MIN_REPS), so one invocation stays well inside three minutes.
TIME_CAP_S = 140.0
MIN_REPS = 3
CHILD_TIMEOUT_S = 120.0

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) of ``values``."""
    return percentile(values, 0.25), percentile(values, 0.5), percentile(values, 0.75)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(ROOT / ".bench_tmp")
    return env


def run_repetition(
    workload: str, seed: int, toy: bool, trace_dir: Optional[Path]
) -> Dict[str, Any]:
    """Start one repetition process and return its parsed result."""
    command = [
        sys.executable, str(BENCH / "repetition.py"), "--workload", workload,
        "--seed", str(seed),
    ]
    if toy:
        command.append("--toy")
    if trace_dir is not None:
        command += ["--trace", str(trace_dir)]
    launch = time.monotonic()
    process = subprocess.run(
        command + ["--launch", repr(launch)], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if process.returncode != 0:
        raise RuntimeError(
            f"{workload} repetition exited {process.returncode}:\n"
            + process.stderr[-3000:]
        )
    return json.loads(process.stdout.strip().splitlines()[-1])


def end_to_end(reps: Sequence[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Median over repetitions, quartiles and sample count of every
    end-to-end metric.

    A latency percentile is taken within each repetition, then the median
    over repetitions: a percentile of the pooled samples would be set by
    whichever repetition met a slow phase of the machine.
    """
    per_rep = {
        "setup_s": [r["setup_s"] for r in reps],
        "assign_rate": [r["tasks"] / r["window_s"] for r in reps],
        "latency_p50_ms": [percentile(r["latencies_s"], 0.5) * 1e3 for r in reps],
        "latency_p90_ms": [percentile(r["latencies_s"], 0.9) * 1e3 for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    samples = sum(len(r["latencies_s"]) for r in reps)
    out: Dict[str, Dict[str, float]] = {}
    for name in END_TO_END:
        values = per_rep[name]
        q1, median, q3 = quartiles(values)
        n = samples if name.startswith("latency") else len(values)
        out[name] = {"value": median, "q1": q1, "q3": q3, "n": n}
    return out


def run_digest(rep: Dict[str, Any]) -> Optional[str]:
    """One digest over a repetition's operation digests (None if any failed)."""
    if any(d is None for d in rep["digests"]):
        return None
    return hashlib.sha256("\n".join(rep["digests"]).encode()).hexdigest()


def check_digests(
    workload: str, seed: int, reps: Sequence[Dict[str, Any]], toy: bool
) -> Tuple[bool, int, str]:
    """Compare every repetition's digests with the first and the pinned one.

    :returns: (correct, operations with a mismatch, pinned-digest status).
    """
    first = reps[0]["digests"]
    mismatched = {
        index
        for rep in reps[1:]
        for index, (a, b) in enumerate(zip(first, rep["digests"]))
        if a != b
    }
    pinned = None if toy else load_digests().get(workload, {}).get(str(seed))
    digest = run_digest(reps[0])
    if pinned is None:
        status = "not pinned for this seed"
        pinned_ok = True
    else:
        pinned_ok = digest == pinned
        status = "matches pinned" if pinned_ok else "DIFFERS from pinned"
        if not pinned_ok:
            mismatched.update(range(len(first)))
    return not mismatched and pinned_ok, len(mismatched), status


def load_digests() -> Dict[str, Dict[str, str]]:
    if not DIGESTS.is_file():
        return {}
    return json.loads(DIGESTS.read_text())


def pin_digests(workload: str, seed: int, reps: Sequence[Dict[str, Any]]) -> None:
    pinned = load_digests()
    pinned.setdefault(workload, {})[str(seed)] = run_digest(reps[0])
    ordered = {
        w: dict(sorted(seeds.items(), key=lambda item: int(item[0])))
        for w, seeds in sorted(pinned.items())
    }
    DIGESTS.write_text(json.dumps(ordered, indent=1) + "\n")


def layer_metrics(
    traced: Dict[str, Any], untraced: Sequence[Dict[str, Any]]
) -> Dict[str, float]:
    out = {**traced["layers"], **traced["counts"]}
    baseline = percentile([r["window_s"] for r in untraced], 0.5)
    out["trace_overhead_frac"] = traced["window_s"] / baseline - 1.0
    return out


def regime(reps: Sequence[Dict[str, Any]], seed: int) -> str:
    first = reps[0]
    versions = first["versions"]
    return (
        f"nproc={os.cpu_count()} python={sys.version.split()[0]} "
        f"numpy={versions['numpy']} scipy={versions['scipy']} "
        f"numba={'on' if versions['numba'] else 'off'} OPENBLAS_NUM_THREADS=1 "
        f"jobs={first['jobs']} caches=cold seed={seed} reps={len(reps)}"
    )


def report(
    workload: str,
    seed: int,
    reps: Sequence[Dict[str, Any]],
    metrics: Dict[str, Dict[str, float]],
    status: str,
) -> None:
    stamp = regime(reps, seed)
    print(f"== {workload}  [{stamp}]")
    print(
        f"  {'rep':>3} {'setup_s':>8} {'window_s':>9} {'ops':>5} {'tasks':>8} "
        f"{'lp_hit':>7} {'batch_hit':>9} {'memo_hit':>8} {'rss_MiB':>8}"
    )
    for index, rep in enumerate(reps, 1):
        counts = rep["counts"]
        print(
            f"  {index:>3} {rep['setup_s']:8.3f} {rep['window_s']:9.3f} "
            f"{rep['attempted']:>5} {rep['tasks']:>8} "
            f"{counts['caching.lp_hit_ratio']:7.3f} "
            f"{counts['caching.batch_hit_ratio']:9.3f} "
            f"{counts['caching.memo_hit_ratio']:8.3f} {rep['peak_rss_mb']:8.1f}"
        )
    print(f"  {'metric':<16} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>6}")
    for name, unit in END_TO_END.items():
        m = metrics[name]
        print(
            f"  {name:<16} {unit:<8} {m['value']:12.4f} {m['q1']:12.4f} "
            f"{m['q3']:12.4f} {m['n']:>6}"
        )
    print(f"  digests: {status}")
    for rep in reps:
        for error in rep["errors"]:
            print("  error: " + error.strip().replace("\n", "\n    "))


def validate(
    declared: Dict[str, Any], e2e: Dict[str, Any], per_layer: Dict[str, Any]
) -> List[str]:
    """Schema problems of one workload's output against BENCHMARK.json."""
    problems = []
    for kind, emitted, limit in (
        ("end_to_end", e2e, 16), ("per_layer", per_layer, 128)
    ):
        if len(emitted) > limit:
            problems.append(f"{len(emitted)} {kind} metrics > {limit}")
        for name, entry in emitted.items():
            if not NAME.fullmatch(name) or len(name) > 64:
                problems.append(f"bad metric name {name!r}")
            if not isinstance(entry["value"], (int, float)) or not math.isfinite(
                entry["value"]
            ):
                problems.append(f"{name} is not a finite number")
        for metric in declared[kind]:
            entry = emitted.get(metric["name"])
            if entry is None:
                problems.append(f"{kind} metric {metric['name']} not emitted")
            elif entry["unit"] != metric["unit"]:
                problems.append(
                    f"{metric['name']} emitted in {entry['unit']}, "
                    f"declared {metric['unit']}"
                )
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=5,
                        help="minimum repetitions per workload")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="minimum timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                        default=0, help="add one traced repetition per workload "
                        "and report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at toy size, one repetition plus "
                        "one traced; validates the output against BENCHMARK.json")
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's output digests as the pinned ones")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or list(WORKLOADS)
    reps_wanted = 1 if args.smoke else max(args.reps, 1)
    trace = args.trace == 1 or args.smoke

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    started = time.monotonic()
    reps: Dict[str, List[Dict[str, Any]]] = {w: [] for w in workloads}
    traced: Dict[str, Dict[str, Any]] = {}
    try:
        while True:
            pending = [
                w for w in workloads
                if len(reps[w]) < reps_wanted
                or math.fsum(r["window_s"] for r in reps[w]) < args.seconds
            ]
            capped = time.monotonic() - started > TIME_CAP_S and all(
                len(reps[w]) >= MIN_REPS for w in workloads
            )
            if not pending or capped:
                break
            for w in pending:
                reps[w].append(run_repetition(w, args.seed, args.smoke, None))
        if trace:
            for w in workloads:
                span_dir = scratch / f"trace-{os.getpid()}-{w}"
                shutil.rmtree(span_dir, ignore_errors=True)
                span_dir.mkdir()
                try:
                    traced[w] = run_repetition(w, args.seed, args.smoke, span_dir)
                finally:
                    shutil.rmtree(span_dir, ignore_errors=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    correct = True
    attempted = failed = 0
    out_metrics: Dict[str, Dict[str, Any]] = {}
    problems: List[str] = []
    for w in workloads:
        runs = reps[w] + ([traced[w]] if w in traced else [])
        ok, mismatched, status = check_digests(w, args.seed, runs, args.smoke)
        correct = correct and ok
        attempted += sum(r["attempted"] for r in runs)
        failed += max(sum(r["failed"] for r in runs), mismatched)
        e2e = end_to_end(reps[w])
        report(w, args.seed, reps[w], e2e, status)
        emitted_e2e = {
            name: {"value": e2e[name]["value"], "unit": unit}
            for name, unit in END_TO_END.items()
        }
        emitted_layer: Dict[str, Dict[str, Any]] = {}
        if w in traced:
            values = layer_metrics(traced[w], reps[w])
            emitted_layer = {
                name: {"value": values[name], "unit": layers.unit(name)}
                for name in layers.metric_names()
            }
            print(f"  trace ({traced[w]['window_s']:.3f} s traced window):")
            for name, entry in emitted_layer.items():
                print(f"    {name:<32} {entry['value']:14.6g} {entry['unit']}")
        if args.smoke:
            problems += [f"{w}: {p}" for p in validate(declared, emitted_e2e, emitted_layer)]
        chosen = emitted_layer if args.trace == 1 else emitted_e2e
        prefix = "" if len(workloads) == 1 else f"{w}."
        out_metrics.update({prefix + k: v for k, v in chosen.items()})
        if args.pin and ok and not args.smoke:
            pin_digests(w, args.seed, runs)
    for problem in problems:
        print(f"smoke: {problem}")
    correct = correct and failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": out_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
