#!/usr/bin/env python3
"""odup benchmark: seconds, bytes and device accuracy per update round.

Run from the repository root:

    python3 perfbench/run.py --workload c4-queue --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with no tracing active;
``--trace 1`` is a separate traced run that reports per-layer metrics.
``--workload all`` runs every workload both ways, prints one table and the
tracing overhead per workload. Every run checks the program's outputs and
exits 1 when any operation failed. The last line of standard output is a
JSON object with the keys correct, attempted, failed and metrics; the
lines before it, starting with ``#``, hold the environment record, every
metric with its unit, and the failures. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("c4-queue", "ingest-adaptive", "device-stream")
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def bootstrap() -> bool:
    """Pin BLAS to one thread before numpy loads and put the program's
    sources on the import path; False when the sources are missing."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "odup", "pipeline.py")):
        print(f"error: program sources not found under {src}", file=sys.stderr)
        return False
    if src not in sys.path:
        sys.path.insert(0, src)
    return True


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seconds: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seconds": seconds,
    }


def emit(result: dict, env: dict, notes: list[str], shown: dict) -> None:
    """``shown`` holds metrics printed beside the result's own, ungated."""
    print("# env " + json.dumps(env, sort_keys=True))
    for name, m in {**result["metrics"], **shown}.items():
        print(f"# metric {name} = {m['value']!r} {m['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"# metric fail_frac = {frac!r} ratio  ({result['failed']}/{result['attempted']})")
    for note in notes[:20]:
        print(f"# fail {note}")
    if len(notes) > 20:
        print(f"# fail ... {len(notes) - 20} more")
    print(json.dumps(result), flush=True)


def run_one(args) -> int:
    import workloads

    out_root = os.path.join(ROOT, ".bench_out")
    work_dir = os.path.join(out_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        res = workloads.run_workload(args.workload, args.seed, bool(args.trace), ROOT, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    unusable = [name for name in units
                if not math.isfinite(float(res.metrics.get(name, math.nan)))]
    if unusable and not res.failed:
        res.failed, res.notes = res.attempted, [f"metrics missing or not finite: {unusable}"]
    metrics = {name: {"value": float(res.metrics[name]), "unit": unit}
               for name, unit in units.items() if name not in unusable}
    shown = {} if args.trace else {
        name: {"value": float(res.metrics[name]), "unit": unit}
        for name, unit in workloads.UNGATED.items() if name in res.metrics}
    if res.spans:
        with open(os.path.join(out_root, f"spans-{args.workload}-seed{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(res.spans, fh)
    correct = res.failed == 0
    emit({"correct": correct, "attempted": res.attempted, "failed": res.failed,
          "metrics": metrics}, environment(args.seconds), res.notes, shown)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    summary, attempted, failed, ok = {}, 0, 0, True
    env = None
    for workload in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            for line in lines:
                if line.startswith("# env "):
                    env = json.loads(line[6:])
                elif line.startswith("# fail"):
                    print(f"{workload} trace={trace}: {line[2:]}")
            if proc.returncode not in (0, 1) or not lines:
                print(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                ok = False
                continue
            runs[trace] = json.loads(lines[-1])
            attempted += runs[trace]["attempted"]
            failed += runs[trace]["failed"]
            ok &= runs[trace]["correct"]
        print(f"\n== {workload}")
        for trace, res in sorted(runs.items()):
            for name, m in res["metrics"].items():
                summary[f"{workload}/{name}"] = m
                print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
            print(f"  {'fail_frac' if not trace else 'fail_frac (traced)':34s} "
                  f"{res['failed'] / res['attempted']:>14.6g} ratio")
        if 0 in runs and 1 in runs:
            traced = runs[1]["metrics"]["trace.run_s"]["value"]
            overhead = traced - runs[0]["metrics"]["run_s"]["value"]
            layers = sum(m["value"] for name, m in runs[1]["metrics"].items()
                         if name.endswith(".self_s"))
            summary[f"{workload}/trace.overhead_s"] = {"value": overhead, "unit": "s"}
            print(f"  {'tracing overhead (traced - untraced run_s)':34s} {overhead:>14.6g} s")
            print(f"  {'layer self times / traced run_s':34s} {layers / traced:>14.6g} ratio")
    if env is not None:
        print("\n# env " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": ok and failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": summary}))
    return 0 if ok and failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="nominal run length; each workload's work is fixed (see README)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not bootstrap():
        return 2

    if args.setup_probe:
        t0 = time.perf_counter()
        import workloads

        imported = time.perf_counter() - t0
        print(repr(imported + workloads.setup_work(args.workload, args.seed, args.work_dir)))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
