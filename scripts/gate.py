"""Run the same gates on two source trees and compare what they wrote.

Usage: python scripts/gate.py run --src DIR --out OUT [--seeds 1-3]
           [--streams demo,c4-queue,ingest-adaptive,longlog]
       python scripts/gate.py compare BASE NEW

``run`` puts DIR, a tree's ``src`` directory, first on ``sys.path`` and
imports ``odup`` before numpy, so that the package's one-thread BLAS
settings hold. It then runs ``simulate`` at ``timing = zero`` for each
stream and seed into ``OUT/<stream>/seed<N>``:

- ``demo`` is ``scripts/demo.cfg``, with the event log ``odup synth``
  writes for it (``events.tsv``) beside the run;
- ``c4-queue`` and ``ingest-adaptive`` are the configs of
  ``perfbench/workloads.py``'s ``simulate_config``, the second on that
  module's event log. The module is imported from this checkout and only
  read;
- ``longlog`` is ``scripts/demo.cfg`` on an event log (``events.tsv``,
  beside the run) whose sessions each join LONG_MERGE consecutive ``synth``
  sessions into one user's, so its prefixes run to about 39 items where
  the other streams' stop at 9.

``OUT/manifest.json`` records each run's files with their SHA-256, and the
per-round ``delta_bytes``, final ``dev_p10`` and ``cum_bytes`` of its
``report.json``. One copy of this script thus measures a parent commit's
tree and a change alike.

``compare`` hashes the files of both outputs as they are on disk. It
prints whether every file is byte-identical, naming the first that differ,
and whether every frame has the same size. For each stream it prints the
per-seed final ``dev_p10`` pairs, both medians, the base IQR and the median
of the paired differences (new minus base). It exits 1 only when a
manifest is missing or malformed, or the two outputs hold different runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_CONFIG = os.path.join(ROOT, "scripts", "demo.cfg")
PERFBENCH = os.path.join(ROOT, "perfbench")
STREAMS = ("demo", "c4-queue", "ingest-adaptive", "longlog")
LONG_MERGE = 4  # consecutive synth sessions that each longlog session joins
FIRST_DIFFS = 5  # the differing files and frame sizes compare names


def parse_seeds(text: str) -> list[int]:
    """``1-3,5`` -> [1, 2, 3, 5]."""
    seeds = []
    try:
        for part in text.split(","):
            lo, _, hi = part.partition("-")
            seeds.extend(range(int(lo), int(hi or lo) + 1))
    except ValueError:
        raise SystemExit(f"gate: --seeds must be like 1-3,5, not {text!r}") from None
    if not seeds or min(seeds) < 0 or len(set(seeds)) != len(seeds):
        raise SystemExit(f"gate: --seeds must name non-negative seeds once each, not {text!r}")
    return seeds


def survey(out: str, run_dirs: list[str]) -> dict:
    """Per run directory (relative to ``out``): its files' SHA-256 and sizes
    and its report's per-round ``delta_bytes``, final ``dev_p10`` and
    ``cum_bytes``."""
    runs = {}
    for rel in run_dirs:
        top = os.path.join(out, rel)
        files = {}
        for dirpath, _, names in os.walk(top):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    data = fh.read()
                files[os.path.relpath(path, out)] = [hashlib.sha256(data).hexdigest(), len(data)]
        with open(os.path.join(top, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        runs[rel] = {"files": dict(sorted(files.items())),
                     "delta_bytes": [rec["delta_bytes"] for rec in report],
                     "dev_p10": report[-1]["dev_p10"], "cum_bytes": report[-1]["cum_bytes"]}
    return runs


def write_long_log(cfg, seed: int, run_dir: str) -> str:
    """The sessions ``odup synth`` draws for ``cfg`` at ``seed``, each
    LONG_MERGE consecutive ones joined into one, written as the event log
    ``run_dir/events.tsv``; returns its path."""
    from odup.numkit import Rng
    from odup.pipeline import synth_data
    from odup.sessions import Session, write_event_log

    res = synth_data(cfg, Rng(seed))
    sessions = res.sessions + res.test_sessions
    joined = [Session([item for sess in sessions[i: i + LONG_MERGE] for item in sess.items],
                      sessions[i].start) for i in range(0, len(sessions), LONG_MERGE)]
    path = os.path.join(run_dir, "events.tsv")
    write_event_log(path, joined)
    return path


def run(args) -> int:
    src = os.path.abspath(args.src)
    if not os.path.isfile(os.path.join(src, "odup", "__init__.py")):
        raise SystemExit(f"gate: --src {args.src} holds no odup package")
    streams = args.streams.split(",")
    unknown = sorted(set(streams) - set(STREAMS))
    if unknown:
        raise SystemExit(f"gate: unknown stream(s) {', '.join(unknown)}; the streams are {', '.join(STREAMS)}")
    seeds = parse_seeds(args.seeds)
    run_dirs = [os.path.join(stream, f"seed{seed}") for stream in streams for seed in seeds]
    for rel in run_dirs:
        if os.path.exists(os.path.join(args.out, rel)):
            raise SystemExit(f"gate: {os.path.join(args.out, rel)} exists; give a fresh --out")

    sys.path[:0] = [src, PERFBENCH]
    import odup  # before numpy, so that its BLAS thread settings hold
    if os.path.dirname(os.path.abspath(odup.__file__)) != os.path.join(src, "odup"):
        raise SystemExit(f"gate: odup was already imported from {odup.__file__}")
    from odup import cli, pipeline
    import workloads

    for stream in streams:
        for seed in seeds:
            run_dir = os.path.join(args.out, stream, f"seed{seed}")
            os.makedirs(run_dir)
            if stream == "demo":
                cfg = pipeline.load_config(DEMO_CONFIG)
                if cli.main(["--config", DEMO_CONFIG, "--seed", str(seed), "--out", run_dir, "synth"]):
                    raise SystemExit(f"gate: odup synth failed in {run_dir}")
            elif stream == "longlog":
                cfg = pipeline.load_config(DEMO_CONFIG)
                cfg = dataclasses.replace(cfg, data=write_long_log(cfg, seed, run_dir))
            else:
                cfg = workloads.simulate_config(stream, seed, run_dir)
                if stream == "ingest-adaptive":
                    workloads.write_event_log(cfg.data, seed)
            cfg = dataclasses.replace(cfg, seed=seed, out=run_dir, timing="zero")
            final = pipeline.run_simulate(cfg).reports[-1]
            print(f"{stream} seed {seed}: dev_p10 {final.dev_p10:.4f} cum_bytes {final.cum_bytes}", flush=True)

    manifest = {"src": src, "streams": streams, "seeds": seeds, "runs": survey(args.out, run_dirs)}
    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    return 0


def load_runs(out: str) -> dict:
    """``out``'s runs surveyed from disk, in the order its manifest lists."""
    try:
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            run_dirs = list(json.load(fh)["runs"])
        return survey(out, run_dirs)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        raise SystemExit(f"gate: {out}: not a gate output ({type(exc).__name__}: {exc})") from None


def _iqr(xs: list[float]) -> float:
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def _first(names: list[str]) -> str:
    more = f", and {len(names) - FIRST_DIFFS} more" if len(names) > FIRST_DIFFS else ""
    return ", ".join(names[:FIRST_DIFFS]) + more


def compare(args) -> int:
    base, new = load_runs(args.base), load_runs(args.new)
    if list(base) != list(new):
        print(f"gate: the outputs hold different runs: {', '.join(base)} against {', '.join(new)}")
        return 1
    fb, fn = ({f: tuple(v) for r in side.values() for f, v in r["files"].items()} for side in (base, new))
    names = sorted(fb.keys() | fn.keys())
    differ = [f for f in names if fb.get(f) != fn.get(f)]
    if differ:
        print(f"files: {len(differ)} of {len(names)} differ: {_first(differ)}")
    else:
        print(f"files: all {len(names)} byte-identical")

    def size(files, f):
        return files[f][1] if f in files else "missing"

    frames = [f for f in names if os.path.basename(os.path.dirname(f)) == "frames"]
    sizes = [f"{f} {size(fb, f)} -> {size(fn, f)}" for f in frames if size(fb, f) != size(fn, f)]
    if sizes:
        print(f"frame sizes: {len(sizes)} of {len(frames)} differ: {_first(sizes)}")
    else:
        print(f"frame sizes: all {len(frames)} equal")
    for stream in dict.fromkeys(os.path.dirname(rel) for rel in base):
        rels = [rel for rel in base if os.path.dirname(rel) == stream]
        b = [base[rel]["dev_p10"] for rel in rels]
        n = [new[rel]["dev_p10"] for rel in rels]
        pairs = " ".join(f"{os.path.basename(rel)[4:]}:{x:.4f}/{y:.4f}" for rel, x, y in zip(rels, b, n))
        print(f"{stream} dev_p10 per seed (base/new): {pairs}")
        print(f"{stream} dev_p10 median {statistics.median(b):.4f} -> {statistics.median(n):.4f}, "
              f"base IQR {_iqr(b):.4f}, paired median {statistics.median(y - x for x, y in zip(b, n)):+.4f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the streams of one source tree at timing = zero")
    p_run.add_argument("--src", required=True, help="a tree's src directory, which holds odup")
    p_run.add_argument("--out", required=True, help="directory for the runs and manifest.json")
    p_run.add_argument("--seeds", default="1-3", help="seeds as ranges, e.g. 1-3,5-10")
    p_run.add_argument("--streams", default=",".join(STREAMS), help=f"any of {', '.join(STREAMS)}")
    p_cmp = sub.add_parser("compare", help="compare two run outputs")
    p_cmp.add_argument("base")
    p_cmp.add_argument("new")
    args = parser.parse_args(argv)
    return run(args) if args.command == "run" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
