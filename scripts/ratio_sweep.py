"""Sweep the fixed update-compression ratio of the demo config (demo.cfg,
beside this script) and tabulate accuracy vs bytes.

The cloud model is trained once (its path does not depend on the ratio) and
replayed for each ratio into <out>/r<ratio>; the runs are aggregated with
the report machinery. Every ratio's config, and that no two ratios share a
directory, is checked before any data is prepared; errors end in odup's exit
codes (2 for a bad argument).

Usage: python scripts/ratio_sweep.py [--out runs/sweep] [--seed 7]
       [--ratios 2,5,10,20,100]
"""

import argparse
import dataclasses
import os

from odup.cli import run_guarded
from odup.errors import ConfigError
from odup.numkit import Rng
from odup.pipeline import cloud_trajectory, load_config, prepare_data, replay, run_report

DEMO_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "demo.cfg")


def sweep(args) -> int:
    try:
        ratios = [float(r) for r in args.ratios.split(",")]
    except ValueError:
        raise ConfigError(f"--ratios must be comma-separated numbers, got {args.ratios!r}") from None
    base = dataclasses.replace(load_config(DEMO_CONFIG), seed=args.seed)
    arms = [dataclasses.replace(base, r=r, out=os.path.join(args.out, f"r{r:g}")) for r in ratios]
    run_dirs = [cfg.out for cfg in arms]
    for out in run_dirs:
        if run_dirs.count(out) > 1:
            raise ConfigError(f"two ratios write to {out}; --ratios must name each ratio once")
    data = prepare_data(base, Rng(base.seed))
    trajectory = list(cloud_trajectory(base, data))
    for cfg in arms:
        reports = replay(cfg, data, trajectory).reports
        final = reports[-1]
        print(f"r={cfg.r:g}: beta={reports[1].beta} cum_bytes={final.cum_bytes} "
              f"device P@10={final.dev_p10:.4f}")

    print()
    print(run_report(run_dirs, os.path.join(args.out, "aggregate")))
    print(f"\ntables in {os.path.join(args.out, 'aggregate')}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/sweep")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ratios", default="2,5,10,20,100")
    return run_guarded(sweep, parser.parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
