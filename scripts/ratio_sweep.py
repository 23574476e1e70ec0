"""Sweep the fixed update-compression ratio of the demo config (demo.cfg,
beside this script) and tabulate accuracy vs bytes.

The cloud model is trained once (its path does not depend on the ratio) and
replayed for each ratio; the runs are aggregated with the report machinery.

Usage: python scripts/ratio_sweep.py [--out runs/sweep] [--seed 7]
       [--ratios 2,5,10,20,100]
"""

import argparse
import dataclasses
import os
import warnings

from odup.numkit import Rng
from odup.pipeline import cloud_trajectory, load_config, prepare_data, replay, run_report

DEMO_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "demo.cfg")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/sweep")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--ratios", default="2,5,10,20,100")
    args = parser.parse_args()

    ratios = [float(r) for r in args.ratios.split(",")]
    base = dataclasses.replace(load_config(DEMO_CONFIG), seed=args.seed)
    run_dirs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        data = prepare_data(base, Rng(base.seed))
        trajectory = list(cloud_trajectory(base, data))
        for r in ratios:
            out = os.path.join(args.out, f"r{r:g}")
            reports = replay(dataclasses.replace(base, r=r), data, trajectory, out).reports
            final = reports[-1]
            print(f"r={r:g}: beta={reports[1].beta} cum_bytes={final.cum_bytes} "
                  f"device P@10={final.dev_p10:.4f}")
            run_dirs.append(out)

    print()
    print(run_report(run_dirs, os.path.join(args.out, "aggregate")))
    print(f"\ntables in {os.path.join(args.out, 'aggregate')}")


if __name__ == "__main__":
    main()
