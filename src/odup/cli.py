"""Command-line entry point.

Subcommands: synth, train, compress, simulate, report. Global flags
--config, --seed, --out override the config file. Exit codes: 0 success,
2 usage/config error, 3 data error, 4 numeric divergence, 5 protocol
divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import ConfigError, DataError, ProtocolError, TrainingDiverged
from .numkit import Rng
from .pipeline import (
    ExperimentConfig, load_config, run_compress, run_report, run_simulate, run_train, synth_data,
)
from .sessions import write_event_log

# package errors and the exit code and stderr label each one ends in
EXIT_CODES = (
    (ConfigError, 2, "config error"),
    (DataError, 3, "data error"),
    (TrainingDiverged, 4, "training diverged"),
    (ProtocolError, 5, "protocol error"),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="odup", description=__doc__)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="override the config output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("synth", help="write a synthetic event log (events.tsv)")
    sub.add_parser("train", help="train the cloud model per slice, saving checkpoints")
    p_compress = sub.add_parser(
        "compress", help="compress a table checkpoint into its deploy frame (model.odup)")
    p_compress.add_argument("--table", required=True, help="checkpoint path to compress")
    sub.add_parser("simulate", help="run the full cloud/device update loop")
    p_report = sub.add_parser("report", help="aggregate simulation reports")
    p_report.add_argument("runs", nargs="+", help="simulation output directories")
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out=args.out)
    return cfg


def _cmd_synth(cfg: ExperimentConfig) -> int:
    res = synth_data(cfg, Rng(cfg.seed))
    sessions = res.sessions + res.test_sessions
    path = os.path.join(cfg.out, "events.tsv")
    write_event_log(path, sessions)
    n_events = sum(len(s.items) for s in sessions)
    print(f"wrote {path}: {len(sessions)} sessions, {n_events} events, vocab {res.vocab_size}")
    return 0


def _cmd_train(cfg: ExperimentConfig) -> int:
    for meta in run_train(cfg):
        print(f"slice {meta['slice']}: loss {meta['final_loss']:.4f} "
              f"test Prec@10 {meta['test_p10']:.4f} NDCG@10 {meta['test_n10']:.4f}")
    print(f"checkpoints in {cfg.out}")
    return 0


def _cmd_compress(cfg: ExperimentConfig, table: str) -> int:
    info = run_compress(cfg, table)
    print(f"compressed {info['vocab']}x{info['d']} table with n={info['n']}, k={info['k']}")
    print(f"  element-count CR {info['cr_model_elements']:.2f} "
          f"(rounds to {round(info['cr_model_elements'])})")
    print(f"  wire bytes {info['compressed_file_bytes']} vs raw {info['raw_table_bytes']} "
          f"-> {info['cr_model_bytes']:.2f}x")
    print(f"  wrote {info['path']}")
    return 0


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    result = run_simulate(cfg)
    for rep in result.reports:
        action = "deploy" if rep.slice == 1 else ("skip" if rep.delta_bytes == 0 else f"r={rep.r:g}")
        print(f"slice {rep.slice} [{action}]: mmd {rep.mmd:.6f} beta {rep.beta} "
              f"bytes {rep.delta_bytes} cum {rep.cum_bytes} "
              f"cloud P@10 {rep.cloud_p10:.4f} device P@10 {rep.dev_p10:.4f}")
    print(f"reports: {result.csv_path}, {result.json_path}")
    return 0


def run_guarded(command, *args) -> int:
    """``command(*args)``; a package error in EXIT_CODES is printed as one
    labelled line on stderr and becomes its exit code."""
    try:
        return command(*args)
    except tuple(kind for kind, _, _ in EXIT_CODES) as exc:
        for kind, code, label in EXIT_CODES:
            if isinstance(exc, kind):
                print(f"{label}: {exc}", file=sys.stderr)
                return code


def _run(args) -> int:
    cfg = _load(args)
    if args.command == "synth":
        return _cmd_synth(cfg)
    if args.command == "train":
        return _cmd_train(cfg)
    if args.command == "compress":
        return _cmd_compress(cfg, args.table)
    if args.command == "simulate":
        return _cmd_simulate(cfg)
    print(run_report(args.runs, cfg.out))  # "report"; argparse admits no other command
    return 0


def main(argv=None) -> int:
    return run_guarded(_run, _build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
