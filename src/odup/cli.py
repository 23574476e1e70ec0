"""Command-line entry point.

Subcommands: synth, simulate, report. Global flags --config, --seed,
--out override the config file. Exit codes: 0 success, 2 usage/config
error (out of memory included), 3 data error, 4 numeric divergence,
5 protocol divergence.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .errors import ConfigError, DataError, ProtocolError, TrainingDiverged
from .numkit import Rng
from .pipeline import ExperimentConfig, load_config, run_report, run_simulate, synth_data
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
    print(f"wrote {path}: {len(sessions)} sessions, {n_events} events, vocab {cfg.synth_vocab}")
    return 0


def _cmd_simulate(cfg: ExperimentConfig) -> int:
    for rep in run_simulate(cfg).reports:
        action = "deploy" if rep.slice == 1 else ("skip" if rep.delta_bytes == 0 else f"r={rep.r:g}")
        print(f"slice {rep.slice} [{action}]: mmd {rep.mmd:.6f} beta {rep.beta} "
              f"bytes {rep.delta_bytes} cum {rep.cum_bytes} "
              f"cloud P@10 {rep.cloud_p10:.4f} device P@10 {rep.dev_p10:.4f}")
    print(f"reports: {os.path.join(cfg.out, 'report.csv')}, {os.path.join(cfg.out, 'report.json')}")
    return 0


def run_guarded(command, *args) -> int:
    """``command(*args)``; a package error in EXIT_CODES is printed as one
    labelled line on stderr and becomes its exit code, and so does running
    out of memory, as a config error: the config asked for more than the
    machine holds."""
    try:
        return command(*args)
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"config error: out of memory{detail}", file=sys.stderr)
        return 2
    except tuple(kind for kind, _, _ in EXIT_CODES) as exc:
        for kind, code, label in EXIT_CODES:
            if isinstance(exc, kind):
                print(f"{label}: {exc}", file=sys.stderr)
                return code


def _run(args) -> int:
    cfg = _load(args)
    if args.command == "synth":
        return _cmd_synth(cfg)
    if args.command == "simulate":
        return _cmd_simulate(cfg)
    print(run_report(args.runs, cfg.out))  # "report"; argparse admits no other command
    return 0


def main(argv=None) -> int:
    return run_guarded(_run, _build_parser().parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
