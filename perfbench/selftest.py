#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

Runs every workload, untraced and traced, at sizes that take seconds
(acceptance criterion 6's V=120, d=8, n=4, k=8 for the simulate workloads),
and shows that every metric name is emitted with no failed operation. Then
injects faults into a tiny simulation's outputs (a tampered frame, a
mutated frozen row, a diverged ledger) and into a device table, and shows
that each is counted as a failure.

    python3 perfbench/selftest.py      # exit 0 when every check passes
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import sys

import run

PROBLEMS: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}")
    if not ok:
        PROBLEMS.append(what)


def tiny_config(workload: str, seed: int, work_dir: str):
    from odup.pipeline import ExperimentConfig

    common = dict(d=8, n=4, k=8, codec_batch=64, seed=seed, timing="wall",
                  out=os.path.join(work_dir, "sim"))
    if workload == "c4-queue":
        return ExperimentConfig(
            data="synth", slices="1:1:1:1:1", synth_vocab=120, synth_sessions=800,
            synth_drift=0.3, synth_clusters=6, rec_epochs=4, codec_epochs=40,
            strategy="queue", r=4.0, mmd_samples=0, **common)
    return ExperimentConfig(
        data=os.path.join(work_dir, "events.tsv"), rec_epochs=2, codec_epochs=10,
        strategy="stack", ratio_mode="adaptive", mmd_samples=64, **common)


def shrink(workloads) -> None:
    """Tiny sizes; the workload functions read these module globals per call."""
    workloads.simulate_config = tiny_config
    workloads.SETUP_REPEATS = 1
    workloads.REPLAY_SAMPLES = 40
    workloads.STREAM_FRAMES = 40
    workloads.PROBE_EVERY = 10
    workloads.CHECK_ITEMS = 16
    workloads.DEPLOY_REPEATS = 1
    workloads.LOG_VOCAB, workloads.LOG_SESSIONS = 150, 800
    workloads.STREAM_V = 300


def check_metrics(workloads, work_dir: str) -> None:
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            res = workloads.run_workload(workload, 3, trace, run.ROOT, work_dir)
            names = workloads.PER_LAYER if trace else {**workloads.END_TO_END, **workloads.UNGATED}
            missing = sorted(set(names) - set(res.metrics))
            label = f"{workload} trace={int(trace)}"
            expect(not missing, f"{label}: every metric emitted {missing or ''}")
            expect(res.attempted >= 1 and res.failed == 0,
                   f"{label}: {res.failed}/{res.attempted} operations failed {res.notes[:3]}")
            if not trace:
                zero = [n for n in names if not (res.metrics.get(n) or 0) > 0]
                expect(not zero, f"{label}: end-to-end metrics positive {zero or ''}")
            else:
                total = sum(v for n, v in res.metrics.items() if n.endswith(".self_s"))
                expect(math.isclose(total, res.metrics["trace.run_s"], rel_tol=1e-9),
                       f"{label}: layer self times add up to trace.run_s")
                if workload == "device-stream":
                    m = res.metrics
                    expect(m["wire.probes"] > 0 and m["wire.rejected"] == 3 * m["wire.probes"] / 4,
                           f"{label}: every tampered probe frame rejected")
                    expect(m["wire.dims_mismatch_accepted"] + m["wire.rejected"] == m["wire.probes"],
                           f"{label}: vocabulary-mismatch probes counted "
                           f"(accepted {m['wire.dims_mismatch_accepted']:g})")


def check_faults(workloads, checks, work_dir: str) -> None:
    import numpy as np

    from odup import pipeline, wire
    from odup.numkit import Rng
    from odup.updater import SlotLedger

    cfg = tiny_config("c4-queue", 5, work_dir)
    data = pipeline.prepare_data(cfg, Rng(cfg.seed))
    with checks.ServerTap() as tap:
        result = pipeline.run_simulate(cfg)
    frames = workloads.read_frames(os.path.join(cfg.out, "frames"))

    def failed_rounds(res=result, tp=tap, fr=frames):
        return [i + 1 for i, errs in enumerate(checks.check_simulation(cfg, res, tp, data, fr)) if errs]

    expect(failed_rounds() == [], "clean tiny simulation passes every per-round check")

    bad = bytearray(frames[3])
    bad[40] ^= 0x10
    expect(3 in failed_rounds(fr={**frames, 3: bytes(bad)}), "tampered frame counted as a failure")

    prev, slots, after = tap.updates[1]
    frozen = next(r for r in range(after.rows.shape[0]) if r not in slots)
    mutated = dataclasses.replace(after, rows=after.rows.copy())
    mutated.rows[frozen, 0] = np.nextafter(mutated.rows[frozen, 0], np.inf)
    tampered_tap = checks.ServerTap()
    tampered_tap.deploy_store = tap.deploy_store
    tampered_tap.updates = [tap.updates[0], (prev, slots, mutated), *tap.updates[2:]]
    expect(3 in failed_rounds(tp=tampered_tap), "mutated frozen row counted as a failure")

    state = result.rounds[3]
    seqs = list(state.device_ledger.seqs)
    seqs[0] += 1000
    diverged = dataclasses.replace(state, device_ledger=SlotLedger(
        list(state.device_ledger.epochs), seqs, state.device_ledger.current_epoch))
    rounds = [*result.rounds[:3], diverged, *result.rounds[4:]]
    expect(4 in failed_rounds(res=dataclasses.replace(result, rounds=rounds)),
           "diverged ledger counted as a failure")

    store = tap.updates[-1][2]
    codes = wire.decode_delta(frames[max(frames)]).codes
    table = checks.reconstruct_table(checks.narrowed(store), codes)
    expect(not checks.check_device_table(table, store, codes), "device table check holds on a true table")
    table[7] = np.nextafter(table[7], -np.inf)
    expect(bool(checks.check_device_table(table, store, codes)), "one-ulp device table change detected")


def main() -> int:
    if not run.bootstrap():
        return 2
    import checks
    import workloads

    shrink(workloads)
    work_dir = os.path.join(run.ROOT, ".bench_out", f"selftest-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        check_metrics(workloads, work_dir)
        check_faults(workloads, checks, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"{len(PROBLEMS)} problem(s)" if PROBLEMS else "benchmark self-test passed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
