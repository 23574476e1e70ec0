"""The benchmark's three workloads.

``c4-queue`` and ``ingest-adaptive`` each run ``odup.pipeline.run_simulate``
once, unmodified, with ``timing = wall``; ``device-stream`` drives the
server-side planner and encoder and a ``DeviceSim`` through a stream of
delta frames with no training. Every workload returns a ``Result`` holding
its end-to-end metrics (untraced run) or its per-layer metrics (traced
run), and the number of operations attempted and failed. Operations are
rounds in the simulate workloads and frames in ``device-stream``.
"""

from __future__ import annotations

import contextlib
import copy
import math
import os
import resource
import statistics
import struct
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from odup import pipeline, wire
from odup.codec import CodebookStore, reconstruct_table
from odup.errors import FrameError, ProtocolError, StaleDeltaError
from odup.numkit import Rng
from odup.pipeline import ExperimentConfig, run_simulate
from odup.sessions import SlicePlan, synth_generate
from odup.updater import SlotLedger, UpdateDelta, advance_ledger

from checks import (
    ServerTap, check_device_table, check_frame_size, check_frozen_rows, check_ledgers,
    check_simulation,
)
from spans import LAYERS, Tracer

WORKLOADS = ("c4-queue", "ingest-adaptive", "device-stream")

SETUP_REPEATS = 5       # set-ups per run; setup_s is their median
REPLAY_SAMPLES = 1000   # encode/apply samples per simulate run (enough for a p99) ...
REPLAY_MIN_S = 2.0      # ... taken over at least this many seconds
STREAM_FRAMES = 1000    # device-stream frames per run
PROBE_EVERY = 50        # device-stream also sends tampered copies of every 50th frame
CHECK_ITEMS = 256       # device-stream rows compared bit for bit after every frame
DEPLOY_REPEATS = 9      # device-stream full deploys timed for deploy_s
LOG_VOCAB, LOG_SESSIONS = 2000, 12000  # ingest-adaptive event log; ~1.9k items occur

# device-stream sizes: the deployment the stream updates
STREAM_V, STREAM_D, STREAM_N, STREAM_K, STREAM_BETA, STREAM_CHURN = 20000, 32, 8, 16, 12, 0.25

END_TO_END = {  # name -> unit; gated by the bounds in BENCHMARK.json
    "setup_s": "s", "run_s": "s", "update_round_s": "s",
    "bytes_per_round": "B", "cum_bytes": "B", "peak_rss_mb": "MiB",
}

# End-to-end metrics printed with every run but carried, ungated, among the
# per-layer metrics, because across seeds they spread wider than the largest
# bound a metric may have (0.25). Accuracy moves with the synthetic world a
# seed draws: ingest-adaptive's retention IQR is about half its median. The
# per-operation timings are sub-millisecond on the simulate workloads, and
# their per-run medians moved by up to 1.8x between runs on the same machine.
# deploy_s is one round of one run (IQR 16% of the median on ingest-adaptive).
UNGATED = {
    "deploy_s": "s", "dev_p10": "ratio", "p10_retention": "ratio", "p10_per_kb": "1/KiB",
    "encode_ms_p50": "ms", "apply_ms_p50": "ms", "apply_ms_p99": "ms", "frames_per_s": "1/s",
}

PER_LAYER = {
    "sessions.prepare_s": "s", "sessions.pairs": "count", "sessions.prefix_items": "count",
    "recommender.train_s": "s", "recommender.train_pairs_per_s": "1/s",
    "recommender.evaluate_s": "s", "recommender.eval_pairs": "count",
    "codec.step_s": "s", "codec.loss_monitor_s": "s", "codec.loss_monitor_calls": "count",
    "codec.rows_per_s": "1/s", "codec.harden_s": "s", "codec.recon_relmse": "ratio",
    "codec.reconstruct_table_s": "s",
    "updater.retrain_update_s": "s", "updater.retrain_update_self_s": "s",
    "updater.plan_slots_s": "s", "updater.apply_delta_s": "s", "updater.beta": "count",
    "adaptive.mmd2_s": "s", "adaptive.mmd": "ratio", "adaptive.r": "ratio",
    "adaptive.skipped_rounds": "count",
    "wire.encode_s": "s", "wire.decode_s": "s",
    "wire.header_bytes": "B", "wire.codes_bytes": "B", "wire.slots_bytes": "B",
    "wire.rows_bytes": "B", "wire.crc_bytes": "B",
    "wire.probes": "count", "wire.rejected": "count", "wire.dims_mismatch_accepted": "count",
    "pipeline.receive_s": "s", "pipeline.code_churn_items": "ratio",
    "pipeline.code_churn_components": "ratio",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.run_s": "s",
    **UNGATED,
}


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)   # failure messages, for the log
    spans: list[dict] = field(default_factory=list)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p99(samples) -> float:
    """Nearest-rank 99th percentile; with n >= 1000 samples ten or more lie above it."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def median_setup(workload: str, seed: int, root: str, work_dir: str) -> float:
    """Median of SETUP_REPEATS set-ups, each in a fresh interpreter so that
    importing the program is part of what is timed."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--work-dir", work_dir]
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_work(workload: str, seed: int, work_dir: str) -> float:
    """The timed part of one set-up after the import: data preparation for
    the simulate workloads, the initial full deploy for device-stream."""
    if workload == "device-stream":
        server = StreamServer(seed)
        t0 = time.perf_counter()
        server.deploy()
        return time.perf_counter() - t0
    cfg = simulate_config(workload, seed, work_dir)
    t0 = time.perf_counter()
    pipeline.prepare_data(cfg, Rng(cfg.seed))
    return time.perf_counter() - t0


# ---- frame anatomy ---------------------------------------------------------

def frame_sections(frame: bytes) -> dict[str, int]:
    """Bytes per frame section, read from the frame's own header."""
    _, _, _, _, vocab, n, k, d, beta = struct.unpack_from(wire._HEADER, frame, 0)
    return {
        "header": wire.HEADER_LEN,
        "codes": wire.packed_code_bytes(vocab, n, k),
        "slots": 4 * beta,
        "rows": 4 * beta * d,
        "crc": 4,
    }


class FrameStats:
    """Mean section bytes over the delta frames, and mean code churn: the
    share of items and of code components that differ from the codes of
    the frame before. The first frame added is the deployment."""

    SECTIONS = ("header", "codes", "slots", "rows", "crc")

    def __init__(self):
        self.deltas = 0
        self.sums = dict.fromkeys(self.SECTIONS, 0)
        self.churn_items = self.churn_components = 0.0
        self.prev_codes: np.ndarray | None = None

    def add(self, frame: bytes, codes: np.ndarray) -> None:
        if self.prev_codes is not None:
            self.deltas += 1
            for name, size in frame_sections(frame).items():
                self.sums[name] += size
            changed = self.prev_codes != codes
            self.churn_items += changed.any(axis=1).mean()
            self.churn_components += changed.mean()
        self.prev_codes = codes

    def metrics(self) -> dict[str, float]:
        per = 1.0 / self.deltas if self.deltas else 0.0
        out = {f"wire.{name}_bytes": total * per for name, total in self.sums.items()}
        out["pipeline.code_churn_items"] = self.churn_items * per
        out["pipeline.code_churn_components"] = self.churn_components * per
        return out


def layer_metrics(tracer: Tracer, run_s: float, counts: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from the spans plus the counts observed beside them.

    ``<layer>.self_s`` sums the self time of that layer's spans; the
    pipeline layer also owns run time no span covers, so the layer self
    times add up to the traced run_s.
    """
    m = {name: 0.0 for name in PER_LAYER}
    m.update({k: v for k, v in counts.items() if k in PER_LAYER})
    train_s = tracer.total("recommender.train")
    step_s = tracer.self_time("codec.train_codec")
    m.update({
        "sessions.prepare_s": tracer.total("sessions.prepare_data"),
        "recommender.train_s": train_s,
        "recommender.train_pairs_per_s": counts.get("pair_epochs", 0) / train_s if train_s else 0.0,
        "recommender.evaluate_s": tracer.total("recommender.evaluate"),
        "codec.step_s": step_s,
        "codec.loss_monitor_s": tracer.total("codec.relaxed_loss"),
        "codec.loss_monitor_calls": tracer.count("codec.relaxed_loss"),
        "codec.rows_per_s": counts.get("codec_rows", 0) / step_s if step_s else 0.0,
        "codec.harden_s": tracer.total("codec.harden"),
        "codec.reconstruct_table_s": tracer.total("codec.reconstruct_table"),
        "updater.retrain_update_s": tracer.total("updater.retrain_update"),
        "updater.retrain_update_self_s": tracer.self_time("updater.retrain_update"),
        "updater.plan_slots_s": tracer.total("updater.plan_slots"),
        "updater.apply_delta_s": tracer.total("updater.apply_delta"),
        "adaptive.mmd2_s": tracer.total("adaptive.mmd2"),
        "wire.encode_s": tracer.total("wire.encode_delta"),
        "wire.decode_s": tracer.total("wire.decode_delta"),
        "pipeline.receive_s": tracer.total("pipeline.receive"),
        "trace.run_s": run_s,
    })
    spanned = 0.0
    for layer in LAYERS:
        if layer != "pipeline":
            m[f"{layer}.self_s"] = tracer.layer_self(layer)
            spanned += m[f"{layer}.self_s"]
    m["pipeline.self_s"] = run_s - spanned
    return m


def accuracy(dev_p10: float, cloud_p10: float, cum_bytes: int) -> dict[str, float]:
    return {
        "dev_p10": dev_p10,
        "p10_retention": dev_p10 / cloud_p10 if cloud_p10 else 0.0,
        "p10_per_kb": dev_p10 / (cum_bytes / 1024.0),
    }


def op_timings(encode_s: list[float], apply_s: list[float]) -> dict[str, float]:
    """Server encode and device apply per frame, in ms, and frames per
    second of their summed time."""
    if not apply_s:
        return dict.fromkeys(("encode_ms_p50", "apply_ms_p50", "apply_ms_p99", "frames_per_s"), 0.0)
    return {
        "encode_ms_p50": statistics.median(encode_s) * 1e3,
        "apply_ms_p50": statistics.median(apply_s) * 1e3,
        "apply_ms_p99": p99(apply_s) * 1e3,
        "frames_per_s": len(apply_s) / (sum(encode_s) + sum(apply_s)),
    }


def relmse(device_table: np.ndarray, cloud_table: np.ndarray) -> float:
    return float(np.sum((device_table - cloud_table) ** 2) / np.sum(cloud_table ** 2))


# ---- the simulate workloads ------------------------------------------------

def simulate_config(workload: str, seed: int, work_dir: str) -> ExperimentConfig:
    out = os.path.join(work_dir, "sim")
    if workload == "c4-queue":
        # acceptance criterion 4, queue arm
        return ExperimentConfig(
            data="synth", slices="2:1:1:1:1", synth_vocab=300, synth_sessions=3000,
            synth_drift=0.25, synth_clusters=6, d=16, rec_epochs=20, l2=1e-4, tau=0.2,
            n=8, k=16, codec_epochs=300, codec_batch=256, strategy="queue", r=10.0,
            mmd_samples=0, seed=seed, timing="wall", out=out,
        )
    if workload == "ingest-adaptive":
        return ExperimentConfig(
            data=os.path.join(work_dir, "events.tsv"), d=32, n=8, k=16, rec_epochs=4,
            codec_epochs=40, strategy="stack", ratio_mode="adaptive", mmd_samples=512,
            seed=seed, timing="wall", out=out,
        )
    raise ValueError(f"not a simulate workload: {workload}")


def write_event_log(path: str, seed: int) -> None:
    """LOG_SESSIONS drifting sessions over a LOG_VOCAB-item generator
    vocabulary, one user per session, as ``user<TAB>item<TAB>seconds`` lines."""
    plan = SlicePlan.from_ratios([1, 3, 6, 10, 15])
    res = synth_generate(Rng(seed).child("bench-event-log"), LOG_VOCAB, LOG_SESSIONS, 0.3, plan)
    with open(path, "w", encoding="utf-8") as fh:
        for i, sess in enumerate(res.sessions + res.test_sessions):
            for j, item in enumerate(sess.items):
                fh.write(f"u{i:06d}\ti{item:06d}\t{sess.start + j:.1f}\n")


def read_frames(frames_dir: str) -> dict[int, bytes]:
    frames = {}
    for name in sorted(os.listdir(frames_dir)):
        if name.startswith("round_") and name.endswith(".odup"):
            with open(os.path.join(frames_dir, name), "rb") as fh:
                frames[int(name[6:-5])] = fh.read()
    return frames


def replay_timings(cfg: ExperimentConfig, result, frames: dict[int, bytes]):
    """Re-run each delta round's server plan + encode and device receive
    until REPLAY_SAMPLES samples over REPLAY_MIN_S seconds exist. The device
    side replays the saved frames into fresh DeviceSims; re-encoding must
    give the saved bytes."""
    deltas = [(t, frames[t]) for t in sorted(frames) if t > 1]
    if not deltas:
        return [], [], ["no delta frame shipped"]
    ledger_after = {s.report.slice: s.server_ledger for s in result.rounds}
    decoded = {t: wire.decode_delta(f) for t, f in deltas}
    vocab = decoded[deltas[0][0]].codes.shape[0]
    clock = time.perf_counter
    encode_s, apply_s, errs = [], [], []
    until = clock() + REPLAY_MIN_S
    while len(apply_s) < REPLAY_SAMPLES or clock() < until:
        device = pipeline.DeviceSim(cfg.strategy, cfg.encoder, 0.5)
        device.receive(frames[1])
        for t, frame in deltas:
            prev, d = ledger_after[t - 1], decoded[t]
            t0 = clock()
            slots = pipeline.plan_slots(prev, d.strategy, d.beta)
            advance_ledger(prev, d.strategy, slots, d.epoch)
            again = wire.encode_delta(
                UpdateDelta(d.epoch, d.strategy, d.beta, d.new_rows, d.codes, slots),
                vocab=vocab, d=cfg.d, n=cfg.n, k=cfg.k,
            )
            t1 = clock()
            device.receive(frame)
            t2 = clock()
            encode_s.append(t1 - t0)
            apply_s.append(t2 - t1)
            if again != frame:
                errs.append(f"round {t}: re-encoded frame differs from the shipped frame")
    return encode_s, apply_s, sorted(set(errs))


def run_simulate_workload(workload: str, seed: int, trace: bool, root: str, work_dir: str) -> Result:
    cfg = simulate_config(workload, seed, work_dir)
    if workload == "ingest-adaptive":
        write_event_log(cfg.data, seed)
    setup_s = None if trace else median_setup(workload, seed, root, work_dir)
    data = pipeline.prepare_data(cfg, Rng(cfg.seed))
    n_rounds = len(cfg.slice_plan().fractions)

    counts: dict[str, float] = {"pair_epochs": 0, "codec_rows": 0, "recommender.eval_pairs": 0}
    last = {}

    def on_prepare(args, kwargs, bundle):
        counts["sessions.pairs"] = sum(len(ds.pairs) for ds in bundle.slices)
        counts["sessions.prefix_items"] = sum(len(p) for ds in bundle.slices for p, _ in ds.pairs)

    def on_train(args, kwargs, _):
        model, ds, tcfg = args
        counts["pair_epochs"] += len(ds) * tcfg.epochs
        last["model"] = model

    def on_evaluate(args, kwargs, _):
        counts["recommender.eval_pairs"] += len(args[1])

    def on_train_codec(args, kwargs, _):
        counts["codec_rows"] += args[0].shape[0] * args[1].epochs

    def on_receive(args, kwargs, _):
        last["device_table"] = args[0].table

    tracer = Tracer({
        "sessions.prepare_data": on_prepare, "recommender.train": on_train,
        "recommender.evaluate": on_evaluate, "codec.train_codec": on_train_codec,
        "pipeline.receive": on_receive,
    }, round_marker="recommender.train")

    try:
        with tracer if trace else contextlib.nullcontext(), ServerTap() as tap:
            t0 = time.perf_counter()
            result = run_simulate(cfg)
            run_s = time.perf_counter() - t0
    except Exception as exc:  # any raise fails every round; report it and stop
        return Result({}, n_rounds, n_rounds, [f"run_simulate raised {type(exc).__name__}: {exc}"])

    frames = read_frames(os.path.join(cfg.out, "frames"))
    round_errs = check_simulation(cfg, result, tap, data, frames)
    encode_s, apply_s, replay_errs = replay_timings(cfg, result, frames)
    if replay_errs:
        round_errs[-1] += replay_errs
    notes = [f"round {i + 1}: {e}" for i, errs in enumerate(round_errs) for e in errs]
    failed = sum(1 for errs in round_errs if errs)
    reps = result.reports
    final = reps[-1]
    counts.update(accuracy(final.dev_p10, final.cloud_p10, final.cum_bytes))
    counts.update(op_timings(encode_s, apply_s), deploy_s=reps[0].secs)

    if trace:
        shipped = [r for r in reps[1:] if r.delta_bytes > 0]
        stats = FrameStats()
        for t in sorted(frames):
            stats.add(frames[t], wire.decode_delta(frames[t]).codes)
        counts.update(stats.metrics())
        counts.update({
            "updater.beta": statistics.mean(r.beta for r in shipped) if shipped else 0.0,
            "adaptive.mmd": statistics.mean(r.mmd for r in reps[1:]),
            "adaptive.r": statistics.mean(r.r for r in shipped) if shipped else 0.0,
            "adaptive.skipped_rounds": len(reps) - 1 - len(shipped),
            "codec.recon_relmse": relmse(last["device_table"], last["model"].embeddings),
        })
        return Result(layer_metrics(tracer, run_s, counts), len(reps), failed, notes,
                      tracer.records())

    metrics = {
        **counts,
        "setup_s": setup_s,
        "run_s": run_s,
        "update_round_s": statistics.median(r.secs for r in reps[1:]),
        "bytes_per_round": statistics.mean(r.delta_bytes for r in reps[1:]),
        "cum_bytes": final.cum_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }
    return Result(metrics, len(reps), failed, notes)


# ---- device-stream -----------------------------------------------------------

class StreamServer:
    """The server side of device-stream: a random store and codes at the
    stream sizes, and per frame the next codes (about STREAM_CHURN of the
    components redrawn) and STREAM_BETA new rows. Inputs depend only on
    the seed; producing them is never timed."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 0x0D0B])
        nk = STREAM_N * STREAM_K
        self.store = CodebookStore(STREAM_N, STREAM_K, STREAM_D,
                                   self.rng.normal(0.0, 0.1, (nk, STREAM_D)))
        self.codes = self.rng.integers(0, STREAM_K, (STREAM_V, STREAM_N)).astype(np.int32)
        self.ledger = SlotLedger.fresh(nk, epoch=1)

    def encode(self, delta: UpdateDelta, vocab: int | None = None) -> bytes:
        return wire.encode_delta(delta, vocab=vocab or STREAM_V, d=STREAM_D, n=STREAM_N, k=STREAM_K)

    def deploy(self) -> tuple[pipeline.DeviceSim, bytes]:
        nk = STREAM_N * STREAM_K
        frame = self.encode(UpdateDelta(1, "full", nk, self.store.rows.copy(), self.codes,
                                        list(range(nk))))
        device = pipeline.DeviceSim("queue", "mean_pool", 0.5)
        device.receive(frame)
        return device, frame

    def next_inputs(self) -> tuple[np.ndarray, np.ndarray]:
        codes = self.codes.copy()
        redraw = self.rng.random(codes.shape) < STREAM_CHURN
        codes[redraw] = self.rng.integers(0, STREAM_K, int(redraw.sum()))
        return codes, self.rng.normal(0.0, 0.1, (STREAM_BETA, STREAM_D))

    def next_frame(self, codes: np.ndarray, rows: np.ndarray) -> tuple[bytes, list[int]]:
        """Server plan + ledger advance + encode: the timed server operation."""
        slots = pipeline.plan_slots(self.ledger, "queue", STREAM_BETA)
        epoch = self.ledger.current_epoch + 1
        self.ledger = advance_ledger(self.ledger, "queue", slots, epoch)
        frame = self.encode(UpdateDelta(epoch, "queue", STREAM_BETA, rows, codes, slots))
        return frame, slots

    def commit(self, codes: np.ndarray, rows: np.ndarray, slots: list[int]) -> None:
        self.store.rows[slots] = rows
        self.codes = codes


def top10_agreement(device_table: np.ndarray, cloud_table: np.ndarray, queries: np.ndarray) -> float:
    """Mean share of each query item's top-10 dot-product neighbours on the
    device that are also in its top-10 on the server's float64 table."""
    def top10(table):
        scores = table[queries] @ table.T
        return np.argpartition(-scores, 10, axis=1)[:, :10]

    dev, cloud = top10(device_table), top10(cloud_table)
    return float(np.mean([len(set(a) & set(b)) / 10.0 for a, b in zip(dev, cloud)]))


def probe(device, server: StreamServer, frame: bytes, rng: np.random.Generator):
    """Send tampered copies of the frame just applied, plus one valid frame
    whose header vocabulary differs from the deployment.

    Returns (probes, rejected, dims_mismatch_accepted, errors). A tampered
    frame must raise FrameError(crc|size) or StaleDeltaError and leave the
    device untouched; anything else is an error of this frame.
    """
    store0, ledger0, table0 = device.store, copy.deepcopy(device.ledger), device.table

    def unchanged() -> bool:
        return device.store is store0 and device.table is table0 and device.ledger == ledger0

    flipped = bytearray(frame)
    bit = int(rng.integers(8 * wire.HEADER_LEN, 8 * (len(frame) - 4)))
    flipped[bit // 8] ^= 1 << (bit % 8)
    tampered = (("bit flip", bytes(flipped), FrameError, ("crc",)),
                ("truncated", frame[:-int(rng.integers(1, 64))], FrameError, ("size",)),
                ("replayed epoch", frame, StaleDeltaError, None))
    rejected, errs = 0, []
    for label, bad, expected, allowed in tampered:
        try:
            device.receive(bad)
            errs.append(f"{label} frame was accepted")
        except expected as exc:
            if allowed is not None and exc.check not in allowed:
                errs.append(f"{label} frame failed the {exc.check} check")
            else:
                rejected += 1
        except ProtocolError as exc:
            errs.append(f"{label} frame raised {type(exc).__name__}")
        if not unchanged():
            errs.append(f"{label} frame changed device state")

    # a frame valid in every byte whose header vocabulary is not the deployment's
    vocab = STREAM_V + 7
    slots = pipeline.plan_slots(device.ledger, "queue", STREAM_BETA)
    odd = server.encode(UpdateDelta(
        device.epoch + 1, "queue", STREAM_BETA, rng.normal(0.0, 0.1, (STREAM_BETA, STREAM_D)),
        rng.integers(0, STREAM_K, (vocab, STREAM_N)).astype(np.int32), slots,
    ), vocab=vocab)
    accepted = 0
    try:
        copy.copy(device).receive(odd)
        accepted = 1
    except ProtocolError:
        rejected += 1
    return len(tampered) + 1, rejected, accepted, errs


def run_device_stream(seed: int, trace: bool, root: str, work_dir: str) -> Result:
    setup_s = None if trace else median_setup("device-stream", seed, root, work_dir)
    clock = time.perf_counter
    deploy_s = []
    for _ in range(1 if trace else DEPLOY_REPEATS):
        server = StreamServer(seed)
        t0 = clock()
        device, deploy_frame = server.deploy()
        deploy_s.append(clock() - t0)

    check_rng = np.random.default_rng([seed, 0xC4EC])
    probe_rng = np.random.default_rng([seed, 0x9B0E])
    stats = FrameStats()
    stats.add(deploy_frame, server.codes)
    counts = {"wire.probes": 0, "wire.rejected": 0, "wire.dims_mismatch_accepted": 0}
    encode_s, apply_s, notes = [], [], []
    failed, cum_bytes = 0, len(deploy_frame)

    tracer = Tracer()
    with tracer if trace else contextlib.nullcontext():
        for i in range(STREAM_FRAMES):
            codes, rows = server.next_inputs()
            tracer.round_id = i + 1
            t0 = clock()
            frame, slots = server.next_frame(codes, rows)
            t1 = clock()
            store_before = device.store
            delta = device.receive(frame)
            t2 = clock()
            encode_s.append(t1 - t0)
            apply_s.append(t2 - t1)
            cum_bytes += len(frame)

            tracer.paused = True
            server.commit(codes, rows, slots)
            stats.add(frame, delta.codes)
            errs = check_ledgers(server.ledger, device.ledger)
            errs += check_frame_size(frame, STREAM_V, STREAM_N, STREAM_K, STREAM_D, STREAM_BETA)
            errs += check_frozen_rows(store_before.rows, device.store.rows, slots)
            if not np.array_equal(delta.codes, codes):
                errs.append("decoded codes differ from the encoded codes")
            items = check_rng.choice(STREAM_V, CHECK_ITEMS, replace=False)
            errs += check_device_table(device.table, server.store, codes, items)
            if (i + 1) % PROBE_EVERY == 0:
                sent, rejected, accepted, probe_errs = probe(device, server, frame, probe_rng)
                counts["wire.probes"] += sent
                counts["wire.rejected"] += rejected
                counts["wire.dims_mismatch_accepted"] += accepted
                errs += probe_errs
            tracer.paused = False
            if errs:
                failed += 1
                notes += [f"frame {i + 1}: {e}" for e in errs]

    final_errs = check_device_table(device.table, server.store, server.codes)
    if final_errs:
        failed += 1
        notes += [f"final table: {e}" for e in final_errs]
    cloud_table = reconstruct_table(server.store, server.codes)
    queries = check_rng.choice(STREAM_V, 256, replace=False)
    # the server's top-10 agrees with itself, so its P@10 is 1
    counts.update(accuracy(top10_agreement(device.table, cloud_table, queries), 1.0, cum_bytes))
    counts.update(op_timings(encode_s, apply_s), deploy_s=statistics.median(deploy_s))
    run_s = sum(encode_s) + sum(apply_s)

    if trace:
        counts.update(stats.metrics())
        counts["updater.beta"] = STREAM_BETA
        counts["codec.recon_relmse"] = relmse(device.table, cloud_table)
        return Result(layer_metrics(tracer, run_s, counts), STREAM_FRAMES, failed, notes,
                      tracer.records())

    op_s = [e + a for e, a in zip(encode_s, apply_s)]
    metrics = {
        **counts,
        "setup_s": setup_s,
        "run_s": run_s,
        "update_round_s": statistics.median(op_s),
        "bytes_per_round": (cum_bytes - len(deploy_frame)) / STREAM_FRAMES,
        "cum_bytes": cum_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }
    return Result(metrics, STREAM_FRAMES, failed, notes)


def run_workload(workload: str, seed: int, trace: bool, root: str, work_dir: str) -> Result:
    if workload == "device-stream":
        return run_device_stream(seed, trace, root, work_dir)
    return run_simulate_workload(workload, seed, trace, root, work_dir)
