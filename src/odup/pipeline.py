"""End-to-end experiment loop: per temporal slice, retrain the cloud model,
compress (or delta-compress) the embedding table, ship bytes through the
wire format, apply them on a simulated device, and evaluate both sides.

The device is modeled strictly behind the wire boundary: its table is only
ever reconstituted from decoded frames, never copied from server memory.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from dataclasses import dataclass

import numpy as np

from . import wire
from .adaptive import AdaptiveConfig, MmdConfig, mmd2, choose_ratio
from .codec import (
    CodecConfig, CodebookStore, CodecEncoder, harden, model_cr, reconstruct_table, train_codec,
)
from .errors import ConfigError, DataError, DimensionMismatch, ProtocolError
from .numkit import Rng
from .recommender import (
    RecModel, TrainConfig, evaluate, init_model, load_checkpoint, save_checkpoint, train,
)
from .sessions import (
    SlicePlan, SessionDataset, augment_split, filter_and_index, holdout_split,
    load_dataset_cache, read_event_log, save_dataset_cache, sessionize,
    synth_generate, temporal_slices,
)
from .updater import (
    SlotLedger, UpdateDelta, advance_ledger, apply_delta, beta_from_ratio,
    end_to_end_cr, plan_slots, retrain_update, update_cr,
)

CSV_COLUMNS = (
    "slice,strategy,r,beta,mmd,delta_bytes,cum_bytes,"
    "cloud_p5,cloud_n5,cloud_p10,cloud_n10,dev_p5,dev_n5,dev_p10,dev_n10,"
    "cr_model,cr_update,cr_total,secs"
)


@dataclass
class ExperimentConfig:
    """Mirrors the ``key = value`` config file; see README for key docs."""

    data: str = "synth"            # "synth" or a path to an event-log file
    delimiter: str = "\t"
    session_gap: float = 8 * 3600.0
    min_len: int = 2
    max_len: int = 50
    top_items: int = 0             # 0 keeps every item
    test_frac: float = 0.1
    slices: str = "1:3:6:10:15"    # ratio list a:b:c or comma fractions

    synth_vocab: int = 400
    synth_sessions: int = 3000
    synth_drift: float = 0.3
    synth_clusters: int = 8
    synth_len_min: int = 3
    synth_len_max: int = 10

    d: int = 32
    encoder: str = "mean_pool"
    rec_lr: float = 0.01
    rec_epochs: int = 20
    batch: int = 100
    l2: float = 1e-5

    n: int = 8
    k: int = 16
    tau: float = 0.1
    codec_lr: float = 0.01
    codec_epochs: int = 200
    codec_batch: int = 256
    straight_through: bool = False

    strategy: str = "queue"        # full | stack | queue
    ratio_mode: str = "fixed"      # fixed | adaptive
    r: float = 10.0
    mmd_samples: int = 512         # 0 = use every row
    mmd_bandwidth: float = 0.0     # 0 = median heuristic
    C: float = 0.2
    skip_threshold: float = 1e-6

    seed: int = 7
    out: str = "runs/out"
    timing: str = "wall"           # wall | zero
    cold_start: bool = False
    refresh_device_params: bool = False

    def __post_init__(self):
        if self.strategy not in ("full", "stack", "queue"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.ratio_mode not in ("fixed", "adaptive"):
            raise ConfigError(f"unknown ratio_mode {self.ratio_mode!r}")
        if self.timing not in ("wall", "zero"):
            raise ConfigError(f"unknown timing mode {self.timing!r}")
        if self.encoder not in ("mean_pool", "last_gated"):
            raise ConfigError(f"unknown encoder {self.encoder!r}")
        if self.ratio_mode == "fixed" and self.strategy != "full" and self.r < 1:
            raise ConfigError("fixed ratio r must be >= 1")
        if self.d < 2:
            raise ConfigError("d must be at least 2")
        if not 0 < self.test_frac < 1:
            raise ConfigError("test_frac must lie in (0, 1)")
        try:
            self.slice_plan()
            self.codec_config(seed=self.seed)
            self.rec_config(seed=self.seed, freeze_gate=False)
            self.mmd_config()
            self.adaptive_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def slice_plan(self) -> SlicePlan:
        text = self.slices
        if ":" in text:
            return SlicePlan.from_ratios([float(x) for x in text.split(":")])
        return SlicePlan([float(x) for x in text.split(",")])

    def rec_config(self, seed: int, freeze_gate: bool) -> TrainConfig:
        return TrainConfig(lr=self.rec_lr, epochs=self.rec_epochs, batch=self.batch,
                           l2=self.l2, seed=seed, freeze_gate=freeze_gate)

    def codec_config(self, seed: int) -> CodecConfig:
        return CodecConfig(n=self.n, k=self.k, d=self.d, tau=self.tau, lr=self.codec_lr,
                           epochs=self.codec_epochs, batch=self.codec_batch, seed=seed,
                           straight_through=self.straight_through)

    def mmd_config(self) -> MmdConfig:
        return MmdConfig(
            sample_n1=None if self.mmd_samples == 0 else self.mmd_samples,
            sample_n2=None if self.mmd_samples == 0 else self.mmd_samples,
            bandwidth=None if self.mmd_bandwidth == 0 else self.mmd_bandwidth,
            seed=self.seed,
        )

    def adaptive_config(self) -> AdaptiveConfig:
        return AdaptiveConfig(C=self.C, skip_threshold=self.skip_threshold)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
    if ftype == "bool":
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"bad boolean for {key}: {raw!r}")
    if ftype == "int":
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"bad integer for {key}: {raw!r}") from None
    if ftype == "float":
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"bad number for {key}: {raw!r}") from None
    if key == "delimiter" and raw == "\\t":
        return "\t"
    return raw


def load_config(path) -> ExperimentConfig:
    """Line-oriented ``key = value`` config; '#' starts a comment."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in line.split("=", 1))
                if key not in _FIELD_TYPES:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                values[key] = _parse_value(key, raw)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return ExperimentConfig(**values)


@dataclass
class RoundReport:
    slice: int
    strategy: str
    r: float
    beta: int
    mmd: float
    delta_bytes: int
    cum_bytes: int
    cloud_p5: float
    cloud_n5: float
    cloud_p10: float
    cloud_n10: float
    dev_p5: float
    dev_n5: float
    dev_p10: float
    dev_n10: float
    cr_model: float
    cr_update: float
    cr_total: float
    secs: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_csv_row(self) -> str:
        vals = [getattr(self, name) for name in CSV_COLUMNS.split(",")]
        return ",".join(_fmt(v) for v in vals)


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


@dataclass
class DataBundle:
    slices: list[SessionDataset]
    test: SessionDataset
    vocab_size: int
    vocab: list[str] | None = None  # item ids by index; synthetic ids for synth data


def prepare_data(cfg: ExperimentConfig, rng: Rng) -> DataBundle:
    plan = cfg.slice_plan()
    if cfg.data == "synth":
        res = synth_generate(
            rng.child("synth"), cfg.synth_vocab, cfg.synth_sessions, cfg.synth_drift, plan,
            n_clusters=cfg.synth_clusters,
            len_range=(cfg.synth_len_min, cfg.synth_len_max),
            test_frac=cfg.test_frac,
        )
        names = [f"i{j:06d}" for j in range(res.vocab_size)]
        return DataBundle(res.slices, res.test, res.vocab_size, names)
    if not os.path.exists(cfg.data):
        raise DataError(f"dataset not found: {cfg.data}")
    if cfg.data.endswith(".cache"):
        slices, test, vocab = load_dataset_cache(cfg.data)
        return DataBundle(slices, test, len(vocab), vocab)
    events = read_event_log(cfg.data, cfg.delimiter)
    if not events:
        raise DataError(f"event log is empty: {cfg.data}")
    sessions = sessionize(events, cfg.session_gap)
    indexed, vocab = filter_and_index(
        sessions, cfg.min_len, cfg.max_len, cfg.top_items or None
    )
    train_sessions, test_sessions = holdout_split(indexed, cfg.test_frac)
    slices = temporal_slices(train_sessions, plan, len(vocab))
    test = augment_split(test_sessions, len(vocab), slice_id=0)
    return DataBundle(slices, test, len(vocab), vocab)


def write_data_cache(cfg: ExperimentConfig, path: str) -> DataBundle:
    """Slice once and snapshot to a binary cache loadable via data=<path>."""
    bundle = prepare_data(cfg, Rng(cfg.seed))
    save_dataset_cache(path, bundle.slices, bundle.test, bundle.vocab)
    return bundle


class DeviceSim:
    """Simulated on-device model. Consumes only wire frames; the embedding
    table is always reconstituted from decoded bytes."""

    def __init__(self, strategy: str, encoder_kind: str, gate: float):
        self.strategy = strategy
        self.encoder_kind = encoder_kind
        self.gate = gate
        self.store: CodebookStore | None = None
        self.ledger: SlotLedger | None = None
        self.table: np.ndarray | None = None

    @property
    def epoch(self) -> int:
        return 0 if self.ledger is None else self.ledger.current_epoch

    def receive(self, frame: bytes) -> UpdateDelta:
        delta = wire.decode_delta(frame)
        if self.store is None:
            if delta.strategy != "full" or delta.epoch != 1:
                raise ProtocolError("device must be deployed with a full epoch-1 frame")
            n, k = delta.codes.shape[1], delta.new_rows.shape[0] // delta.codes.shape[1]
            store = CodebookStore(n, k, delta.new_rows.shape[1], delta.new_rows.copy())
            ledger = SlotLedger.fresh(n * k, epoch=1)
            self.store, self.ledger = store, ledger
            self.table = reconstruct_table(store, delta.codes)
            return delta
        if delta.codes.shape[0] != self.table.shape[0]:
            raise DimensionMismatch(
                f"delta codes cover {delta.codes.shape[0]} items, device holds {self.table.shape[0]}"
            )
        self.store, self.ledger, self.table = apply_delta(
            self.store, self.ledger, delta, expected_strategy=self.strategy
        )
        return delta

    def metrics(self, dataset, ks=(5, 10)) -> list[float]:
        out = []
        for k in ks:
            p, n = evaluate(self.table, dataset, k, encoder_kind=self.encoder_kind, gate=self.gate)
            out.extend([p, n])
        return out


@dataclass
class RoundState:
    report: RoundReport
    server_ledger: SlotLedger
    device_ledger: SlotLedger
    frame: bytes | None


@dataclass
class SimulationResult:
    reports: list[RoundReport]
    rounds: list[RoundState]
    csv_path: str
    json_path: str


def _cloud_metrics(model: RecModel, dataset, ks=(5, 10)) -> list[float]:
    out = []
    for k in ks:
        p, n = evaluate(model, dataset, k)
        out.extend([p, n])
    return out


def write_reports(out_dir: str, reports: list[RoundReport]) -> tuple[str, str]:
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(CSV_COLUMNS + "\n")
        for rep in reports:
            fh.write(rep.to_csv_row() + "\n")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump([rep.to_dict() for rep in reports], fh, sort_keys=True, indent=2)
        fh.write("\n")
    return csv_path, json_path


def run_train(cfg: ExperimentConfig, out_dir: str | None = None) -> list[dict]:
    """Train the cloud model per cumulative slice (warm-started), persisting
    a checkpoint and a metrics sidecar for each."""
    out_dir = out_dir or cfg.out
    os.makedirs(out_dir, exist_ok=True)
    rng = Rng(cfg.seed)
    data = prepare_data(cfg, rng)
    model = init_model(data.vocab_size, cfg.d, rng.child("rec-init"), cfg.encoder)
    summaries = []
    for t, ds in enumerate(data.slices, start=1):
        if cfg.cold_start and t > 1:
            model = init_model(data.vocab_size, cfg.d, rng.child("rec-init"), cfg.encoder)
        losses = train(model, ds, cfg.rec_config(seed=cfg.seed + t, freeze_gate=t > 1))
        p5, n5, p10, n10 = _cloud_metrics(model, data.test)
        ckpt = os.path.join(out_dir, f"slice_{t:02d}.ckpt")
        save_checkpoint(ckpt, model.embeddings)
        meta = {
            "slice": t,
            "checkpoint": os.path.basename(ckpt),
            "encoder": model.encoder_kind,
            "gate_raw": model.gate_raw,
            "vocab": data.vocab_size,
            "d": cfg.d,
            "final_loss": losses[-1],
            "test_p5": p5, "test_n5": n5, "test_p10": p10, "test_n10": n10,
        }
        with open(os.path.join(out_dir, f"slice_{t:02d}.meta.json"), "w", encoding="utf-8") as fh:
            json.dump(meta, fh, sort_keys=True, indent=2)
            fh.write("\n")
        summaries.append(meta)
    return summaries


def run_simulate(cfg: ExperimentConfig, out_dir: str | None = None) -> SimulationResult:
    """The full loop: deploy at slice 1, then per slice measure drift,
    choose the update size, retrain the slot rows, ship the frame, apply it
    on the device, and evaluate both sides on the held-out test set."""
    out_dir = out_dir or cfg.out
    frames_dir = os.path.join(out_dir, "frames")
    os.makedirs(frames_dir, exist_ok=True)
    rng = Rng(cfg.seed)
    data = prepare_data(cfg, rng)
    vocab, nk = data.vocab_size, cfg.n * cfg.k

    model = init_model(vocab, cfg.d, rng.child("rec-init"), cfg.encoder)
    store: CodebookStore | None = None
    encoder: CodecEncoder | None = None
    ledger: SlotLedger | None = None
    device: DeviceSim | None = None
    prev_table: np.ndarray | None = None
    cum_bytes = 0
    cr_m = model_cr(vocab, cfg.d, cfg.n, cfg.k)

    reports: list[RoundReport] = []
    rounds: list[RoundState] = []
    for t, ds in enumerate(data.slices, start=1):
        start_time = time.perf_counter()
        if cfg.cold_start and t > 1:
            model = init_model(vocab, cfg.d, rng.child("rec-init"), cfg.encoder)
        train(model, ds, cfg.rec_config(seed=cfg.seed + t, freeze_gate=t > 1))
        table = model.embeddings

        frame: bytes | None = None
        if t == 1:
            store, encoder, _ = train_codec(table, cfg.codec_config(seed=cfg.seed))
            codes = harden(encoder, table)
            ledger = SlotLedger.fresh(nk, epoch=1)
            delta = UpdateDelta(1, "full", nk, store.rows.copy(), codes, list(range(nk)))
            frame = wire.encode_delta(delta, vocab=vocab, d=cfg.d, n=cfg.n, k=cfg.k)
            device = DeviceSim(cfg.strategy, model.encoder_kind, model.gate)
            device.receive(frame)
            mmd_val, r_val, beta = 0.0, 0.0, nk
        else:
            mmd_val = mmd2(prev_table, table, cfg.mmd_config())
            if cfg.strategy == "full":
                r_chosen: float | None = 1.0
            elif cfg.ratio_mode == "adaptive":
                r_chosen = choose_ratio(mmd_val, cfg.adaptive_config())
            else:
                r_chosen = cfg.r
            if r_chosen is None:
                r_val, beta = 0.0, 0
            else:
                r_val = float(r_chosen)
                beta = nk if cfg.strategy == "full" else beta_from_ratio(cfg.n, cfg.k, r_chosen)
                slots = plan_slots(ledger, cfg.strategy, beta)
                upd = retrain_update(
                    store, encoder, table, slots,
                    cfg.codec_config(seed=cfg.seed + 100 * t),
                    epoch=ledger.current_epoch + 1, strategy=cfg.strategy,
                )
                store, encoder = upd.store, upd.encoder
                ledger = advance_ledger(ledger, cfg.strategy, slots, upd.delta.epoch)
                frame = wire.encode_delta(upd.delta, vocab=vocab, d=cfg.d, n=cfg.n, k=cfg.k)
                device.receive(frame)
                if cfg.refresh_device_params:
                    device.gate = model.gate
                if device.ledger != ledger:
                    raise ProtocolError("server and device ledgers diverged")

        nbytes = len(frame) if frame is not None else 0
        cum_bytes += nbytes
        if frame is not None:
            with open(os.path.join(frames_dir, f"round_{t:02d}.odup"), "wb") as fh:
                fh.write(frame)

        cloud = _cloud_metrics(model, data.test)
        dev = device.metrics(data.test)
        cr_u = update_cr(cfg.n, cfg.k, cfg.d, vocab, beta) if beta else 0.0
        cr_t = end_to_end_cr(vocab, cfg.d, cfg.n, beta) if beta else 0.0
        secs = time.perf_counter() - start_time if cfg.timing == "wall" else 0.0
        reports.append(RoundReport(
            slice=t, strategy=cfg.strategy, r=r_val, beta=beta, mmd=mmd_val,
            delta_bytes=nbytes, cum_bytes=cum_bytes,
            cloud_p5=cloud[0], cloud_n5=cloud[1], cloud_p10=cloud[2], cloud_n10=cloud[3],
            dev_p5=dev[0], dev_n5=dev[1], dev_p10=dev[2], dev_n10=dev[3],
            cr_model=cr_m, cr_update=cr_u, cr_total=cr_t, secs=round(secs, 6),
        ))
        rounds.append(RoundState(
            report=reports[-1],
            server_ledger=SlotLedger(list(ledger.epochs), list(ledger.seqs), ledger.current_epoch),
            device_ledger=SlotLedger(list(device.ledger.epochs), list(device.ledger.seqs),
                                     device.ledger.current_epoch),
            frame=frame,
        ))
        prev_table = table.copy()

    csv_path, json_path = write_reports(out_dir, reports)
    return SimulationResult(reports, rounds, csv_path, json_path)


def run_compress(cfg: ExperimentConfig, table_path: str, out_dir: str | None = None) -> dict:
    """Compress a checkpointed table with the configured codec and report
    element-count and measured-byte compression ratios."""
    from .codec import save_compressed_model

    out_dir = out_dir or cfg.out
    os.makedirs(out_dir, exist_ok=True)
    table = load_checkpoint(table_path)
    vocab, d = table.shape
    if d != cfg.d:
        raise ConfigError(f"checkpoint d={d} does not match config d={cfg.d}")
    store, encoder, losses = train_codec(table, cfg.codec_config(seed=cfg.seed))
    codes = harden(encoder, table)
    out_path = os.path.join(out_dir, "model.odcm")
    save_compressed_model(out_path, store, codes, vocab)
    raw_bytes = vocab * d * 4
    packed = os.path.getsize(out_path)
    info = {
        "vocab": vocab, "d": d, "n": cfg.n, "k": cfg.k,
        "cr_model_elements": model_cr(vocab, d, cfg.n, cfg.k),
        "raw_table_bytes": raw_bytes,
        "compressed_file_bytes": packed,
        "cr_model_bytes": raw_bytes / packed,
        "final_loss": losses[-1],
        "path": out_path,
    }
    with open(os.path.join(out_dir, "compress.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return info


def load_report(run_dir: str) -> list[dict]:
    path = os.path.join(run_dir, "report.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"missing or corrupt report: {path} ({exc})") from None
    if not isinstance(records, list) or not records:
        raise DataError(f"missing or corrupt report: {path} (no records)")
    return records


def run_report(run_dirs: list[str], out_dir: str) -> str:
    """Aggregate one or more simulation runs into a side-by-side summary
    plus plot-ready accuracy-vs-bytes and accuracy-vs-ratio tables."""
    os.makedirs(out_dir, exist_ok=True)
    runs = {os.path.basename(os.path.normpath(rd)) or rd: load_report(rd) for rd in run_dirs}

    lines = ["run,slice,strategy,r,beta,mmd,delta_bytes,cum_bytes,dev_p10,dev_n10,cloud_p10,cloud_n10"]
    for name, records in runs.items():
        for rec in records:
            lines.append(
                f"{name},{rec['slice']},{rec['strategy']},{_fmt(rec['r'])},{rec['beta']},"
                f"{_fmt(rec['mmd'])},{rec['delta_bytes']},{rec['cum_bytes']},"
                f"{_fmt(rec['dev_p10'])},{_fmt(rec['dev_n10'])},"
                f"{_fmt(rec['cloud_p10'])},{_fmt(rec['cloud_n10'])}"
            )
    bytes_csv = os.path.join(out_dir, "accuracy_vs_bytes.csv")
    with open(bytes_csv, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

    ratio_lines = ["run,slice,r,beta,cr_update,cr_total,dev_p10"]
    for name, records in runs.items():
        for rec in records:
            if rec["slice"] == 1:
                continue
            ratio_lines.append(
                f"{name},{rec['slice']},{_fmt(rec['r'])},{rec['beta']},"
                f"{_fmt(rec['cr_update'])},{_fmt(rec['cr_total'])},{_fmt(rec['dev_p10'])}"
            )
    ratio_csv = os.path.join(out_dir, "accuracy_vs_ratio.csv")
    with open(ratio_csv, "w", encoding="utf-8") as fh:
        fh.write("\n".join(ratio_lines) + "\n")

    slices = sorted({rec["slice"] for records in runs.values() for rec in records})
    text = ["slice  " + "  ".join(f"{name}:dev_p10" for name in runs)]
    for s in slices:
        row = [f"{s:5d}"]
        for records in runs.values():
            match = [rec for rec in records if rec["slice"] == s]
            row.append(f"{match[0]['dev_p10']:.4f}" if match else "-")
        text.append("  ".join(row))
    summary = "\n".join(text)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write(summary + "\n")
    return summary
