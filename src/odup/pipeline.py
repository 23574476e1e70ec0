"""End-to-end experiment loop: per temporal slice, retrain the cloud model,
compress (or delta-compress) the embedding table, ship bytes through the
wire format, apply them on a simulated device, and evaluate both sides.

The device is modeled strictly behind the wire boundary: its table is only
ever reconstituted from decoded frames, never copied from server memory.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from . import wire
from .adaptive import AdaptiveConfig, MmdConfig, mmd2, choose_ratio
from .codec import CodecConfig, CodebookStore, harden, model_cr, refine_codes, train_codec
from .codec import reconstruct_table  # noqa: F401 (unused, but perfbench/spans.py wraps it here)
from .errors import ConfigError, DataError, DimensionMismatch, ProtocolError
from .numkit import Rng
from .recommender import (
    ENCODER_KINDS, RecModel, TrainConfig, evaluate, init_model, load_checkpoint, save_checkpoint,
    train,
)
from .sealed import make_dir, write_file
from .sessions import (
    SlicePlan, SessionDataset, SynthResult, augment_split, check_filter_settings,
    check_synth_settings, filter_and_index, holdout_split, read_event_log, sessionize,
    synth_generate, temporal_slices,
)
from .updater import (
    STRATEGIES, SlotLedger, UpdateDelta, apply_delta, beta_from_ratio, end_to_end_cr, plan_slots,
    retrain_update, update_cr,
)

REPORT_KS = (5, 10)  # the K of every report's P@K and N@K


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
    slices: str = "1:3:6:10:15"    # ratio list a:b:c

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

    strategy: str = "queue"        # full | stack | queue
    ratio_mode: str = "fixed"      # fixed | adaptive
    r: float = 10.0
    mmd_samples: int = 512         # 0 = use every row
    C: float = 0.2
    skip_threshold: float = 1e-6

    seed: int = 7
    out: str = "runs/out"
    timing: str = "wall"           # wall | zero

    def __post_init__(self):
        bad = [f for f, t in _FIELD_TYPES.items() if t == "float" and not math.isfinite(getattr(self, f))]
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        if self.ratio_mode not in ("fixed", "adaptive"):
            raise ConfigError(f"unknown ratio_mode {self.ratio_mode!r}")
        if self.timing not in ("wall", "zero"):
            raise ConfigError(f"unknown timing mode {self.timing!r}")
        if self.encoder not in ENCODER_KINDS:
            raise ConfigError(f"unknown encoder {self.encoder!r}")
        if self.ratio_mode == "fixed" and self.strategy != "full" and not self.r >= 1:
            raise ConfigError("fixed ratio r must be >= 1")
        if self.d < 2:
            raise ConfigError("d must be at least 2")
        if not 0 < self.test_frac < 1:
            raise ConfigError("test_frac must lie in (0, 1)")
        if not self.delimiter:
            raise ConfigError("delimiter must not be empty")
        if not self.out:
            raise ConfigError("out must not be empty")
        if not self.session_gap > 0:
            raise ConfigError("session_gap must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        try:
            self.slice_plan()
            self.codec_config()
            self.rec_config(seed=self.seed, freeze_gate=False)
            self.mmd_config()
            self.adaptive_config()
            check_filter_settings(self.min_len, self.max_len, self.top_items)
            check_synth_settings(self.synth_vocab, self.synth_sessions, self.synth_drift,
                                 self.synth_clusters, (self.synth_len_min, self.synth_len_max))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

    def slice_plan(self) -> SlicePlan:
        return SlicePlan.from_ratios([float(x) for x in self.slices.split(":")])

    def rec_config(self, seed: int, freeze_gate: bool) -> TrainConfig:
        return TrainConfig(lr=self.rec_lr, epochs=self.rec_epochs, batch=self.batch,
                           l2=self.l2, seed=seed, freeze_gate=freeze_gate)

    def codec_config(self) -> CodecConfig:
        return CodecConfig(n=self.n, k=self.k, d=self.d, tau=self.tau, lr=self.codec_lr,
                           epochs=self.codec_epochs, batch=self.codec_batch, seed=self.seed)

    def mmd_config(self) -> MmdConfig:
        return MmdConfig(samples=self.mmd_samples or None, seed=self.seed)

    def adaptive_config(self) -> AdaptiveConfig:
        return AdaptiveConfig(C=self.C, skip_threshold=self.skip_threshold)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(key: str, raw: str):
    ftype = _FIELD_TYPES[key]
    raw = raw.strip()
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
    except (OSError, UnicodeDecodeError) as exc:
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


REPORT_COLUMNS = tuple(f.name for f in dataclasses.fields(RoundReport))
# the report command's tables: a run's directory name, then report columns
BYTES_COLUMNS = ("run", "slice", "strategy", "r", "beta", "mmd", "delta_bytes", "cum_bytes",
                 "dev_p10", "dev_n10", "cloud_p10", "cloud_n10")
RATIO_COLUMNS = ("run", "slice", "r", "beta", "cr_update", "cr_total", "dev_p10")


def _write_json(path: str, obj) -> None:
    write_file(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _write_csv(path: str, columns, records: list[dict]) -> None:
    """A header of ``columns``, then each record's values in that order
    (``str`` of a float is its shortest repr, so it reads back equal)."""
    lines = [",".join(columns)] + [",".join(str(rec[c]) for c in columns) for rec in records]
    write_file(path, "\n".join(lines) + "\n")


@dataclass
class DataBundle:
    slices: list[SessionDataset]
    test: SessionDataset
    vocab_size: int


def synth_data(cfg: ExperimentConfig, rng: Rng) -> SynthResult:
    """The sessions of ``data = synth``; ``odup synth`` writes these same ones."""
    return synth_generate(
        rng.child("synth"), cfg.synth_vocab, cfg.synth_sessions, cfg.synth_drift, cfg.slice_plan(),
        n_clusters=cfg.synth_clusters,
        len_range=(cfg.synth_len_min, cfg.synth_len_max),
        test_frac=cfg.test_frac,
    )


def prepare_data(cfg: ExperimentConfig, rng: Rng) -> DataBundle:
    """The cumulative training slices and the test set of ``cfg.data``."""
    if cfg.data == "synth":
        res = synth_data(cfg, rng)
        train_sessions, test_sessions, vocab_size = res.sessions, res.test_sessions, res.vocab_size
    else:
        if not os.path.exists(cfg.data):
            raise DataError(f"dataset not found: {cfg.data}")
        events = read_event_log(cfg.data, cfg.delimiter)
        if not events:
            raise DataError(f"event log is empty: {cfg.data}")
        sessions = sessionize(events, cfg.session_gap)
        indexed, vocab = filter_and_index(sessions, cfg.min_len, cfg.max_len, cfg.top_items or None)
        if len(vocab) < max(REPORT_KS):
            raise DataError(f"{len(vocab)} items are fewer than the report's K = {max(REPORT_KS)}")
        train_sessions, test_sessions = holdout_split(indexed, cfg.test_frac)
        vocab_size = len(vocab)
    slices = temporal_slices(train_sessions, cfg.slice_plan())
    return DataBundle(slices, augment_split(test_sessions), vocab_size)


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
        """Apply one frame; the first, a full frame, is applied to an
        all-zero store and an epoch-0 ledger sized by its header."""
        delta = wire.decode_delta(frame)
        dims = wire.frame_dims(frame)
        if self.store is None:
            if delta.strategy != "full":
                raise ProtocolError("device must be deployed with a full frame")
            _, n, k, d = dims
            store, ledger = CodebookStore(n, k, d, np.zeros((n * k, d))), SlotLedger.fresh(n * k, epoch=0)
        else:
            store, ledger = self.store, self.ledger
            own = (len(self.table), store.n, store.k, store.d)
            if dims != own:
                raise DimensionMismatch(f"frame (vocab, n, k, d) = {dims}, device holds {own}")
        self.store, self.ledger, self.table = apply_delta(
            store, ledger, delta, expected_strategy=self.strategy
        )
        return delta

    def metrics(self, dataset) -> list[float]:
        return evaluate(self.table, dataset, REPORT_KS, encoder_kind=self.encoder_kind, gate=self.gate)


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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def write_reports(out_dir: str, reports: list[RoundReport]) -> tuple[str, str]:
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")
    records = [dataclasses.asdict(rep) for rep in reports]
    _write_csv(csv_path, REPORT_COLUMNS, records)
    _write_json(json_path, records)
    return csv_path, json_path


@dataclass
class CloudSlice:
    """The cloud model after one slice (its table a read-only copy), its last
    epoch's loss, held-out P@5/N@5/P@10/N@10, and seconds spent on them."""

    model: RecModel
    loss: float
    metrics: list[float]
    secs: float


def cloud_trajectory(cfg: ExperimentConfig, data: DataBundle):
    """Train the cloud model per cumulative slice (warm-started), yielding a
    CloudSlice each. Nothing here depends on the update strategy or ratio,
    so one trajectory serves every update arm."""
    model = init_model(data.vocab_size, cfg.d, Rng(cfg.seed).child("rec-init"), cfg.encoder)
    for t, ds in enumerate(data.slices, start=1):
        start_time = time.perf_counter()
        losses = train(model, ds, cfg.rec_config(seed=cfg.seed + t, freeze_gate=t > 1))
        table = model.embeddings.copy()
        table.flags.writeable = False
        yield CloudSlice(RecModel(table, model.encoder_kind, model.gate_raw), losses[-1],
                         evaluate(model, data.test, REPORT_KS), time.perf_counter() - start_time)


def run_train(cfg: ExperimentConfig) -> list[dict]:
    """Train the cloud model per cumulative slice, persisting a checkpoint
    and a metrics sidecar for each in ``cfg.out``."""
    out_dir = make_dir(cfg.out)
    data = prepare_data(cfg, Rng(cfg.seed))
    summaries = []
    for t, cloud in enumerate(cloud_trajectory(cfg, data), start=1):
        ckpt = os.path.join(out_dir, f"slice_{t:02d}.ckpt")
        save_checkpoint(ckpt, cloud.model.embeddings)
        p5, n5, p10, n10 = cloud.metrics
        meta = {
            "slice": t,
            "checkpoint": os.path.basename(ckpt),
            "encoder": cloud.model.encoder_kind,
            "gate_raw": cloud.model.gate_raw,
            "vocab": data.vocab_size,
            "d": cfg.d,
            "final_loss": cloud.loss,
            "test_p5": p5, "test_n5": n5, "test_p10": p10, "test_n10": n10,
        }
        _write_json(os.path.join(out_dir, f"slice_{t:02d}.meta.json"), meta)
        summaries.append(meta)
    return summaries


def run_simulate(cfg: ExperimentConfig) -> SimulationResult:
    """The full loop into ``cfg.out``: the cloud trajectory, replayed as it trains."""
    data = prepare_data(cfg, Rng(cfg.seed))
    return replay(cfg, data, cloud_trajectory(cfg, data), cfg.out)


def deploy(cfg: ExperimentConfig, table: np.ndarray) -> tuple[UpdateDelta, float]:
    """Train the codec on ``table``, harden its codes and refine them by
    ICM: the full epoch-1 delta that deploys it on a device, and the final
    codec loss."""
    store, encoder, losses = train_codec(table, cfg.codec_config())
    codes = refine_codes(store, harden(encoder, table), table)
    nk = cfg.n * cfg.k
    return UpdateDelta(1, "full", nk, store.rows, codes, list(range(nk))), losses[-1]


def replay(cfg: ExperimentConfig, data: DataBundle, trajectory, out_dir: str) -> SimulationResult:
    """Per slice: train the codec and deploy with a full frame (slice 1), or
    measure drift, choose the update size and refit the slot rows and codes;
    ship the frame and apply it on the device; the server applies the same
    delta to its own store and ledger, so lockstep is equal ledgers and
    tables. Then evaluate the device. A round's secs include the slice's
    cloud seconds."""
    frames_dir = make_dir(os.path.join(out_dir, "frames"))
    vocab, nk = data.vocab_size, cfg.n * cfg.k

    store = CodebookStore(cfg.n, cfg.k, cfg.d, np.zeros((nk, cfg.d)))
    codes: np.ndarray | None = None
    ledger = SlotLedger.fresh(nk, epoch=0)
    device: DeviceSim | None = None
    prev_table: np.ndarray | None = None
    cum_bytes = 0
    cr_m = model_cr(vocab, cfg.d, cfg.n, cfg.k)

    reports: list[RoundReport] = []
    rounds: list[RoundState] = []
    for t, cloud_slice in enumerate(trajectory, start=1):
        start_time = time.perf_counter()
        table = cloud_slice.model.embeddings

        if t == 1:
            device = DeviceSim(cfg.strategy, cloud_slice.model.encoder_kind, cloud_slice.model.gate)
            strategy, mmd_val, r_val, beta = "full", 0.0, 0.0, nk
        else:
            strategy, mmd_val = cfg.strategy, mmd2(prev_table, table, cfg.mmd_config())
            if cfg.strategy == "full":
                r_chosen: float | None = 1.0
            elif cfg.ratio_mode == "adaptive":
                r_chosen = choose_ratio(mmd_val, cfg.adaptive_config())
            else:
                r_chosen = cfg.r
            r_val = 0.0 if r_chosen is None else float(r_chosen)
            beta = 0 if r_chosen is None else beta_from_ratio(cfg.n, cfg.k, r_chosen)

        frame, nbytes = None, 0
        if beta:
            if t == 1:
                delta, _ = deploy(cfg, table)
            else:
                slots = plan_slots(ledger, strategy, beta)
                upd = retrain_update(store, codes, table, slots,
                                     epoch=ledger.current_epoch + 1, strategy=strategy)
                if not _same_bits(np.delete(store.rows, slots, 0), np.delete(upd.store.rows, slots, 0)):
                    raise ProtocolError("a frozen codebook row changed on the server")
                delta = upd.delta
            codes = delta.codes
            frame = wire.encode_delta(delta, vocab=vocab, d=cfg.d, n=cfg.n, k=cfg.k)
            device.receive(frame)
            store, ledger, server_table = apply_delta(store, ledger, delta, expected_strategy=cfg.strategy)
            if device.ledger != ledger or not _same_bits(device.table, server_table):
                raise ProtocolError("server and device are out of lockstep")
            write_file(os.path.join(frames_dir, f"round_{t:02d}.odup"), frame)
            nbytes = len(frame)
        cum_bytes += nbytes

        cloud = cloud_slice.metrics
        dev = device.metrics(data.test)
        cr_u = update_cr(cfg.n, cfg.k, cfg.d, vocab, beta) if beta else 0.0
        cr_t = end_to_end_cr(vocab, cfg.d, cfg.n, beta) if beta else 0.0
        secs = cloud_slice.secs + time.perf_counter() - start_time if cfg.timing == "wall" else 0.0
        reports.append(RoundReport(
            slice=t, strategy=cfg.strategy, r=r_val, beta=beta, mmd=mmd_val,
            delta_bytes=nbytes, cum_bytes=cum_bytes,
            cloud_p5=cloud[0], cloud_n5=cloud[1], cloud_p10=cloud[2], cloud_n10=cloud[3],
            dev_p5=dev[0], dev_n5=dev[1], dev_p10=dev[2], dev_n10=dev[3],
            cr_model=cr_m, cr_update=cr_u, cr_total=cr_t, secs=round(secs, 6),
        ))
        # ledgers are never mutated, only rebound, so the round keeps references
        rounds.append(RoundState(reports[-1], ledger, device.ledger, frame))
        prev_table = table

    csv_path, json_path = write_reports(out_dir, reports)
    return SimulationResult(reports, rounds, csv_path, json_path)


def run_compress(cfg: ExperimentConfig, table_path: str) -> dict:
    """Compress a checkpointed table with the configured codec, write the
    full frame that deploys it (``model.odup``) to ``cfg.out``, and report
    element-count and measured-byte compression ratios."""
    out_dir = make_dir(cfg.out)
    table = load_checkpoint(table_path)
    vocab, d = table.shape
    if d != cfg.d:
        raise ConfigError(f"checkpoint d={d} does not match config d={cfg.d}")
    delta, final_loss = deploy(cfg, table)
    frame = wire.encode_delta(delta, vocab=vocab, d=d, n=cfg.n, k=cfg.k)
    out_path = os.path.join(out_dir, "model.odup")
    write_file(out_path, frame)
    raw_bytes = vocab * d * 4
    info = {
        "vocab": vocab, "d": d, "n": cfg.n, "k": cfg.k,
        "cr_model_elements": model_cr(vocab, d, cfg.n, cfg.k),
        "raw_table_bytes": raw_bytes,
        "compressed_file_bytes": len(frame),
        "cr_model_bytes": raw_bytes / len(frame),
        "final_loss": final_loss,
        "path": out_path,
    }
    _write_json(os.path.join(out_dir, "compress.json"), info)
    return info


# the JSON value types a report.json record may hold in a column of each type
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def load_report(run_dir: str) -> list[dict]:
    path = os.path.join(run_dir, "report.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            records = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"missing or corrupt report: {path} ({exc})") from None
    if not isinstance(records, list) or not records:
        raise DataError(f"missing or corrupt report: {path} (no records)")
    if not all(isinstance(rec, dict) and set(REPORT_COLUMNS) <= rec.keys() for rec in records):
        raise DataError(f"corrupt report: {path} (a record lacks a report column)")
    for rec in records:
        for f in dataclasses.fields(RoundReport):
            if type(rec[f.name]) not in _JSON_TYPES[f.type]:
                raise DataError(f"corrupt report: {path} "
                                f"(report column {f.name} holds {rec[f.name]!r}, not {f.type})")
    slices = [rec["slice"] for rec in records]
    for t in slices:
        if t < 1 or slices.count(t) > 1:
            raise DataError(f"corrupt report: {path} (report column slice holds {t}: repeated or below 1)")
    return records


def run_report(run_dirs: list[str], out_dir: str) -> str:
    """Aggregate one or more simulation runs into a side-by-side summary
    plus plot-ready accuracy-vs-bytes and accuracy-vs-ratio tables."""
    names = [os.path.basename(os.path.normpath(rd)) or rd for rd in run_dirs]
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"two runs are named {name!r}; runs are keyed by directory name")
    runs = {name: load_report(rd) for name, rd in zip(names, run_dirs)}
    rows = [{**rec, "run": name} for name, records in runs.items() for rec in records]
    _write_csv(os.path.join(out_dir, "accuracy_vs_bytes.csv"), BYTES_COLUMNS, rows)
    _write_csv(os.path.join(out_dir, "accuracy_vs_ratio.csv"), RATIO_COLUMNS,
               [row for row in rows if row["slice"] != 1])

    dev_p10 = [{rec["slice"]: rec["dev_p10"] for rec in records} for records in runs.values()]
    text = ["slice  " + "  ".join(f"{name}:dev_p10" for name in runs)]
    for t in sorted(set().union(*dev_p10)):
        text.append("  ".join([f"{t:5d}"] + [f"{p[t]:.4f}" if t in p else "-" for p in dev_p10]))
    summary = "\n".join(text)
    write_file(os.path.join(out_dir, "summary.txt"), summary + "\n")
    return summary
