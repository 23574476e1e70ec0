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
import re
import time
from dataclasses import dataclass

import numpy as np

from . import wire
from .adaptive import check_pool, mmd2, choose_ratio
from .codec import (
    CodecConfig, CodebookStore, check_capacity, harden, model_cr, refine_codes, train_codec,
)
from .codec import reconstruct_table  # noqa: F401 (unused, but perfbench/spans.py wraps it here)
from .errors import ConfigError, DataError, DimensionMismatch, ProtocolError
from .numkit import Rng
from .recommender import ENCODER_KINDS, REPORT_KS, RecModel, TrainConfig, evaluate, init_model, train
from .sealed import make_dir, remove_stale, write_file
from .sessions import (
    SlicePlan, SessionDataset, SynthResult, augment_split, filter_and_index, holdout_split,
    layout_of, read_event_log, sessionize, synth_generate, temporal_slices,
)
from .updater import (
    STRATEGIES, SlotLedger, UpdateDelta, apply_delta, beta_from_ratio, end_to_end_cr, plan_slots,
    retrain_update, update_cr,
)

SYNTH_SESSIONS_MAX = 2**32 - 1  # the most sessions a synthetic log may hold
REPLAY_FRAC = 0.25  # slice t > 1 also trains on this many earlier pairs per new pair
# each numeric key's least value; a synthetic log has at least 50 items and 100 sessions
_LEAST = {"d": 2, "rec_epochs": 1, "l2": 0, "n": 1, "k": 1, "codec_epochs": 0, "codec_batch": 1,
          "synth_vocab": 50, "synth_sessions": 100, "synth_clusters": 1, "seed": 0, "skip_threshold": 0}
_CHOICES = {"strategy": STRATEGIES, "ratio_mode": ("fixed", "adaptive"), "timing": ("wall", "zero"),
            "encoder": ENCODER_KINDS}  # each choice key's values


@dataclass
class ExperimentConfig:
    """Mirrors the ``key = value`` config file; see README for key docs.
    ``__post_init__`` is the one range check of every key, and each
    ConfigError it raises starts with the key it rejects."""

    data: str = "synth"            # "synth" or a path to an event-log file
    delimiter: str = "\t"
    slices: str = "1:3:6:10:15"    # ratio list a:b:c

    synth_vocab: int = 400
    synth_sessions: int = 3000
    synth_drift: float = 0.3
    synth_clusters: int = 8

    d: int = 32
    encoder: str = "mean_pool"
    rec_epochs: int = 20
    l2: float = 1e-5

    n: int = 8
    k: int = 16
    tau: float = 0.1
    codec_epochs: int = 200
    codec_batch: int = 256

    strategy: str = "queue"        # full | stack | queue
    ratio_mode: str = "fixed"      # fixed | adaptive
    r: float = 10.0
    mmd_samples: int = 512         # 0 = use every row
    skip_threshold: float = 1e-6

    seed: int = 7
    out: str = "runs/out"
    timing: str = "wall"           # wall | zero

    def __post_init__(self):
        bad = [f for f, t in _FIELD_TYPES.items() if t == "float" and not math.isfinite(getattr(self, f))]
        if bad:
            raise ConfigError(f"{', '.join(bad)} must be finite")
        for key, values in _CHOICES.items():
            if getattr(self, key) not in values:
                raise ConfigError(f"{key} must be one of {', '.join(values)}, not {getattr(self, key)!r}")
        if self.ratio_mode == "fixed" and self.strategy != "full" and not self.r >= 1:
            raise ConfigError("r must be >= 1 when ratio_mode is fixed")
        for key, least in _LEAST.items():
            if getattr(self, key) < least:
                raise ConfigError(f"{key} must be " + (f"at least {least}" if least else "non-negative"))
        for key, field in (("n", "n"), ("k", "k"), ("d", "d"), ("synth_vocab", "vocab")):
            bits = wire.FIELD_BITS[field]
            if getattr(self, key) >= 2**bits:
                raise ConfigError(f"{key} must be at most {2**bits - 1} (a u{bits} frame header field)")
        if self.synth_sessions > SYNTH_SESSIONS_MAX:
            raise ConfigError(f"synth_sessions must be at most {SYNTH_SESSIONS_MAX}")
        if self.synth_clusters > self.synth_vocab:
            raise ConfigError(f"synth_clusters must be at most synth_vocab ({self.synth_vocab}): "
                              "a cluster beyond the vocabulary holds no item")
        if self.n * self.k % 2:
            raise ConfigError("n * k must be even (the codec encoder's hidden width is n * k / 2)")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")
        if not 0 <= self.synth_drift <= 1:
            raise ConfigError("synth_drift must lie in [0, 1]")
        for key in ("data", "delimiter", "out"):
            if not getattr(self, key):
                raise ConfigError(f"{key} must not be empty")
        if self.mmd_samples != 0 and self.mmd_samples < 2:
            raise ConfigError("mmd_samples must be >= 2, or 0 for every row")
        try:
            n_slices = len(self.slice_plan().fractions)
        except ValueError as exc:
            raise ConfigError(f"slices: {exc}") from None
        if self.synth_sessions <= n_slices:
            raise ConfigError(f"synth_sessions must be more than the {n_slices} slices: each slice "
                              "and the test set need a session")

    def slice_plan(self) -> SlicePlan:
        return SlicePlan.from_ratios([float(x) for x in self.slices.split(":")])


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_PARSERS = {"int": (int, "integer"), "float": (float, "number")}  # a typed key's parser and noun


def _parse_value(key: str, raw: str):
    if key == "delimiter" and raw == "\\t":
        return "\t"
    if _FIELD_TYPES[key] not in _PARSERS:
        return raw
    parse, noun = _PARSERS[_FIELD_TYPES[key]]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"bad {noun} for {key}: {raw!r}") from None


def config_entries(path):
    """Yield (line number, key, raw value) for each ``key = value`` line of
    a config file. '#' starts a comment at the start of a line or after
    whitespace, so ``out = runs/run#2`` keeps its '#'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = re.sub(r"(^|\s)#.*", "", line).strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, raw = (part.strip() for part in line.split("=", 1))
                yield lineno, key, raw
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    """A config file's ``key = value`` lines (see ``config_entries``)."""
    values = {}
    for lineno, key, raw in config_entries(path):
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
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
    )


def prepare_data(cfg: ExperimentConfig, rng: Rng) -> DataBundle:
    """The training slices, each holding its own pairs, and the test set of
    ``cfg.data``; a vocabulary too large for the code space, or one that
    makes the MMD sample pool more than MMD_POOL_MAX rows, is a ConfigError
    before any training, and for ``synth`` before any session is drawn."""
    if cfg.data == "synth":
        check_capacity(cfg.n, cfg.k, cfg.synth_vocab)
        check_pool(cfg.mmd_samples, cfg.synth_vocab)
        res = synth_data(cfg, rng)
        train_sessions, test_sessions = layout_of(res.sessions), layout_of(res.test_sessions)
        vocab_size = cfg.synth_vocab
    else:
        if not os.path.exists(cfg.data):
            raise DataError(f"dataset not found: {cfg.data}")
        log = read_event_log(cfg.data, cfg.delimiter)
        indexed, vocab = filter_and_index(sessionize(log), log.item_ids)
        if len(vocab) < max(REPORT_KS):
            raise DataError(f"{len(vocab)} items are fewer than the report's K = {max(REPORT_KS)}")
        train_sessions, test_sessions = holdout_split(indexed)
        vocab_size = len(vocab)
        check_capacity(cfg.n, cfg.k, vocab_size)
        check_pool(cfg.mmd_samples, vocab_size)
    try:
        slices = temporal_slices(train_sessions, cfg.slice_plan())
    except DataError as exc:
        raise DataError(f"slices = {cfg.slices}: {exc}") from None
    return DataBundle(slices, augment_split(test_sessions), vocab_size)


class DeviceSim:
    """A replica of the deployed model: store, ledger, codes and float32
    table. The device consumes only wire frames and rebuilds its table from
    decoded bytes; the server keeps one more, the device it expects to ship
    to. ``apply_delta`` deploys a replica from its first delta; a delta that
    fails any check, or a rebuild that raises, leaves all four as they were."""

    def __init__(self, strategy: str, encoder_kind: str, gate: float):
        self.strategy = strategy
        self.encoder_kind = encoder_kind
        self.gate = gate
        self.store: CodebookStore | None = None
        self.ledger: SlotLedger | None = None
        self.codes: np.ndarray | None = None
        self.table: np.ndarray | None = None

    @property
    def epoch(self) -> int:
        return 0 if self.ledger is None else self.ledger.current_epoch

    def apply(self, delta: UpdateDelta) -> None:
        self.store, self.ledger, self.table = apply_delta(self.store, self.ledger, delta,
                                                          expected_strategy=self.strategy)
        self.codes = delta.codes

    def receive(self, frame: bytes) -> UpdateDelta:
        """Apply one frame; a deployed device checks the header's dimensions."""
        delta = wire.decode_delta(frame)
        if self.store is not None:
            dims = wire.frame_dims(frame)
            own = (len(self.table), self.store.n, self.store.k, self.store.d)
            if dims != own:
                raise DimensionMismatch(f"frame (vocab, n, k, d) = {dims}, device holds {own}")
        self.apply(delta)
        return delta

    def metrics(self, dataset) -> list[float]:
        return evaluate(self.table, dataset, self.encoder_kind, self.gate)


@dataclass
class RoundState:
    report: RoundReport
    server_ledger: SlotLedger
    device_ledger: SlotLedger
    frame: bytes | None


@dataclass
class SimulationResult:
    rounds: list[RoundState]

    @property
    def reports(self) -> list[RoundReport]:
        return [s.report for s in self.rounds]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def write_reports(out_dir: str, reports: list[RoundReport]) -> None:
    records = [dataclasses.asdict(rep) for rep in reports]
    _write_csv(os.path.join(out_dir, "report.csv"), REPORT_COLUMNS, records)
    _write_json(os.path.join(out_dir, "report.json"), records)


@dataclass
class CloudSlice:
    """The cloud model after one slice (its table a read-only copy), its
    held-out P@5/N@5/P@10/N@10, and seconds spent on them."""

    model: RecModel
    metrics: list[float]
    secs: float


def with_replay(new: SessionDataset, earlier: list[SessionDataset], rng: Rng) -> SessionDataset:
    """A uniform sample, without repeats and in temporal order, of
    min(earlier pairs, round(REPLAY_FRAC * len(new))) pairs of the
    ``earlier`` slices, then every pair of ``new``."""
    starts = np.concatenate([ds.starts for ds in earlier])
    ends = np.concatenate([ds.ends for ds in earlier])
    size = min(len(starts), round(REPLAY_FRAC * len(new)))
    pick = rng.sample(len(starts), size)
    return SessionDataset(new.items, np.concatenate([starts[pick], new.starts]),
                          np.concatenate([ends[pick], new.ends]))


def cloud_trajectory(cfg: ExperimentConfig, data: DataBundle):
    """Train the cloud model per slice, warm-started, yielding a CloudSlice
    each. Slice 1 trains on its pairs; each later slice on its new pairs
    plus a replay sample of earlier ones (``with_replay``), drawn from its
    own stream. Nothing here depends on the update strategy or ratio, so
    one trajectory serves every update arm."""
    model = init_model(data.vocab_size, cfg.d, Rng(cfg.seed).child("rec-init"), cfg.encoder)
    replay_rng = Rng(cfg.seed).child("rec-replay")
    for t, ds in enumerate(data.slices, start=1):
        start_time = time.perf_counter()
        if t > 1:
            ds = with_replay(ds, data.slices[:t - 1], replay_rng)
        train(model, ds, TrainConfig(epochs=cfg.rec_epochs, l2=cfg.l2, seed=cfg.seed + t, freeze_gate=t > 1))
        table = model.embeddings.copy()
        table.flags.writeable = False
        yield CloudSlice(RecModel(table, model.encoder_kind, model.gate_raw),
                         evaluate(model.embeddings, data.test, model.encoder_kind, model.gate),
                         time.perf_counter() - start_time)


def run_simulate(cfg: ExperimentConfig) -> SimulationResult:
    """The full loop into ``cfg.out``: the cloud trajectory, replayed as it trains."""
    data = prepare_data(cfg, Rng(cfg.seed))
    return replay(cfg, data, cloud_trajectory(cfg, data))


def deploy(cfg: ExperimentConfig, table: np.ndarray) -> UpdateDelta:
    """Train the codec on ``table``, harden its codes and refine them by
    ICM: the full epoch-1 delta that deploys it on a device."""
    store, encoder, _ = train_codec(table, CodecConfig(
        n=cfg.n, k=cfg.k, d=cfg.d, tau=cfg.tau, epochs=cfg.codec_epochs, batch=cfg.codec_batch, seed=cfg.seed))
    codes = refine_codes(store, harden(encoder, table), table)
    nk = cfg.n * cfg.k
    return UpdateDelta(1, "full", nk, store.rows, codes, list(range(nk)))


def replay(cfg: ExperimentConfig, data: DataBundle, trajectory) -> SimulationResult:
    """Per slice: train the codec and deploy with a full frame (slice 1), or
    measure drift, choose the update size and refit the server replica's
    slot rows and codes; ship the frame to the device, and apply the delta
    to the server's replica, so lockstep is equal ledgers and bit-equal
    store rows, codes and tables. Then evaluate the device. A round's secs
    include the slice's cloud seconds. Frames and reports go under ``cfg.out``."""
    frames_dir = make_dir(os.path.join(cfg.out, "frames"))
    remove_stale(frames_dir, r"round_\d{2,}\.odup")
    remove_stale(cfg.out, r"report\.(csv|json)")
    vocab, nk = data.vocab_size, cfg.n * cfg.k

    prev_table: np.ndarray | None = None
    cum_bytes = 0
    cr_m = model_cr(vocab, cfg.d, cfg.n, cfg.k)

    rounds: list[RoundState] = []
    for t, cloud_slice in enumerate(trajectory, start=1):
        start_time = time.perf_counter()
        table = cloud_slice.model.embeddings

        delta = None
        if t == 1:
            device = DeviceSim(cfg.strategy, cloud_slice.model.encoder_kind, cloud_slice.model.gate)
            server = DeviceSim(cfg.strategy, cloud_slice.model.encoder_kind, cloud_slice.model.gate)
            mmd_val, r_val, beta = 0.0, 0.0, nk
            delta = deploy(cfg, table)
        else:
            mmd_val = mmd2(prev_table, table, cfg.mmd_samples, cfg.seed)
            if cfg.strategy == "full":
                r_chosen: float | None = 1.0
            elif cfg.ratio_mode == "adaptive":
                r_chosen = choose_ratio(mmd_val, cfg.skip_threshold)
            else:
                r_chosen = cfg.r
            r_val = 0.0 if r_chosen is None else float(r_chosen)
            beta = 0 if r_chosen is None else beta_from_ratio(cfg.n, cfg.k, r_chosen)
            if beta:
                slots = plan_slots(server.ledger, cfg.strategy, beta)
                upd = retrain_update(server.store, server.codes, table, slots,
                                     epoch=server.epoch + 1, strategy=cfg.strategy)
                if not _same_bits(np.delete(server.store.rows, slots, 0), np.delete(upd.store.rows, slots, 0)):
                    raise ProtocolError("a frozen codebook row changed on the server")
                delta = upd.delta

        frame, nbytes = None, 0
        if delta is not None:
            frame = wire.encode_delta(delta, vocab=vocab, d=cfg.d, n=cfg.n, k=cfg.k)
            device.receive(frame)
            server.apply(delta)
            pairs = ((device.store.rows, server.store.rows), (device.codes, server.codes),
                     (device.table, server.table))
            if device.ledger != server.ledger or not all(_same_bits(a, b) for a, b in pairs):
                raise ProtocolError("server and device are out of lockstep")
            write_file(os.path.join(frames_dir, f"round_{t:02d}.odup"), frame)
            nbytes = len(frame)
        cum_bytes += nbytes

        cloud = cloud_slice.metrics
        dev = device.metrics(data.test)
        cr_u = update_cr(cfg.n, cfg.k, cfg.d, vocab, beta) if beta else 0.0
        cr_t = end_to_end_cr(vocab, cfg.d, cfg.n, beta) if beta else 0.0
        secs = cloud_slice.secs + time.perf_counter() - start_time if cfg.timing == "wall" else 0.0
        report = RoundReport(
            slice=t, strategy=cfg.strategy, r=r_val, beta=beta, mmd=mmd_val,
            delta_bytes=nbytes, cum_bytes=cum_bytes,
            cloud_p5=cloud[0], cloud_n5=cloud[1], cloud_p10=cloud[2], cloud_n10=cloud[3],
            dev_p5=dev[0], dev_n5=dev[1], dev_p10=dev[2], dev_n10=dev[3],
            cr_model=cr_m, cr_update=cr_u, cr_total=cr_t, secs=round(secs, 6),
        )
        # ledgers are never mutated, only rebound, so the round keeps references
        rounds.append(RoundState(report, server.ledger, device.ledger, frame))
        prev_table = table

    result = SimulationResult(rounds)
    write_reports(cfg.out, result.reports)
    return result


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
        if rec["strategy"] not in STRATEGIES:
            raise DataError(f"corrupt report: {path} (report column strategy holds {rec['strategy']!r}, "
                            f"not one of {', '.join(STRATEGIES)})")
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
        if any(c in name for c in ',"\r\n'):
            raise ConfigError(f"run name {name!r} holds a comma, quote or line break; "
                              "the report's CSV files hold it unquoted")
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
