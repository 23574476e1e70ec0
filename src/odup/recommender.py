"""Minimal model-agnostic session recommender.

The model owns a |V| x d item embedding table. A session prefix is encoded
either as the mean of its item embeddings ("mean_pool") or as
g * x_last + (1 - g) * mean with a learned scalar gate ("last_gated").
Scores are plain dot products against every item row; training minimizes
softmax cross-entropy of the next-item label plus L2 on the table, with
hand-rolled gradients and Adam.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, TrainingDiverged
from .numkit import Adam, Rng, sigmoid
from .sealed import SealedReader, seal, write_file

ENCODER_KINDS = ("mean_pool", "last_gated")

CHECKPOINT_VERSION = 1
_EVAL_CHUNK = 512  # test pairs ranked per block in evaluate


@dataclass
class TrainConfig:
    lr: float = 0.01
    epochs: int = 30
    batch: int = 100
    l2: float = 1e-5
    seed: int = 0
    freeze_gate: bool = False

    def __post_init__(self):
        if not 0 <= self.lr <= 1:
            raise ValueError("lr must lie in [0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.l2 < 0:
            raise ValueError("l2 must be non-negative")


@dataclass
class RecModel:
    embeddings: np.ndarray          # (|V|, d) float64
    encoder_kind: str = "mean_pool"
    gate_raw: float = 0.0           # gate = sigmoid(gate_raw)

    def __post_init__(self):
        self.embeddings = np.asarray(self.embeddings, dtype=np.float64)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] < 1 or self.embeddings.shape[1] < 2:
            raise ValueError("embedding table must be |V| x d with |V| >= 1, d >= 2")
        if not np.all(np.isfinite(self.embeddings)):
            raise ValueError("embedding table must be finite")
        if self.encoder_kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.encoder_kind!r}")

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def d(self) -> int:
        return self.embeddings.shape[1]

    @property
    def gate(self) -> float:
        return float(sigmoid(np.float64(self.gate_raw)))


def init_model(vocab_size: int, d: int, rng: Rng, encoder_kind: str = "mean_pool") -> RecModel:
    """Uniform(-0.1, 0.1) initialization for the table and gate."""
    table = rng.uniform((vocab_size, d)) * 0.2 - 0.1
    gate_raw = float(rng.uniform() * 0.2 - 0.1)
    return RecModel(table, encoder_kind, gate_raw)


class Batch(NamedTuple):
    """One batch of pairs; ``pad`` is (B, longest prefix), holding item 0
    where ``mask`` is False."""

    n: int
    pad: np.ndarray
    mask: np.ndarray
    lens: np.ndarray
    last: np.ndarray
    labels: np.ndarray


def gather_batch(dataset, idx) -> Batch:
    """The pairs ``idx`` (an index array or a slice) of a SessionDataset."""
    starts, ends = dataset.starts[idx], dataset.ends[idx]
    lens = ends - starts
    cols = np.arange(int(lens.max()))
    mask = cols < lens[:, None]
    pad = np.where(mask, dataset.items.take(starts[:, None] + cols, mode="clip"), 0)
    return Batch(len(lens), pad, mask, lens, dataset.items[ends - 1], dataset.items[ends])


def _encode_batch(table, gate_value, encoder_kind, batch: Batch):
    gathered = table[batch.pad] * batch.mask[:, :, None]
    means = gathered.sum(axis=1) / batch.lens[:, None]
    if encoder_kind == "last_gated":
        return gate_value * table[batch.last] + (1.0 - gate_value) * means, means
    return means, means


def _scatter_rows(index, values, vocab):
    """Dense (vocab, d) sums of the rows of ``values`` grouped by ``index``;
    what np.add.at(out, index, values) adds, as one bincount."""
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=vocab * d).reshape(vocab, d)


def _loss_and_grads(table, gate_raw, encoder_kind, batch: Batch, l2, want_gate_grad):
    """Mean softmax cross-entropy over the batch plus l2 * ||X||^2.

    Returns (loss, dX, dgate_raw). Pure in its inputs; used by train() and
    by the finite-difference gradient tests.
    """
    B = batch.n
    gated = encoder_kind == "last_gated"
    g = float(sigmoid(np.float64(gate_raw))) if gated else 0.0
    S, means = _encode_batch(table, g, encoder_kind, batch)
    Y = S @ table.T
    rows = np.arange(B)
    label_logits = Y[rows, batch.labels]
    m = np.max(Y, axis=-1, keepdims=True)
    # Y becomes E = exp(Y - m), then DY = (softmax - onehot) / B, in place
    DY = np.exp(np.subtract(Y, m, out=Y), out=Y)
    total = np.sum(DY, axis=-1, keepdims=True)
    ce = m[:, 0] + np.log(total[:, 0]) - label_logits
    loss = float(ce.mean() + l2 * np.sum(table * table))

    DY /= total * B
    DY[rows, batch.labels] -= 1.0 / B
    dX = DY.T @ S
    DS = DY @ table
    # scatter the mean-path gradient: each prefix occurrence of item v gets
    # (1-g) * DS_j / len_j (g = 0 for mean_pool); the gated path adds
    # g * DS_j to the last item of prefix j
    per_slot = ((1.0 - g) if gated else 1.0) * DS / batch.lens[:, None]
    index = batch.pad[batch.mask]
    values = per_slot[np.repeat(rows, batch.lens)]
    dgate_raw = 0.0
    if gated:
        index = np.concatenate([index, batch.last])
        values = np.concatenate([values, g * DS])
        if want_gate_grad:
            dgate = float(np.sum(DS * (table[batch.last] - means)))
            dgate_raw = dgate * g * (1.0 - g)
    dX += _scatter_rows(index, values, table.shape[0])
    dX += 2.0 * l2 * table
    return loss, dX, dgate_raw


def train(model: RecModel, dataset, cfg: TrainConfig) -> list[float]:
    """Mini-batch Adam on the cross-entropy objective; returns the per-epoch
    mean training loss. Raises TrainingDiverged if the loss goes non-finite.
    """
    n = len(dataset)
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    if dataset.items.min() < 0 or dataset.items.max() >= model.vocab_size:
        raise DataError("dataset item outside the model vocabulary")
    rng = Rng(cfg.seed).child("rec-shuffle")
    table = model.embeddings
    gate = np.array([model.gate_raw], dtype=np.float64)
    train_gate = model.encoder_kind == "last_gated" and not cfg.freeze_gate
    adam = Adam(cfg.lr)
    losses: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_losses = []
        for lo in range(0, n, cfg.batch):
            batch = gather_batch(dataset, order[lo: lo + cfg.batch])
            loss, dX, dg = _loss_and_grads(
                table, gate[0], model.encoder_kind, batch, cfg.l2, train_gate
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(f"recommender loss became non-finite ({loss})")
            adam.step([table, gate], [dX, np.array([dg])])
            epoch_losses.append(loss)
        losses.append(float(np.mean(epoch_losses)))
    model.gate_raw = float(gate[0])
    return losses


def _eval_parts(model_or_table, encoder_kind, gate):
    if isinstance(model_or_table, RecModel):
        m = model_or_table
        return m.embeddings, m.encoder_kind, m.gate
    table = np.asarray(model_or_table, dtype=np.float64)
    return table, encoder_kind or "mean_pool", 0.5 if gate is None else float(gate)


def evaluate(model_or_table, dataset, ks, *, encoder_kind: str | None = None,
             gate: float | None = None) -> list[float]:
    """[Prec@K, NDCG@K] for each K in ``ks``, flattened in that order, from
    one ranking of the dataset.

    Prec@K is the hit rate of the single next-item label inside the top-K
    list (descending score, ties to the lower item index); the NDCG@K
    contribution of a hit at rank r is 1/log2(r + 1). Accepts a RecModel or
    a bare embedding table (device-side evaluation) plus encoder settings.
    """
    table, kind, g = _eval_parts(model_or_table, encoder_kind, gate)
    vocab = table.shape[0]
    if not all(1 <= k <= vocab for k in ks):
        raise ValueError(f"K must lie in [1, {vocab}]")
    if len(dataset) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    idx = np.arange(vocab)
    ranks = []
    for lo in range(0, len(dataset), _EVAL_CHUNK):
        sub = gather_batch(dataset, slice(lo, lo + _EVAL_CHUNK))
        S, _ = _encode_batch(table, g, kind, sub)
        scores = S @ table.T
        label_scores = scores[np.arange(sub.n), sub.labels]
        greater = (scores > label_scores[:, None]).sum(axis=1)
        ties_before = ((scores == label_scores[:, None]) & (idx[None, :] < sub.labels[:, None])).sum(axis=1)
        ranks.append(1 + greater + ties_before)
    rank = np.concatenate(ranks)
    gain = 1.0 / np.log2(rank + 1.0)
    out = []
    for k in ks:
        hit = rank <= k
        out += [float(hit.mean()), float(np.where(hit, gain, 0.0).mean())]
    return out


def save_checkpoint(path, table: np.ndarray) -> None:
    """Table checkpoint: u8 version, u32 rows, u32 cols, row-major float32
    little-endian data, trailing u32 CRC-32 over all preceding bytes.
    """
    table = np.asarray(table)
    body = struct.pack("<BII", CHECKPOINT_VERSION, table.shape[0], table.shape[1])
    write_file(path, seal(body + table.astype("<f4").tobytes()))


def load_checkpoint(path) -> np.ndarray:
    r = SealedReader(path, "checkpoint")
    version, rows, cols = r.unpack("<BII")
    if version != CHECKPOINT_VERSION:
        raise r.error(f"version {version} is unsupported")
    if min(rows, cols) < 1:
        raise r.error("has a zero dimension")
    data = r.array("<f4", rows * cols)
    r.finish()
    return data.reshape(rows, cols).astype(np.float64)
