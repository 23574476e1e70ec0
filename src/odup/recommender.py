"""Minimal model-agnostic session recommender.

The model owns a |V| x d item embedding table. A session prefix is encoded
either as the mean of its item embeddings ("mean_pool") or as
g * x_last + (1 - g) * mean with a learned scalar gate ("last_gated").
Scores are plain dot products against every item row; training minimizes
softmax cross-entropy of the next-item label plus L2 on the table, with
hand-rolled gradients and Adam.

The table is float32, and training runs in float32 on the calling thread:
each batch and the table's Adam moments are float32 too. The gate and
``evaluate`` stay float64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, TrainingDiverged
from .numkit import Adam, Rng, sigmoid

ENCODER_KINDS = ("mean_pool", "last_gated")
_EVAL_CHUNK = 256  # test pairs ranked per block in evaluate
_PLAN_BATCHES = 64  # batches that plan_batches pads and indexes at once
REPORT_KS = (5, 10)  # the K of every report's P@K and N@K, as evaluate gives them
REC_LR, REC_BATCH = 0.01, 100  # Adam's step size and the pairs per batch of train


@dataclass
class TrainConfig:
    epochs: int
    l2: float
    seed: int
    freeze_gate: bool


@dataclass
class RecModel:
    embeddings: np.ndarray          # (|V|, d) float32
    encoder_kind: str
    gate_raw: float                 # gate = sigmoid(gate_raw)

    def __post_init__(self):
        with np.errstate(over="ignore"):
            self.embeddings = np.asarray(self.embeddings, dtype=np.float32)
        if self.embeddings.ndim != 2 or self.embeddings.shape[0] < 1 or self.embeddings.shape[1] < 2:
            raise ValueError("embedding table must be |V| x d with |V| >= 1, d >= 2")
        if not np.all(np.isfinite(self.embeddings)):
            raise ValueError("embedding table must be finite in float32")
        if self.encoder_kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind {self.encoder_kind!r}")

    @property
    def vocab_size(self) -> int:
        return self.embeddings.shape[0]

    @property
    def gate(self) -> float:
        return float(sigmoid(np.float64(self.gate_raw)))


def init_model(vocab_size: int, d: int, rng: Rng, encoder_kind: str) -> RecModel:
    """Uniform(-0.1, 0.1) initialization for the table and gate."""
    table = (rng.uniform((vocab_size, d)) * 0.2 - 0.1).astype(np.float32)
    gate_raw = float(rng.uniform() * 0.2 - 0.1)
    return RecModel(table, encoder_kind, gate_raw)


class Batch(NamedTuple):
    """One batch of pairs, every array a view of its group's plan.

    ``pad`` is (longest prefix, B) rows of the padded table: column j is
    pair j's prefix, then the zero row |V|. ``prefix`` holds the items of
    the real slots pair by pair, the scatter's index; ``label_pos`` is each
    label's flat position ``row * |V| + label`` in the (B, |V|) scores.
    """

    pad: np.ndarray
    lens: np.ndarray
    last: np.ndarray
    labels: np.ndarray
    prefix: np.ndarray
    label_pos: np.ndarray


def padded_table(table) -> np.ndarray:
    """``table`` with a zero row |V| appended, in its dtype: the row padded
    slots gather."""
    table = np.asarray(table)
    out = np.zeros((table.shape[0] + 1, table.shape[1]), dtype=table.dtype)
    out[:-1] = table
    return out


def plan_batches(dataset, order, size: int, vocab: int):
    """The pairs ``order`` (an index array or a slice) of a SessionDataset
    in batches of ``size``, planned _PLAN_BATCHES batches at a time: each
    batch is views of its group's plan, a pad as wide as the group's
    longest prefix and the real slots' items pair by pair."""
    starts, ends = dataset.starts[order], dataset.ends[order]
    step = size * _PLAN_BATCHES
    for g in range(0, len(starts), step):
        g_starts, g_ends = starts[g: g + step], ends[g: g + step]
        lens = g_ends - g_starts
        cols = np.arange(int(lens.max()))[:, None]
        real = cols < lens
        pad = np.where(real, dataset.items.take(g_starts + cols, mode="clip"), vocab)
        prefix = pad.T[real.T]  # pair-major: the scatter's order
        last, labels = dataset.items[g_ends - 1], dataset.items[g_ends]
        label_pos = (np.arange(len(lens)) % size) * vocab + labels
        los = np.arange(0, len(lens), size)
        widths = np.maximum.reduceat(lens, los).tolist()
        slot_ends = np.add.reduceat(lens, los).cumsum().tolist()
        for lo, w, p0, p1 in zip(los.tolist(), widths, [0] + slot_ends, slot_ends):
            hi = lo + size
            yield Batch(pad[:w, lo:hi], lens[lo:hi], last[lo:hi], labels[lo:hi], prefix[p0:p1],
                        label_pos[lo:hi])


def _encode_batch(table, gate_value, encoder_kind, batch: Batch):
    """Session embeddings from the padded table, in its dtype; returns (S, means)."""
    dt = table.dtype.type
    means = table[batch.pad].sum(axis=0) / batch.lens.astype(dt)[:, None]
    if encoder_kind == "last_gated":
        return dt(gate_value) * table[batch.last] + dt(1.0 - gate_value) * means, means
    return means, means


def _scatter_rows(index, values, vocab):
    """Dense (vocab, d) sums of the rows of ``values`` grouped by ``index``;
    what np.add.at(out, index, values) adds, as one bincount."""
    d = values.shape[1]
    flat = (index[:, None] * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=values.ravel(), minlength=vocab * d).reshape(vocab, d)


def _softmax_rows(Y, label_pos):
    """The (B, |V|) scores Y become DY = (softmax - onehot) / B in place;
    returns each row's cross-entropy."""
    B = len(Y)
    dt = Y.dtype.type
    flat_Y = Y.reshape(-1)
    label_logits = flat_Y[label_pos]
    m = Y.max(axis=-1, keepdims=True)
    np.exp(np.subtract(Y, m, out=Y), out=Y)
    total = Y.sum(axis=-1, keepdims=True)
    ce = m[:, 0] + np.log(total[:, 0]) - label_logits
    Y /= total * dt(B)
    flat_Y[label_pos] -= dt(1.0 / B)
    return ce


def _scatter_grads(table, g, encoder_kind, batch: Batch, DY, means, want_gate_grad):
    """DS = DY @ X scattered to the table, (scatter, dgate_raw): each prefix
    occurrence of item v gets (1-g) * DS_j / len_j; the gated path adds
    g * DS_j to the last item of prefix j, the values in the order of
    ``batch.prefix`` (pair j's row repeated len_j times). Everything is in
    the dtype of the padded ``table``; the scatter sums in float64 and is
    cast once."""
    X = table[:-1]
    dt = table.dtype.type
    gated = encoder_kind == "last_gated"
    DS = DY @ X
    per_slot = (dt(1.0 - g) * DS if gated else DS) / batch.lens.astype(dt)[:, None]
    index = batch.prefix
    values = np.repeat(per_slot, batch.lens, axis=0)
    dgate_raw = 0.0
    if gated:
        index = np.concatenate([index, batch.last])
        values = np.concatenate([values, dt(g) * DS])
        if want_gate_grad:
            dgate = float(np.sum(DS * (table[batch.last] - means)))
            dgate_raw = dgate * g * (1.0 - g)
    return _scatter_rows(index, values, X.shape[0]).astype(dt, copy=False), dgate_raw


def _loss_and_grads(table, gate_raw, encoder_kind, batch: Batch, l2, want_gate_grad):
    """Mean softmax cross-entropy over the batch, and the gradients of it
    plus l2 * ||X||^2, where ``table`` is the padded (|V| + 1, d) table and
    X its first |V| rows. Computes in the dtype of ``table`` (train passes
    float32; the finite-difference tests pass float64).

    Returns (loss, dX, dgate_raw): the loss leaves the l2 term out, which
    train never reads; dX is the scatter, plus ``DY.T @ S``, plus the l2
    gradient (2 * l2) * X. Pure in its inputs.
    """
    dt = table.dtype.type
    g = float(sigmoid(np.float64(gate_raw))) if encoder_kind == "last_gated" else 0.0
    S, means = _encode_batch(table, g, encoder_kind, batch)
    Y = S @ table[:-1].T
    ce = _softmax_rows(Y, batch.label_pos)
    dX, dgate_raw = _scatter_grads(table, g, encoder_kind, batch, Y, means, want_gate_grad)
    dX += Y.T @ S
    del Y  # freed before the l2 gradient adds its (|V|, d) array to the peak
    dX += dt(2.0 * l2) * table[:-1]
    return float(ce.mean()), dX, dgate_raw


def _require_finite(X):
    if not np.isfinite(X).all():
        raise TrainingDiverged("recommender table entry became non-finite in float32")


def train(model: RecModel, dataset, cfg: TrainConfig) -> None:
    """Mini-batch Adam on the cross-entropy objective, REC_BATCH pairs per
    batch at step size REC_LR, in float32 throughout: the padded table,
    every batch (``_loss_and_grads``) and the table's Adam moments. The
    trained values are written back to ``model.embeddings``. Raises
    TrainingDiverged, leaving ``model`` as it was, when the table holds a
    non-finite entry, in the first batch whose loss goes non-finite, or in
    the first whose Adam step leaves a non-finite table entry.
    """
    n = len(dataset)
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    vocab = model.vocab_size
    if dataset.items.min() < 0 or dataset.items.max() >= vocab:
        raise DataError("dataset item outside the model vocabulary")
    rng = Rng(cfg.seed).child("rec-shuffle")
    gate = np.array([model.gate_raw], dtype=np.float64)
    train_gate = model.encoder_kind == "last_gated" and not cfg.freeze_gate
    # an overflow is reported as TrainingDiverged, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        table = padded_table(model.embeddings)
        X = table[:-1]
        _require_finite(X)
        # a gate with no gradient never moves under Adam, so only a trained one steps
        adam = Adam([X, gate] if train_gate else [X], REC_LR)
        for _ in range(cfg.epochs):
            for batch in plan_batches(dataset, rng.permutation(n), REC_BATCH, vocab):
                loss, dX, dg = _loss_and_grads(table, gate[0], model.encoder_kind, batch, cfg.l2,
                                               train_gate)
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"recommender loss became non-finite ({loss})")
                adam.step([dX, np.array([dg])] if train_gate else [dX])
                _require_finite(X)
            del batch  # its views would hold the last group's plan while the next epoch's is built
    model.embeddings[...] = X
    model.gate_raw = float(gate[0])


def evaluate(table, dataset, encoder_kind: str, gate: float) -> list[float]:
    """[Prec@K, NDCG@K] for each K in REPORT_KS, flattened in that order, from
    one ranking of the dataset.

    Prec@K is the hit rate of the single next-item label inside the top-K
    list (descending score, ties to the lower item index); the NDCG@K
    contribution of a hit at rank r is 1/log2(r + 1). Sessions are encoded
    from ``table`` by ``encoder_kind``; ``gate`` is the sigmoid gate value
    that ``last_gated`` uses.
    """
    padded = padded_table(np.asarray(table, dtype=np.float64))
    table = padded[:-1]
    vocab = table.shape[0]
    if not all(1 <= k <= vocab for k in REPORT_KS):
        raise ValueError(f"K must lie in [1, {vocab}]")
    if len(dataset) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    idx = np.arange(vocab)
    ranks = []
    for sub in plan_batches(dataset, slice(None), _EVAL_CHUNK, vocab):
        S, _ = _encode_batch(padded, gate, encoder_kind, sub)
        scores = S @ table.T
        label_scores = scores.reshape(-1)[sub.label_pos][:, None]
        rank = 1 + np.count_nonzero(scores > label_scores, axis=1)
        # ties go to the lower item index; only rows with a tie look for them
        equal = scores == label_scores
        tied = np.flatnonzero(np.count_nonzero(equal, axis=1) > 1)
        rank[tied] += np.count_nonzero(equal[tied] & (idx < sub.labels[tied, None]), axis=1)
        ranks.append(rank)
    rank = np.concatenate(ranks)
    gain = 1.0 / np.log2(rank + 1.0)
    out = []
    for k in REPORT_KS:
        hit = rank <= k
        out += [float(hit.mean()), float(np.where(hit, gain, 0.0).mean())]
    return out

