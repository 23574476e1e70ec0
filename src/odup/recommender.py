"""Minimal model-agnostic session recommender.

The model owns a |V| x d item embedding table. A session prefix is encoded
either as the mean of its item embeddings ("mean_pool") or as
g * x_last + (1 - g) * mean with a learned scalar gate ("last_gated").
Scores are plain dot products against every item row; training minimizes
softmax cross-entropy of the next-item label plus L2 on the table, with
hand-rolled gradients and Adam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataError, TrainingDiverged
from .numkit import Adam, Rng, sigmoid

ENCODER_KINDS = ("mean_pool", "last_gated")
_EVAL_CHUNK = 512  # test pairs ranked per block in evaluate


@dataclass
class TrainConfig:
    lr: float
    epochs: int
    batch: int
    l2: float
    seed: int
    freeze_gate: bool


@dataclass
class RecModel:
    embeddings: np.ndarray          # (|V|, d) float64
    encoder_kind: str
    gate_raw: float                 # gate = sigmoid(gate_raw)

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
    def gate(self) -> float:
        return float(sigmoid(np.float64(self.gate_raw)))


def init_model(vocab_size: int, d: int, rng: Rng, encoder_kind: str) -> RecModel:
    """Uniform(-0.1, 0.1) initialization for the table and gate."""
    table = rng.uniform((vocab_size, d)) * 0.2 - 0.1
    gate_raw = float(rng.uniform() * 0.2 - 0.1)
    return RecModel(table, encoder_kind, gate_raw)


class Batch(NamedTuple):
    """One batch of pairs, every array a view of its epoch's plan.

    ``pad`` is (longest prefix, B) rows of the padded table: column j is
    pair j's prefix, then the zero row |V|. ``prefix`` holds the items of
    the real slots pair by pair and ``slot_rows`` the batch row of each;
    ``label_pos`` is each label's flat position ``row * |V| + label`` in
    the (B, |V|) scores.
    """

    pad: np.ndarray
    lens: np.ndarray
    last: np.ndarray
    labels: np.ndarray
    prefix: np.ndarray
    slot_rows: np.ndarray
    label_pos: np.ndarray


def padded_table(table) -> np.ndarray:
    """``table`` with a zero row |V| appended: the row padded slots gather."""
    table = np.asarray(table, dtype=np.float64)
    out = np.zeros((table.shape[0] + 1, table.shape[1]))
    out[:-1] = table
    return out


def _pad_and_slots(items, starts, lens, begins, counts, blocks, rows, vocab):
    """The epoch's pad blocks, and its real slots pair by pair (pair j's at
    begins[j]): their items, the scatter's index, and their batch rows."""
    pair = np.repeat(np.arange(len(lens)), lens)
    col = np.arange(len(pair))
    col -= begins[pair]  # slot t is column col[t] of pair[t]
    prefix = items[starts[pair] + col]
    # batch b's pad block is (widths[b], counts[b]), column j holding pair lo + j
    col *= np.repeat(counts, counts)[pair]
    col += (np.repeat(blocks[:-1], counts) + rows)[pair]
    pad = np.full(blocks[-1], vocab, dtype=prefix.dtype)
    pad[col] = prefix
    return pad, prefix, rows[pair]


def plan_batches(dataset, order, size: int, vocab: int):
    """The pairs ``order`` (an index array or a slice) of a SessionDataset
    in batches of ``size``, every batch a view of one plan built for all."""
    starts, ends = dataset.starts[order], dataset.ends[order]
    lens = ends - starts
    n = len(lens)
    los = np.arange(0, n, size)
    counts = np.minimum(size, n - los)
    widths = np.maximum.reduceat(lens, los)
    blocks = np.concatenate(([0], np.cumsum(counts * widths)))
    rows = np.arange(n) - np.repeat(los, counts)  # each pair's row in its batch
    slot_ends = np.cumsum(lens)
    begins = slot_ends - lens
    # a helper, so its slot-sized temporaries are freed before the batches run
    pad, prefix, slot_rows = _pad_and_slots(dataset.items, starts, lens, begins, counts, blocks, rows,
                                            vocab)
    last, labels = dataset.items[ends - 1], dataset.items[ends]
    label_pos = rows * vocab + labels
    his = los + counts
    for lo, hi, w, b0, p0, p1 in zip(los.tolist(), his.tolist(), widths.tolist(), blocks.tolist(),
                                     begins[los].tolist(), slot_ends[his - 1].tolist()):
        yield Batch(pad[b0: b0 + w * (hi - lo)].reshape(w, hi - lo), lens[lo:hi],
                    last[lo:hi], labels[lo:hi], prefix[p0:p1], slot_rows[p0:p1], label_pos[lo:hi])


def _encode_batch(table, gate_value, encoder_kind, batch: Batch):
    """Session embeddings from the padded table; returns (S, means)."""
    means = table[batch.pad].sum(axis=0) / batch.lens[:, None]
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
    """Mean softmax cross-entropy over the batch plus l2 * ||X||^2, where
    ``table`` is the padded (|V| + 1, d) table and X its first |V| rows.

    Returns (loss, dX, dgate_raw). Pure in its inputs; used by train() and
    by the finite-difference gradient tests.
    """
    B = len(batch.lens)
    X = table[:-1]
    gated = encoder_kind == "last_gated"
    g = float(sigmoid(np.float64(gate_raw))) if gated else 0.0
    S, means = _encode_batch(table, g, encoder_kind, batch)
    Y = S @ X.T
    flat_Y = Y.reshape(-1)
    label_logits = flat_Y[batch.label_pos]
    m = Y.max(axis=-1, keepdims=True)
    # Y becomes E = exp(Y - m), then DY = (softmax - onehot) / B, in place
    DY = np.exp(np.subtract(Y, m, out=Y), out=Y)
    total = DY.sum(axis=-1, keepdims=True)
    ce = m[:, 0] + np.log(total[:, 0]) - label_logits
    loss = float(ce.mean() + l2 * (X * X).sum())

    DY /= total * B
    flat_Y[batch.label_pos] -= 1.0 / B
    dX = DY.T @ S
    DS = DY @ X
    # scatter the mean-path gradient: each prefix occurrence of item v gets
    # (1-g) * DS_j / len_j; the gated path adds g * DS_j to the last item
    # of prefix j
    per_slot = ((1.0 - g) * DS if gated else DS) / batch.lens[:, None]
    index = batch.prefix
    values = per_slot[batch.slot_rows]
    dgate_raw = 0.0
    if gated:
        index = np.concatenate([index, batch.last])
        values = np.concatenate([values, g * DS])
        if want_gate_grad:
            dgate = float(np.sum(DS * (table[batch.last] - means)))
            dgate_raw = dgate * g * (1.0 - g)
    dX += _scatter_rows(index, values, X.shape[0])
    dX += 2.0 * l2 * X
    return loss, dX, dgate_raw


def train(model: RecModel, dataset, cfg: TrainConfig) -> list[float]:
    """Mini-batch Adam on the cross-entropy objective; returns the per-epoch
    mean training loss. Raises TrainingDiverged if the loss goes non-finite,
    leaving ``model`` as it was.
    """
    n = len(dataset)
    if n == 0:
        raise DataError("cannot train on an empty dataset")
    vocab = model.vocab_size
    if dataset.items.min() < 0 or dataset.items.max() >= vocab:
        raise DataError("dataset item outside the model vocabulary")
    rng = Rng(cfg.seed).child("rec-shuffle")
    table = padded_table(model.embeddings)
    gate = np.array([model.gate_raw], dtype=np.float64)
    train_gate = model.encoder_kind == "last_gated" and not cfg.freeze_gate
    # a gate with no gradient never moves under Adam, so only a trained one steps
    params = [table[:-1], gate] if train_gate else [table[:-1]]
    adam = Adam(cfg.lr)
    losses: list[float] = []
    # an overflow is reported as TrainingDiverged, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            epoch_losses = []
            for batch in plan_batches(dataset, rng.permutation(n), cfg.batch, vocab):
                loss, dX, dg = _loss_and_grads(
                    table, gate[0], model.encoder_kind, batch, cfg.l2, train_gate
                )
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"recommender loss became non-finite ({loss})")
                adam.step(params, [dX, np.array([dg])] if train_gate else [dX])
                epoch_losses.append(loss)
            del batch  # its views would hold this epoch's plan while the next is built
            losses.append(float(np.mean(epoch_losses)))
    model.embeddings[...] = table[:-1]
    model.gate_raw = float(gate[0])
    return losses


def evaluate(table, dataset, ks, encoder_kind: str, gate: float) -> list[float]:
    """[Prec@K, NDCG@K] for each K in ``ks``, flattened in that order, from
    one ranking of the dataset.

    Prec@K is the hit rate of the single next-item label inside the top-K
    list (descending score, ties to the lower item index); the NDCG@K
    contribution of a hit at rank r is 1/log2(r + 1). Sessions are encoded
    from ``table`` by ``encoder_kind``; ``gate`` is the sigmoid gate value
    that ``last_gated`` uses.
    """
    table = np.asarray(table, dtype=np.float64)
    vocab = table.shape[0]
    if not all(1 <= k <= vocab for k in ks):
        raise ValueError(f"K must lie in [1, {vocab}]")
    if len(dataset) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    idx = np.arange(vocab)
    padded = padded_table(table)
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
    for k in ks:
        hit = rank <= k
        out += [float(hit.mean()), float(np.where(hit, gain, 0.0).mean())]
    return out

