"""Minimal model-agnostic session recommender.

The model owns a |V| x d item embedding table. A session prefix is encoded
either as the mean of its item embeddings ("mean_pool") or as
g * x_last + (1 - g) * mean with a learned scalar gate ("last_gated").
Scores are plain dot products against every item row; training minimizes
softmax cross-entropy of the next-item label plus L2 on the table, with
hand-rolled gradients and Adam.

Training runs in float32 on the calling thread: the table, each batch and
the table's Adam moments are float32. ``RecModel.embeddings`` stays
float64, and ``init_model`` draws values that float32 holds exactly, so a
drawn or trained table enters training without rounding. The gate and
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
REC_LR, REC_BATCH = 0.01, 100  # Adam's step size and the pairs per batch of train


@dataclass
class TrainConfig:
    epochs: int
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
    """Uniform(-0.1, 0.1) initialization for the table and gate; the
    table's entries are rounded to float32, in which ``train`` runs."""
    table = (rng.uniform((vocab_size, d)) * 0.2 - 0.1).astype(np.float32).astype(np.float64)
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
    """``table`` with a zero row |V| appended, in its dtype: the row padded
    slots gather."""
    table = np.asarray(table)
    out = np.zeros((table.shape[0] + 1, table.shape[1]), dtype=table.dtype)
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
    g * DS_j to the last item of prefix j. Everything is in the dtype of
    the padded ``table``; the scatter sums in float64 and is cast once."""
    X = table[:-1]
    dt = table.dtype.type
    gated = encoder_kind == "last_gated"
    DS = DY @ X
    per_slot = (dt(1.0 - g) * DS if gated else DS) / batch.lens.astype(dt)[:, None]
    index = batch.prefix
    values = per_slot[batch.slot_rows]
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
    trained values are written back to ``model.embeddings`` widened, which
    is exact. Raises TrainingDiverged, leaving ``model`` as it was, when the
    table narrowed to float32 holds a non-finite entry (one beyond
    float32's range, about 3.4e38, included), in the first batch whose loss
    goes non-finite, or in the first whose Adam step leaves a non-finite
    table entry.
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
    adam = Adam(REC_LR)
    # an overflow is reported as TrainingDiverged, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        table = padded_table(model.embeddings.astype(np.float32))
        X = table[:-1]
        _require_finite(X)
        # a gate with no gradient never moves under Adam, so only a trained one steps
        params = [X, gate] if train_gate else [X]
        for _ in range(cfg.epochs):
            for batch in plan_batches(dataset, rng.permutation(n), REC_BATCH, vocab):
                loss, dX, dg = _loss_and_grads(table, gate[0], model.encoder_kind, batch, cfg.l2,
                                               train_gate)
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"recommender loss became non-finite ({loss})")
                adam.step(params, [dX, np.array([dg])] if train_gate else [dX])
                _require_finite(X)
            del batch  # its views would hold this epoch's plan while the next is built
    model.embeddings[...] = X
    model.gate_raw = float(gate[0])


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

