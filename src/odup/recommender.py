"""Minimal model-agnostic session recommender.

The model owns a |V| x d item embedding table. A session prefix is encoded
either as the mean of its item embeddings ("mean_pool") or as
g * x_last + (1 - g) * mean with a learned scalar gate ("last_gated").
Scores are plain dot products against every item row; training minimizes
softmax cross-entropy of the next-item label plus L2 on the table, with
hand-rolled gradients and Adam.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from . import BLAS_ONE_THREAD
from .errors import DataError, TrainingDiverged
from .numkit import Adam, Rng, sigmoid

ENCODER_KINDS = ("mean_pool", "last_gated")
_EVAL_CHUNK = 512  # test pairs ranked per block in evaluate
# Elements that the table and the helper's half of a batch's (B, |V|)
# scores must each hold before train shares its work with a helper thread.
# Smaller, the round trip (about 25 us on a 2-CPU VM), the two threads'
# turns at the GIL and the scores moving between the cores' caches cost
# more than the halves save.
SPLIT_MIN = 1 << 15
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


def _pair(pool, helper, main):
    """``(helper(), main())``, with ``helper`` on ``pool``'s thread beside
    ``main`` on the calling thread. The helper runs under the caller's numpy
    error state, which numpy does not pass to threads."""
    err = np.geterr()

    def task():
        with np.errstate(**err):
            return helper()

    future = pool.submit(task)
    try:
        mine = main()
    finally:
        future.exception()  # waits: the helper writes into arrays the caller reads next
    return future.result(), mine


def _l2_terms(X, l2):
    """The loss's l2 * ||X||^2 and its gradient 2 * l2 * X."""
    return l2 * (X * X).sum(), 2.0 * l2 * X


def _forward(table, g, encoder_kind, batch: Batch):
    """(S, means, Y): the session embeddings and their scores S @ X.T."""
    S, means = _encode_batch(table, g, encoder_kind, batch)
    return S, means, S @ table[:-1].T


def _softmax_rows(Y, label_pos, rows: slice):
    """Rows ``rows`` of the (B, |V|) scores Y become DY = (softmax - onehot)
    / B in place; returns their cross-entropy. Every step is row by row, so
    any split of the rows gives the same bits."""
    B = len(Y)
    flat_Y = Y.reshape(-1)
    pos = label_pos[rows]
    label_logits = flat_Y[pos]
    E = Y[rows]
    m = E.max(axis=-1, keepdims=True)
    np.exp(np.subtract(E, m, out=E), out=E)
    total = E.sum(axis=-1, keepdims=True)
    ce = m[:, 0] + np.log(total[:, 0]) - label_logits
    E /= total * B
    flat_Y[pos] -= 1.0 / B
    return ce


def _scatter_grads(table, g, encoder_kind, batch: Batch, DY, means, want_gate_grad):
    """DS = DY @ X scattered to the table, (scatter, dgate_raw): each prefix
    occurrence of item v gets (1-g) * DS_j / len_j; the gated path adds
    g * DS_j to the last item of prefix j."""
    X = table[:-1]
    gated = encoder_kind == "last_gated"
    DS = DY @ X
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
    return _scatter_rows(index, values, X.shape[0]), dgate_raw


def _gate_value(gate_raw, encoder_kind) -> float:
    """The g that ``last_gated`` mixes the last item in by; 0.0 otherwise."""
    return float(sigmoid(np.float64(gate_raw))) if encoder_kind == "last_gated" else 0.0


def _loss_and_grads(table, gate_raw, encoder_kind, batch: Batch, l2, want_gate_grad):
    """Mean softmax cross-entropy over the batch plus l2 * ||X||^2, where
    ``table`` is the padded (|V| + 1, d) table and X its first |V| rows.

    Returns (loss, dX, dgate_raw). Pure in its inputs; train() runs it when
    it has no helper thread, and the finite-difference gradient tests call
    it. ``_split_loss_and_grads`` runs the same phases in pairs.
    """
    g = _gate_value(gate_raw, encoder_kind)
    S, means, Y = _forward(table, g, encoder_kind, batch)
    ce = _softmax_rows(Y, batch.label_pos, slice(None))
    dX = Y.T @ S
    scatter, dgate_raw = _scatter_grads(table, g, encoder_kind, batch, Y, means, want_gate_grad)
    dX += scatter
    del scatter  # freed first, so the l2 terms add one (|V|, d) array to the peak, not two
    reg, l2_grad = _l2_terms(table[:-1], l2)
    dX += l2_grad
    return float(ce.mean() + reg), dX, dgate_raw


def _split_loss_and_grads(pool, table, gate_raw, encoder_kind, batch: Batch, l2, want_gate_grad):
    """``_loss_and_grads`` with its phases in pairs, each pair side by side
    on this thread and ``pool``'s helper: the l2 terms beside the encode
    and the score product, batch rows [B/2, B) beside [0, B/2) through the
    softmax, and ``DY.T @ S`` beside ``DY @ X`` and the scatter. No product
    is split, so the bits are those of ``_loss_and_grads``."""
    B = len(batch.lens)
    X = table[:-1]
    g = _gate_value(gate_raw, encoder_kind)
    (reg, l2_grad), (S, means, Y) = _pair(pool, lambda: _l2_terms(X, l2),
                                          lambda: _forward(table, g, encoder_kind, batch))
    ce_hi, ce_lo = _pair(pool, lambda: _softmax_rows(Y, batch.label_pos, slice(B // 2, B)),
                         lambda: _softmax_rows(Y, batch.label_pos, slice(0, B // 2)))
    ce = np.concatenate([ce_lo, ce_hi])
    dX, (scatter, dgate_raw) = _pair(pool, lambda: Y.T @ S,
                                     lambda: _scatter_grads(table, g, encoder_kind, batch, Y, means,
                                                            want_gate_grad))
    dX += scatter
    dX += l2_grad
    return float(ce.mean() + reg), dX, dgate_raw


def _adam_stepper(pool, lr, X, gates):
    """``step(dX, dgates)``: Adam over the table rows X and ``gates``, as
    one instance, or with a ``pool`` as two, rows [0, |V|/2) on the calling
    thread beside the rest and the gates on the helper. Adam is elementwise, so the bits
    are the same."""
    if pool is None:
        adam = Adam(lr)
        return lambda dX, dgates: adam.step([X] + gates, [dX] + dgates)
    cut = len(X) // 2
    lo, hi = Adam(lr), Adam(lr)
    return lambda dX, dgates: _pair(pool, lambda: hi.step([X[cut:]] + gates, [dX[cut:]] + dgates),
                                    lambda: lo.step([X[:cut]], [dX[:cut]]))


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _helper_pool(table_size: int, half_scores: int):
    """A context giving train's one-thread helper pool when the table and
    the helper's half of a batch's scores both hold SPLIT_MIN elements or
    more, the process may use 2 or more CPUs and BLAS runs one thread;
    otherwise one giving None. Beside BLAS's own threads the helper only
    costs time."""
    if min(table_size, half_scores) < SPLIT_MIN or _usable_cpus() < 2 or not BLAS_ONE_THREAD:
        return nullcontext()
    from concurrent.futures import ThreadPoolExecutor  # imported only by runs that split
    return ThreadPoolExecutor(max_workers=1)


def train(model: RecModel, dataset, cfg: TrainConfig) -> None:
    """Mini-batch Adam on the cross-entropy objective, REC_BATCH pairs per
    batch at step size REC_LR. Raises TrainingDiverged if a batch's loss
    goes non-finite, leaving ``model`` as it was.

    On 2 or more CPUs, and when the table and the batches are large
    enough (SPLIT_MIN), a helper thread takes half of each batch's work
    (``_split_loss_and_grads``) and half of Adam's (``_adam_stepper``), with
    the same bits.
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
    gates = [gate] if train_gate else []
    X = table[:-1]
    rows = min(REC_BATCH, n)
    with _helper_pool(X.size, (rows - rows // 2) * vocab) as pool:
        loss_and_grads = _loss_and_grads if pool is None else partial(_split_loss_and_grads, pool)
        adam_step = _adam_stepper(pool, REC_LR, X, gates)
        # an overflow is reported as TrainingDiverged, not as a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(cfg.epochs):
                for batch in plan_batches(dataset, rng.permutation(n), REC_BATCH, vocab):
                    loss, dX, dg = loss_and_grads(
                        table, gate[0], model.encoder_kind, batch, cfg.l2, train_gate
                    )
                    if not np.isfinite(loss):
                        raise TrainingDiverged(f"recommender loss became non-finite ({loss})")
                    adam_step(dX, [np.array([dg])] if train_gate else [])
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

