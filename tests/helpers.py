"""Test-only builders and reference oracles: straightforward per-item forms
of what the package computes in batches, kept out of the package because
only tests call them."""

import sys
from contextlib import contextmanager
from typing import NamedTuple
from unittest import mock

import numpy as np

from odup import numkit, recommender
from odup.codec import (
    CODEC_LR, CodebookStore, CodecConfig, CodecEncoder, _relaxed_backward, _relaxed_forward,
    init_codec, relaxed_loss,
)
from odup.errors import TrainingDiverged
from odup.numkit import GUMBEL_EPS, Adam, Rng, gumbel_from_uniform, sigmoid, softmax, softplus
from odup.recommender import RecModel, TrainConfig, _scatter_rows, plan_batches
from odup.sessions import Session, SessionDataset, SlicePlan, SynthResult
from odup.updater import UpdateDelta
from odup.wire import code_bits

TAU_DEFAULT = 0.1  # ExperimentConfig's temperature
TAU_ALT = 0.2  # the temperature of the acceptance and demo configs


def codec_config(n, k, d, tau=TAU_DEFAULT, epochs=300, batch=256, seed=0) -> CodecConfig:
    """A CodecConfig with the settings codec tests use where they name none."""
    return CodecConfig(n, k, d, tau, epochs, batch, seed)


def train_config(epochs=30, l2=1e-5, seed=0, freeze_gate=False) -> TrainConfig:
    """A TrainConfig with the settings recommender tests use where they name none."""
    return TrainConfig(epochs, l2, seed, freeze_gate)


@contextmanager
def helper_on():
    """The process's helper thread is there on any machine (as on 2 CPUs
    with one BLAS thread), and threads trade the interpreter lock as often
    as they can, so a missed wait on the helper shows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with mock.patch.object(numkit, "_usable_cpus", lambda: 2), \
                mock.patch.object(numkit, "BLAS_ONE_THREAD", True):
            yield
    finally:
        sys.setswitchinterval(interval)


def same_delta(a: UpdateDelta, b: UpdateDelta) -> bool:
    """Whether two deltas carry the same update bit for bit: the same rows
    and codes, as bit patterns of one dtype and shape (so -0.0 is not
    +0.0), and the same epoch, strategy, beta and slots."""
    def bits(x):
        return x.dtype, x.shape, x.tobytes()

    return (bits(a.new_rows) == bits(b.new_rows) and bits(a.codes) == bits(b.codes)
            and (a.epoch, a.strategy, a.beta, a.replaced_slots)
            == (b.epoch, b.strategy, b.beta, b.replaced_slots))


def dataset_of(pairs) -> SessionDataset:
    """A SessionDataset whose ``pairs`` are exactly ``pairs``, in order."""
    items, starts, ends = [], [], []
    for prefix, label in pairs:
        starts.append(len(items))
        items.extend(int(i) for i in prefix)
        ends.append(len(items))
        items.append(int(label))
    return SessionDataset(*(np.array(xs, dtype=np.intp) for xs in (items, starts, ends)))


def slice_sessions(res: SynthResult, plan: SlicePlan, t: int) -> list[Session]:
    """Training sessions of slice t (1-based) under ``plan``."""
    bounds = [0] + plan.boundaries(len(res.sessions))
    return res.sessions[bounds[t - 1]: bounds[t]]


def log_softmax(z, axis: int = -1) -> np.ndarray:
    """log of softmax along ``axis``, stabilized by max-subtraction."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def normal(rng: Rng, scale, size) -> np.ndarray:
    """Normal(0, scale) draws of shape ``size`` from the generator ``rng`` wraps."""
    return rng._gen.normal(0.0, scale, size=size)


def forward_backward(enc: CodecEncoder, rows, xb, G, tau: float):
    """One relaxed forward/backward pass over a batch, composed as train_codec
    composes it: (loss, grads)."""
    loss, intermediates = _relaxed_forward(enc, rows, xb, G, tau)
    return loss, _relaxed_backward(enc, rows, xb, tau, intermediates)


def encoder_forward(enc: CodecEncoder, x: np.ndarray) -> np.ndarray:
    """alpha for one row (n, k) or a batch (B, n, k); each k-group sums to 1."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite encoder input")
    single = x.ndim == 1
    xb = x[None, :] if single else x
    h = np.tanh(xb @ enc.phi + enc.b)
    logits = softplus(h @ enc.phi_prime + enc.b_prime)
    alpha = softmax(logits.reshape(xb.shape[0], enc.n, enc.k))
    return alpha[0] if single else alpha


def codes_from_alpha(alpha: np.ndarray) -> np.ndarray:
    """Per-group argmax; ties resolve to the lowest index."""
    return np.argmax(np.asarray(alpha), axis=-1).astype(np.int32)


def sample_gumbel(rng: Rng, count) -> np.ndarray:
    """Standard Gumbel noise, deterministic per rng state; ``count`` may be
    an int or a shape tuple."""
    if np.prod(count) < 1:
        raise ValueError("count must be at least 1")
    return gumbel_from_uniform(rng.uniform(count))


def gumbel_relax(alpha_group: np.ndarray, rng: Rng | None, tau: float) -> np.ndarray:
    """softmax((log alpha + G) / tau) with fresh Gumbel noise G.

    rng=None fixes G = 0 (noise-free relaxation). Zero probabilities are
    clamped to 1e-12 before the log.
    """
    a = np.asarray(alpha_group, dtype=np.float64)
    if not tau > 0:
        raise ValueError("tau must be positive")
    g = np.zeros_like(a) if rng is None else sample_gumbel(rng, a.shape)
    return softmax((np.log(np.maximum(a, GUMBEL_EPS)) + g) / tau)


def train_codec_per_batch_noise(target: np.ndarray, cfg: CodecConfig):
    """train_codec rebuilt, batch by batch, from sample_gumbel (one
    (batch, n, k) Gumbel draw) and forward_backward."""
    X = np.asarray(target, dtype=np.float64)
    V = X.shape[0]
    rng = Rng(cfg.seed)
    store, enc = init_codec(cfg, rng.child("codec-init"))
    noise_rng, shuffle_rng = rng.child("codec-noise"), rng.child("codec-shuffle")
    adam = Adam(CODEC_LR)
    params = enc.params() + [store.rows]
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(V)
        for lo in range(0, V, cfg.batch):
            sel = order[lo: lo + cfg.batch]
            G = sample_gumbel(noise_rng, (len(sel), cfg.n, cfg.k))
            _, grads = forward_backward(enc, store.rows, X[sel], G, cfg.tau)
            adam.step(params, grads)
    return store, enc, relaxed_loss(enc, store, X, cfg.tau)


def item_errors(store: CodebookStore, codes, target) -> np.ndarray:
    """Each item's squared reconstruction error, summed over d."""
    return np.sum((gather_sum_table(store, codes) - np.asarray(target)) ** 2, axis=1)


def best_component(store: CodebookStore, codes, target, i: int) -> np.ndarray:
    """Brute force: for each item, the codeword of codebook i whose sum with
    the item's other n-1 components is nearest ``target``; ties take the
    current code, then the lowest index."""
    codes = np.asarray(codes)
    out = codes[:, i].copy()
    for v in range(len(codes)):
        trial = codes[v].copy()
        errs = []
        for c in range(store.k):
            trial[i] = c
            errs.append(float(np.sum((reconstruct_item(store, trial) - target[v]) ** 2)))
        best = int(np.argmin(errs))
        if errs[best] < errs[out[v]]:
            out[v] = best
    return out


def reconstruct_item(store: CodebookStore, code) -> np.ndarray:
    """Sum of rows i*k + code_i of the concatenated store."""
    code = np.asarray(code, dtype=np.intp)
    if code.shape != (store.n,):
        raise ValueError("code must have n components")
    if code.min() < 0 or code.max() >= store.k:
        raise ValueError("code component out of range [0, k)")
    rows = np.arange(store.n) * store.k + code
    return store.rows[rows].sum(axis=0)


def gather_sum_table(store: CodebookStore, codes) -> np.ndarray:
    """reconstruct_table as one gather: builds the (|V|, n, d) temporary."""
    codes = np.asarray(codes, dtype=np.intp)
    rows = codes + np.arange(store.n) * store.k
    return store.rows[rows].sum(axis=1)


def pack_codes_bit_matrix(codes, k: int) -> bytes:
    """pack_codes through a (|V| n, b) bit matrix built with uint32 shifts."""
    b = code_bits(k)
    flat = np.asarray(codes).ravel().astype(np.uint32)
    shifts = np.arange(b - 1, -1, -1, dtype=np.uint32)
    bits = ((flat[:, None] >> shifts) & 1).astype(np.uint8).ravel()
    return np.packbits(bits).tobytes()


def unpack_codes_bit_matrix(buf: bytes, vocab: int, n: int, k: int) -> np.ndarray:
    """unpack_codes as an int64 matmul of the bit matrix with the bit weights."""
    b = code_bits(k)
    total = vocab * n
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), count=total * b)
    weights = (1 << np.arange(b - 1, -1, -1)).astype(np.int64)
    vals = bits.reshape(total, b).astype(np.int64) @ weights
    return vals.reshape(vocab, n).astype(np.int32)


def encode_session(model: RecModel, prefix) -> np.ndarray:
    idx = np.asarray(prefix, dtype=np.intp)
    if idx.size == 0:
        raise ValueError("empty session prefix")
    if idx.min() < 0 or idx.max() >= model.vocab_size:
        raise ValueError("prefix item index out of range")
    mean = model.embeddings[idx].mean(axis=0)
    if model.encoder_kind == "mean_pool":
        return mean
    g = model.gate
    return g * model.embeddings[idx[-1]] + (1.0 - g) * mean


def score_all(model_or_table, s: np.ndarray) -> np.ndarray:
    table = model_or_table.embeddings if isinstance(model_or_table, RecModel) else np.asarray(model_or_table)
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (table.shape[1],):
        raise ValueError("session embedding dimension mismatch")
    return table @ s


def grad_check(f, analytic_grad, point, h: float = 1e-5) -> float:
    """Max relative error between central differences of ``f`` and
    ``analytic_grad`` at ``point``.

    Per-coordinate error is |cd - a| / max(1e-8, |a| + |cd|). Raises
    ValueError if f evaluates to a non-finite value.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    point = np.asarray(point, dtype=np.float64).ravel().copy()
    grad = np.asarray(analytic_grad, dtype=np.float64).ravel()
    if grad.shape != point.shape:
        raise ValueError("analytic gradient shape mismatch")
    worst = 0.0
    for i in range(point.size):
        step = np.zeros_like(point)
        step[i] = h
        fp = float(f(point + step))
        fm = float(f(point - step))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise ValueError("f returned a non-finite value during grad_check")
        cd = (fp - fm) / (2.0 * h)
        err = abs(cd - grad[i]) / max(1e-8, abs(grad[i]) + abs(cd))
        worst = max(worst, err)
    return worst


def whole_batch(dataset, vocab: int):
    """Every pair of ``dataset``, in order, as one recommender batch."""
    return next(plan_batches(dataset, slice(None), len(dataset), vocab))


class MaskedBatch(NamedTuple):
    """One batch of pairs; ``pad`` is (B, longest prefix), holding item 0
    where ``mask`` is False."""

    n: int
    pad: np.ndarray
    mask: np.ndarray
    lens: np.ndarray
    last: np.ndarray
    labels: np.ndarray


def gather_batch_masked(dataset, idx) -> MaskedBatch:
    """The pairs ``idx`` (an index array or a slice) of a SessionDataset,
    padded with item 0 and a mask."""
    starts, ends = dataset.starts[idx], dataset.ends[idx]
    lens = ends - starts
    cols = np.arange(int(lens.max()))
    mask = cols < lens[:, None]
    pad = np.where(mask, dataset.items.take(starts[:, None] + cols, mode="clip"), 0)
    return MaskedBatch(len(lens), pad, mask, lens, dataset.items[ends - 1], dataset.items[ends])


def encode_batch_masked(table, gate_value, encoder_kind, batch: MaskedBatch):
    """Session embeddings (S, means) from an unpadded table, in its dtype,
    zeroing the padded slots with the mask."""
    dt = table.dtype.type
    gathered = table[batch.pad] * batch.mask[:, :, None]
    means = gathered.sum(axis=1) / batch.lens.astype(dt)[:, None]
    if encoder_kind == "last_gated":
        return dt(gate_value) * table[batch.last] + dt(1.0 - gate_value) * means, means
    return means, means


def loss_and_grads_masked(table, gate_raw, encoder_kind, batch: MaskedBatch, l2, want_gate_grad):
    """The fused loss and gradients of recommender._loss_and_grads, on an
    unpadded table and a masked batch, every step in the table's dtype:
    the mean cross-entropy (no l2 term), and dX as the scatter (summed in
    float64, cast once), plus DY.T @ S, plus the l2 gradient."""
    B = batch.n
    dt = table.dtype.type
    gated = encoder_kind == "last_gated"
    g = float(sigmoid(np.float64(gate_raw))) if gated else 0.0
    S, means = encode_batch_masked(table, g, encoder_kind, batch)
    Y = S @ table.T
    rows = np.arange(B)
    label_logits = Y[rows, batch.labels]
    m = np.max(Y, axis=-1, keepdims=True)
    DY = np.exp(np.subtract(Y, m, out=Y), out=Y)
    total = np.sum(DY, axis=-1, keepdims=True)
    ce = m[:, 0] + np.log(total[:, 0]) - label_logits
    DY /= total * dt(B)
    DY[rows, batch.labels] -= dt(1.0 / B)
    DS = DY @ table
    per_slot = (dt(1.0 - g) if gated else dt(1.0)) * DS / batch.lens.astype(dt)[:, None]
    index = batch.pad[batch.mask]
    values = per_slot[np.repeat(rows, batch.lens)]
    dgate_raw = 0.0
    if gated:
        index = np.concatenate([index, batch.last])
        values = np.concatenate([values, dt(g) * DS])
        if want_gate_grad:
            dgate = float(np.sum(DS * (table[batch.last] - means)))
            dgate_raw = dgate * g * (1.0 - g)
    dX = _scatter_rows(index, values, table.shape[0]).astype(dt)
    dX += DY.T @ S
    dX += dt(2.0 * l2) * table
    return float(ce.mean()), dX, dgate_raw


def train_reference(model: RecModel, dataset, cfg: TrainConfig) -> None:
    """recommender.train as one masked gather per batch on a float32 copy
    of ``model.embeddings``, written back when training ends, stepping Adam
    on the table and the gate together (a frozen gate's gradient is 0).
    Checks the table before the first batch and after every step. Reads
    the step size and batch from recommender.REC_LR and REC_BATCH when
    called, so a test that patches them trains both forms alike."""
    lr, size = recommender.REC_LR, recommender.REC_BATCH
    rng = Rng(cfg.seed).child("rec-shuffle")
    with np.errstate(over="ignore"):
        table = model.embeddings.astype(np.float32)
    gate = np.array([model.gate_raw], dtype=np.float64)
    train_gate = model.encoder_kind == "last_gated" and not cfg.freeze_gate
    adam = Adam(lr)

    def check():
        if not np.all(np.isfinite(table)):
            raise TrainingDiverged("recommender table entry became non-finite in float32")

    check()
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(dataset), size):
            batch = gather_batch_masked(dataset, order[lo: lo + size])
            loss, dX, dg = loss_and_grads_masked(table, gate[0], model.encoder_kind, batch, cfg.l2,
                                                 train_gate)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"recommender loss became non-finite ({loss})")
            with np.errstate(over="ignore", invalid="ignore"):
                adam.step([table, gate], [dX, np.array([dg])])
            check()
    model.embeddings[...] = table
    model.gate_raw = float(gate[0])


def rank_metrics(table, pairs, ks, encoder_kind="mean_pool", gate=0.5) -> list[float]:
    """evaluate()'s [Prec@K, NDCG@K] list, ranking each pair by a loop over
    the items: rank = 1 + #(score > label's) + #(lower index, equal score)."""
    table = np.asarray(table, dtype=np.float64)
    ranks = []
    for prefix, label in pairs:
        s = sum(table[i] for i in prefix) / len(prefix)
        if encoder_kind == "last_gated":
            s = gate * table[prefix[-1]] + (1.0 - gate) * s
        scores = [float(row @ s) for row in table]
        ranks.append(1 + sum(x > scores[label] for x in scores)
                     + sum(x == scores[label] for x in scores[:label]))
    rank = np.array(ranks)
    gain = 1.0 / np.log2(rank + 1.0)
    return [m for k in ks for m in (float((rank <= k).mean()), float(np.where(rank <= k, gain, 0.0).mean()))]
