"""Compositional-code compression of an embedding table.

Every item gets an n-component discrete code; component i picks one of k
rows from codebook i, and the item's vector is the sum of the n selected
codeword rows. Codes come from a small two-layer MLP over the target row:

    h      = tanh(phi^T x + b)                      hidden width nk/2
    z      = phi'^T h + b'                          nk values
    logits = softplus(z)
    alpha  = softmax per k-sized group              n distributions over k

Training relaxes the discrete pick with Gumbel-Softmax and minimizes the
reconstruction MSE of O @ E against the frozen target table end-to-end, so
the encoder and the codebook rows both receive gradients. log alpha is the
logits minus a per-group constant and softmax is shift-invariant within
each k-group, so O = softmax((logits + G) / tau) equals the paper's
softmax((log alpha + G) / tau), and alpha is never formed. Hardening drops
the noise and temperature and takes the per-group argmax of z: softplus
and softmax are both monotone, so that is the argmax of alpha.

Gradients and Adam are hand-rolled (numpy only) and verified against
central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingDiverged
from .numkit import Adam, Rng, gumbel_from_uniform, softmax, softplus

ICM_SWEEPS = 2  # passes over the n components per refine_codes call
_RECONSTRUCT_BLOCK = 65536  # output elements per block of reconstruct_table
_LOSS_BLOCK = 32768  # (item, codeword) pairs per block of relaxed_loss
CODEC_LR = 0.01  # Adam's step size in train_codec


@dataclass
class CodecConfig:
    n: int
    k: int
    d: int
    tau: float
    epochs: int
    batch: int
    seed: int

    @property
    def nk(self) -> int:
        return self.n * self.k


@dataclass
class CodebookStore:
    """n codebooks of k rows each, concatenated into an (nk, d) matrix;
    row r belongs to codebook r // k."""

    n: int
    k: int
    d: int
    rows: np.ndarray

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=np.float64)
        if self.rows.shape != (self.n * self.k, self.d):
            raise ValueError("store rows must have shape (n*k, d)")
        if not np.all(np.isfinite(self.rows)):
            raise ValueError("store rows must be finite")

    def copy(self) -> "CodebookStore":
        return CodebookStore(self.n, self.k, self.d, self.rows.copy())


@dataclass
class CodecEncoder:
    n: int
    k: int
    phi: np.ndarray         # (d, nk/2)
    b: np.ndarray           # (nk/2,)
    phi_prime: np.ndarray   # (nk/2, nk)
    b_prime: np.ndarray     # (nk,)

    def __post_init__(self):
        nk = self.n * self.k
        if self.phi.shape[1] != nk // 2 or self.phi_prime.shape != (nk // 2, nk):
            raise ValueError("encoder weight shapes inconsistent with n, k")

    def params(self) -> list[np.ndarray]:
        return [self.phi, self.b, self.phi_prime, self.b_prime]


def check_capacity(n: int, k: int, vocab: int) -> None:
    """k**n must exceed |V| so every item can get a unique code (component i
    picks one of the k rows of codebook i). Exact without forming k**n for
    large n: any k >= 2 passes |V| within bit_length(|V|) factors."""
    if k ** min(n, vocab.bit_length()) <= vocab:
        raise ConfigError(f"code space k^n = {k}^{n} <= vocab {vocab}; increase n or k")


def init_codec(cfg: CodecConfig, rng: Rng) -> tuple[CodebookStore, CodecEncoder]:
    """Uniform(-0.1, 0.1) init for codebooks and encoder weights."""
    h = cfg.nk // 2

    def u(*shape):
        return rng.uniform(shape) * 0.2 - 0.1

    store = CodebookStore(cfg.n, cfg.k, cfg.d, u(cfg.nk, cfg.d))
    enc = CodecEncoder(cfg.n, cfg.k, u(cfg.d, h), u(h), u(h, cfg.nk), u(cfg.nk))
    return store, enc


def check_integer_codes(codes: np.ndarray) -> None:
    """Refuse a code array that is not of an integer dtype: a cast would
    truncate 3.7 to 3 without a word."""
    if not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"codes must be an integer array, not {codes.dtype}")


def reconstruct_table(store: CodebookStore, codes: np.ndarray, dtype=np.float32) -> np.ndarray:
    """Every item row as the sum of its n selected codeword rows; equivalent
    to the one-hot matrix product X = O E.

    The rows are rounded to ``dtype`` once, and each item's n codewords are
    added in that dtype in order 0..n-1, on the calling thread. The default
    is the device's float32 table (``apply_delta``); the server's solver
    passes float64. Blocks of about _RECONSTRUCT_BLOCK output elements are
    filled in turn. That is bitwise the gather-sum
    ``store.rows.astype(dtype)[codes + offsets].sum(axis=1)`` without its
    (|V|, n, d) temporary, except at d = 1 with n >= 8, where numpy sums
    that gather with its unrolled pairwise loop instead.

    Each item's rows are gathered with ``np.take`` from codebook i by code
    component i, so no (|V|, n) index array is built. When n >= 2 and
    k * k <= |V|, each item starts from a lead table of the k * k first-pair
    sums ``r0 + r1``, which is the same single addition the in-order sum
    makes first; the bound keeps that table no larger than the output.
    Otherwise each item starts from r0.
    """
    codes = np.asarray(codes)
    check_integer_codes(codes)
    n, k, d = store.n, store.k, store.d
    if codes.ndim != 2 or codes.shape[1] != n:
        raise ValueError("codes must have shape (|V|, n)")
    if codes.size and (codes.min() < 0 or codes.max() >= k):
        raise ValueError("code component out of range [0, k)")
    out = np.empty((len(codes), d), dtype=dtype)
    books = np.asarray(store.rows, dtype=dtype).reshape(n, k, d)  # books[i][c]: row c of codebook i
    if n >= 2 and k * k <= len(codes):
        first, lead = 2, (books[0][:, None] + books[1][None]).reshape(k * k, d)
    else:
        first, lead = 1, books[0]
    step = max(1, _RECONSTRUCT_BLOCK // d)
    for lo in range(0, len(codes), step):
        block, acc = codes[lo:lo + step].astype(np.intp), out[lo:lo + step]
        at = block[:, 0] if first == 1 else block[:, 0] * k + block[:, 1]
        # codes were range-checked above; mode="clip" lets take write into
        # the output directly, where the default mode buffers it
        np.take(lead, at, axis=0, out=acc, mode="clip")
        for i in range(first, n):
            acc += np.take(books[i], block[:, i], axis=0)
    return out


def harden(enc: CodecEncoder, target: np.ndarray) -> np.ndarray:
    """Deterministic code assignment, no noise, no temperature: the
    per-group argmax of z = tanh(X phi + b) phi' + b', which is the argmax
    of alpha. Ties resolve to the lowest index."""
    X = np.asarray(target, dtype=np.float64)
    if not np.all(np.isfinite(X)):
        raise ValueError("non-finite encoder input")
    z = np.tanh(X @ enc.phi + enc.b) @ enc.phi_prime + enc.b_prime
    return np.argmax(z.reshape(z.shape[:-1] + (enc.n, enc.k)), axis=-1).astype(np.int32)


def refine_codes(store: CodebookStore, codes: np.ndarray, target: np.ndarray) -> np.ndarray:
    """ICM_SWEEPS sweeps of iterated conditional modes from ``codes`` (Babenko
    & Lempitsky, CVPR 2014): for component i = 0..n-1 in turn, each item
    takes the codeword c of codebook i that minimises ||c||^2 - 2 r.c, where
    r is its target minus its other components, and keeps its code on a
    tie. Returns new int32 codes; no item's error rises, up to rounding in
    the scores. The device sees only codes and rows, so any codes ship."""
    X = np.asarray(target, dtype=np.float64)
    codes = np.array(codes, dtype=np.int32)
    if X.shape != (len(codes), store.d):
        raise ValueError("target must be a |V| x d table matching the codes and store")
    books = store.rows.reshape(store.n, store.k, store.d)
    norms = np.sum(books * books, axis=2)
    items = np.arange(len(codes))
    resid = X - reconstruct_table(store, codes, np.float64)
    for _ in range(ICM_SWEEPS):
        for i in range(store.n):
            r = resid + books[i][codes[:, i]]
            scores = norms[i] - 2.0 * (r @ books[i].T)
            best = np.argmin(scores, axis=1)
            better = scores[items, best] < scores[items, codes[:, i]]
            codes[better, i] = best[better]
            resid = r - books[i][codes[:, i]]
    return codes


def _relaxed_forward(enc, rows, xb, G, tau):
    """Relaxed forward pass over a batch.

    Returns (loss, intermediates); the loss is the mean over B*d elements
    of (O E - X)^2, and the intermediates are what ``_relaxed_backward``
    consumes. ``G`` is the Gumbel noise, shaped (B, n, k) or broadcastable
    to it.
    """
    B, d = xb.shape
    n, k = enc.n, enc.k

    h = np.tanh(xb @ enc.phi + enc.b)
    z = h @ enc.phi_prime + enc.b_prime
    sp = softplus(z)
    O = softmax((sp.reshape(B, n, k) + G) / tau)
    diff = O.reshape(B, n * k) @ rows - xb
    loss = float(np.sum(diff * diff) / (B * d))
    return loss, (h, z, sp, O, diff)


def _relaxed_backward(enc, rows, xb, tau, intermediates):
    """Gradients of the ``_relaxed_forward`` loss, ordered [phi, b,
    phi_prime, b_prime, rows]."""
    h, z, sp, O, diff = intermediates
    B, d = xb.shape
    n, k = enc.n, enc.k

    dR = (2.0 / (B * d)) * diff
    dRows = O.reshape(B, n * k).T @ dR
    dO = (dR @ rows.T).reshape(B, n, k)
    dL = O * (dO - np.sum(dO * O, axis=-1, keepdims=True))
    # dL is the gradient at the relaxed softmax's input (sp + G) / tau
    dSp = dL / tau
    # sigmoid(z) = exp(z - softplus(z)), reusing the forward's softplus
    dZ = dSp.reshape(B, n * k) * np.exp(z - sp)
    dphi_prime = h.T @ dZ
    db_prime = dZ.sum(axis=0)
    dH = dZ @ enc.phi_prime.T
    dPre = dH * (1.0 - h * h)
    dphi = xb.T @ dPre
    db = dPre.sum(axis=0)
    return [dphi, db, dphi_prime, db_prime, dRows]


def relaxed_loss(enc: CodecEncoder, store: CodebookStore, target: np.ndarray, tau: float) -> float:
    """Noise-free (G = 0) full-batch relaxed reconstruction MSE; a forward
    pass only. It runs over blocks of about _LOSS_BLOCK (item, codeword)
    pairs and weights each block's mean by its item count, so its
    intermediates stay a block's size, not (|V|, n, k)."""
    X = np.asarray(target, dtype=np.float64)
    step = max(1, _LOSS_BLOCK // (enc.n * enc.k))
    total = 0.0
    for lo in range(0, len(X), step):
        xb = X[lo: lo + step]
        loss, _ = _relaxed_forward(enc, store.rows, xb, 0.0, tau)
        total += loss * len(xb)
    return total / len(X)


def train_codec(target: np.ndarray, cfg: CodecConfig) -> tuple[CodebookStore, CodecEncoder, float]:
    """Jointly optimize the encoder and the store rows to minimize
    ||O E - X||^2 under the Gumbel relaxation.

    Each batch draws its own (batch, n, k) uniforms and turns them into
    Gumbel noise, so the noise is never larger than one batch. Returns the
    store, the encoder and the noise-free full-batch loss after the last
    epoch. A batch or final loss that is not
    finite, say from logits / tau overflowing, raises TrainingDiverged.
    """
    X = np.asarray(target, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != cfg.d:
        raise ValueError("target must be a |V| x d table matching cfg.d")
    if not np.all(np.isfinite(X)):
        raise ValueError("target table must be finite")
    V = X.shape[0]

    rng = Rng(cfg.seed)
    store, enc = init_codec(cfg, rng.child("codec-init"))
    noise_rng = rng.child("codec-noise")
    shuffle_rng = rng.child("codec-shuffle")
    adam = Adam(enc.params() + [store.rows], CODEC_LR)

    # an overflow is reported as TrainingDiverged, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(V)
            for lo in range(0, V, cfg.batch):
                xb = X[order[lo: lo + cfg.batch]]
                noise = gumbel_from_uniform(noise_rng.uniform((len(xb), cfg.n, cfg.k)))
                loss, intermediates = _relaxed_forward(enc, store.rows, xb, noise, cfg.tau)
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"codec loss became non-finite ({loss})")
                adam.step(_relaxed_backward(enc, store.rows, xb, cfg.tau, intermediates))
        final_loss = relaxed_loss(enc, store, X, cfg.tau)
    if not np.isfinite(final_loss):
        raise TrainingDiverged(f"final codec loss is non-finite ({final_loss})")
    return store, enc, final_loss


def model_cr(vocab: int, d: int, n: int, k: int) -> float:
    """Element-count compression ratio |V|d / (nkd + n|V|)."""
    if min(vocab, d, n, k) < 1:
        raise ValueError("all arguments must be positive")
    return (vocab * d) / (n * k * d + n * vocab)
