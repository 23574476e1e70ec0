"""Compositional-code compression of an embedding table.

Every item gets an n-component discrete code; component i picks one of k
rows from codebook i, and the item's vector is the sum of the n selected
codeword rows. Codes come from a small two-layer MLP over the target row:

    h      = tanh(phi^T x + b)                      hidden width nk/2
    logits = softplus(phi'^T h + b')                nk values
    alpha  = softmax per k-sized group              n distributions over k

Training relaxes the discrete pick with Gumbel-Softmax,
O = softmax((log alpha + G) / tau), and minimizes the reconstruction MSE
of O @ E against the frozen target table end-to-end, so the encoder and
the codebook rows both receive gradients. Hardening drops the noise and
temperature and takes the per-group argmax.

Gradients and Adam are hand-rolled (numpy only) and verified against
central finite differences in the test suite.
"""

from __future__ import annotations

import math
import struct
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, TrainingDiverged
from .numkit import GUMBEL_EPS, Adam, Rng, log_softmax, sample_gumbel, softmax, softplus

TAU_DEFAULT = 0.1
TAU_ALT = 0.2  # alternative preset; see CodecConfig.tau

MODEL_MAGIC = b"ODCM"
MODEL_VERSION = 1
_MODEL_HEADER = "<B3xIIHH"  # version, pad, vocab, d, n, k (after the magic)


@dataclass
class CodecConfig:
    n: int
    k: int
    d: int
    tau: float = TAU_DEFAULT
    lr: float = 0.01
    epochs: int = 300
    batch: int = 256
    seed: int = 0
    straight_through: bool = False

    def __post_init__(self):
        if min(self.n, self.k, self.d) < 1:
            raise ConfigError("n, k, d must be positive")
        if (self.n * self.k) % 2 != 0:
            raise ConfigError("n*k must be even (encoder hidden width is nk/2)")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")
        if self.epochs < 0 or self.batch < 1:
            raise ConfigError("bad epochs/batch")

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
        if nk % 2 != 0:
            raise ValueError("n*k must be even")
        if self.phi.shape[1] != nk // 2 or self.phi_prime.shape != (nk // 2, nk):
            raise ValueError("encoder weight shapes inconsistent with n, k")

    def copy(self) -> "CodecEncoder":
        return CodecEncoder(self.n, self.k, self.phi.copy(), self.b.copy(),
                            self.phi_prime.copy(), self.b_prime.copy())

    def params(self) -> list[np.ndarray]:
        return [self.phi, self.b, self.phi_prime, self.b_prime]


def check_capacity(n: int, k: int, vocab: int) -> None:
    """binom(nk, n) must exceed |V| so every item can get a unique code;
    compared in the log domain to avoid overflow."""
    nk = n * k
    log_binom = math.lgamma(nk + 1) - math.lgamma(n + 1) - math.lgamma(nk - n + 1)
    if log_binom <= math.log(vocab):
        raise ConfigError(f"code space binom({nk},{n}) <= vocab {vocab}; increase n or k")


def init_codec(cfg: CodecConfig, rng: Rng) -> tuple[CodebookStore, CodecEncoder]:
    """Uniform(-0.1, 0.1) init for codebooks and encoder weights."""
    h = cfg.nk // 2

    def u(*shape):
        return rng.uniform(shape) * 0.2 - 0.1

    store = CodebookStore(cfg.n, cfg.k, cfg.d, u(cfg.nk, cfg.d))
    enc = CodecEncoder(cfg.n, cfg.k, u(cfg.d, h), u(h), u(h, cfg.nk), u(cfg.nk))
    return store, enc


def encoder_forward(enc: CodecEncoder, x: np.ndarray) -> np.ndarray:
    """alpha for one row (n, k) or a batch (B, n, k); each k-group sums to 1."""
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite encoder input")
    single = x.ndim == 1
    xb = x[None, :] if single else x
    h = np.tanh(xb @ enc.phi + enc.b)
    logits = softplus(h @ enc.phi_prime + enc.b_prime)
    alpha = softmax(logits.reshape(xb.shape[0], enc.n, enc.k), axis=-1)
    return alpha[0] if single else alpha


def gumbel_relax(alpha_group: np.ndarray, rng: Rng | None, tau: float) -> np.ndarray:
    """softmax((log alpha + G) / tau) with fresh Gumbel noise G.

    rng=None fixes G = 0 (noise-free relaxation). Zero probabilities are
    clamped to 1e-12 before the log.
    """
    a = np.asarray(alpha_group, dtype=np.float64)
    if not tau > 0:
        raise ValueError("tau must be positive")
    g = np.zeros_like(a) if rng is None else sample_gumbel(rng, a.shape)
    return softmax(np.log(np.maximum(a, GUMBEL_EPS)) + g, temperature=tau, axis=-1)


def reconstruct_item(store: CodebookStore, code) -> np.ndarray:
    """Sum of rows i*k + code_i of the concatenated store."""
    code = np.asarray(code, dtype=np.intp)
    if code.shape != (store.n,):
        raise ValueError("code must have n components")
    if code.min() < 0 or code.max() >= store.k:
        raise ValueError("code component out of range [0, k)")
    rows = np.arange(store.n) * store.k + code
    return store.rows[rows].sum(axis=0)


def reconstruct_table(store: CodebookStore, codes: np.ndarray) -> np.ndarray:
    """Gather-sum reconstruction of every item row; equivalent to the
    one-hot matrix product X = O E."""
    codes = np.asarray(codes, dtype=np.intp)
    if codes.ndim != 2 or codes.shape[1] != store.n:
        raise ValueError("codes must have shape (|V|, n)")
    if codes.size and (codes.min() < 0 or codes.max() >= store.k):
        raise ValueError("code component out of range [0, k)")
    rows = codes + np.arange(store.n) * store.k
    return store.rows[rows].sum(axis=1)


def codes_from_alpha(alpha: np.ndarray) -> np.ndarray:
    """Per-group argmax; ties resolve to the lowest index."""
    return np.argmax(np.asarray(alpha), axis=-1).astype(np.int32)


def harden(enc: CodecEncoder, target: np.ndarray) -> np.ndarray:
    """Deterministic code assignment: argmax of alpha, no noise, no
    temperature."""
    return codes_from_alpha(encoder_forward(enc, np.asarray(target, dtype=np.float64)))


def _relaxed_forward(enc, rows, xb, G, tau, straight_through):
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
    logA = log_softmax(sp.reshape(B, n, k), axis=-1)
    O = softmax((logA + G) / tau, axis=-1)
    if straight_through:
        hard = np.zeros_like(O).reshape(B * n, k)
        hard[np.arange(B * n), np.argmax(O.reshape(B * n, k), axis=-1)] = 1.0
        Of = hard.reshape(B, n * k)
    else:
        Of = O.reshape(B, n * k)
    diff = Of @ rows - xb
    loss = float(np.sum(diff * diff) / (B * d))
    return loss, (h, z, sp, logA, O, Of, diff)


def _relaxed_backward(enc, rows, xb, tau, trainable_row_mask, intermediates):
    """Gradients of the ``_relaxed_forward`` loss, ordered [phi, b,
    phi_prime, b_prime, rows]."""
    h, z, sp, logA, O, Of, diff = intermediates
    B, d = xb.shape
    n, k = enc.n, enc.k

    dR = (2.0 / (B * d)) * diff
    dRows = Of.T @ dR
    if trainable_row_mask is not None:
        dRows[~trainable_row_mask] = 0.0
    dO = (dR @ rows.T).reshape(B, n, k)
    dL = O * (dO - np.sum(dO * O, axis=-1, keepdims=True))
    dlogA = dL / tau
    dSp = dlogA - np.sum(dlogA, axis=-1, keepdims=True) * np.exp(logA)
    # sigmoid(z) = exp(z - softplus(z)), reusing the forward's softplus
    dZ = dSp.reshape(B, n * k) * np.exp(z - sp)
    dphi_prime = h.T @ dZ
    db_prime = dZ.sum(axis=0)
    dH = dZ @ enc.phi_prime.T
    dPre = dH * (1.0 - h * h)
    dphi = xb.T @ dPre
    db = dPre.sum(axis=0)
    return [dphi, db, dphi_prime, db_prime, dRows]


def _forward_backward(enc, rows, xb, G, tau, straight_through, trainable_row_mask):
    """One relaxed forward/backward pass over a batch: (loss, grads)."""
    loss, intermediates = _relaxed_forward(enc, rows, xb, G, tau, straight_through)
    return loss, _relaxed_backward(enc, rows, xb, tau, trainable_row_mask, intermediates)


def relaxed_loss(enc: CodecEncoder, store: CodebookStore, target: np.ndarray, tau: float) -> float:
    """Noise-free (G = 0) full-batch relaxed reconstruction MSE; a forward
    pass only."""
    X = np.asarray(target, dtype=np.float64)
    loss, _ = _relaxed_forward(enc, store.rows, X, 0.0, tau, False)
    return loss


def train_codec(
    target: np.ndarray,
    cfg: CodecConfig,
    frozen_rows=None,
    warm: tuple[CodebookStore, CodecEncoder] | None = None,
) -> tuple[CodebookStore, CodecEncoder, list[float]]:
    """Jointly optimize the encoder and the non-frozen store rows to
    minimize ||O E - X||^2 under the Gumbel relaxation.

    Rows listed in ``frozen_rows`` are bitwise unchanged on exit. ``warm``
    continues from an existing (store, encoder) pair. The returned loss
    curve holds the noise-free full-batch loss at init and after each epoch.
    """
    X = np.asarray(target, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != cfg.d:
        raise ValueError("target must be a |V| x d table matching cfg.d")
    if not np.all(np.isfinite(X)):
        raise ValueError("target table must be finite")
    V = X.shape[0]
    check_capacity(cfg.n, cfg.k, V)
    if cfg.n >= cfg.d:
        warnings.warn("n is not much smaller than d; compression will be weak", stacklevel=2)
    if cfg.nk >= V:
        warnings.warn("nk is not much smaller than |V|; compression will be weak", stacklevel=2)

    rng = Rng(cfg.seed)
    if warm is not None:
        store, enc = warm[0].copy(), warm[1].copy()
        if store.rows.shape != (cfg.nk, cfg.d) or (enc.n, enc.k) != (cfg.n, cfg.k):
            raise ValueError("warm start shapes do not match cfg")
    else:
        store, enc = init_codec(cfg, rng.child("codec-init"))

    frozen = np.zeros(cfg.nk, dtype=bool)
    if frozen_rows is not None:
        idx = np.asarray(sorted(set(int(r) for r in frozen_rows)), dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= cfg.nk):
            raise ValueError("frozen row index out of range")
        frozen[idx] = True
    frozen_snapshot = store.rows[frozen].copy()
    trainable_mask = ~frozen

    noise_rng = rng.child("codec-noise")
    shuffle_rng = rng.child("codec-shuffle")
    adam = Adam(cfg.lr)
    params = enc.params() + [store.rows]

    losses = [relaxed_loss(enc, store, X, cfg.tau)]
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(V)
        for lo in range(0, V, cfg.batch):
            sel = order[lo: lo + cfg.batch]
            G = sample_gumbel(noise_rng, (len(sel), cfg.n, cfg.k))
            loss, grads = _forward_backward(
                enc, store.rows, X[sel], G, cfg.tau, cfg.straight_through, trainable_mask
            )
            if not np.isfinite(loss):
                raise TrainingDiverged(f"codec loss became non-finite ({loss})")
            adam.step(params, grads)
        store.rows[frozen] = frozen_snapshot
        losses.append(relaxed_loss(enc, store, X, cfg.tau))
    store.rows[frozen] = frozen_snapshot
    return store, enc, losses


def model_cr(vocab: int, d: int, n: int, k: int) -> float:
    """Element-count compression ratio |V|d / (nkd + n|V|)."""
    if min(vocab, d, n, k) < 1:
        raise ValueError("all arguments must be positive")
    return (vocab * d) / (n * k * d + n * vocab)


def save_compressed_model(path, store: CodebookStore, codes: np.ndarray, vocab: int) -> None:
    """Compressed-model file: magic "ODCM", u8 version, 3 zero bytes,
    u32 vocab, u32 d, u16 n, u16 k, bit-packed codes (wire packing rules),
    nk*d float32 rows, trailing u32 CRC-32. Everything little-endian.
    """
    from . import wire

    codes = np.asarray(codes)
    if codes.shape != (vocab, store.n):
        raise ValueError("codes shape mismatch")
    body = MODEL_MAGIC + struct.pack(_MODEL_HEADER, MODEL_VERSION, vocab, store.d, store.n, store.k)
    body += wire.pack_codes(codes, store.k)
    body += store.rows.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def load_compressed_model(path) -> tuple[CodebookStore, np.ndarray]:
    from . import wire

    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 4 + struct.calcsize(_MODEL_HEADER) + 4:
        raise DataError(f"{path}: truncated compressed model")
    body, crc = buf[:-4], struct.unpack("<I", buf[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise DataError(f"{path}: compressed model CRC mismatch")
    if body[:4] != MODEL_MAGIC:
        raise DataError(f"{path}: bad magic")
    version, vocab, d, n, k = struct.unpack_from(_MODEL_HEADER, body, 4)
    if version != MODEL_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    off = 4 + struct.calcsize(_MODEL_HEADER)
    n_code_bytes = wire.packed_code_bytes(vocab, n, k)
    codes = wire.unpack_codes(body[off: off + n_code_bytes], vocab, n, k)
    off += n_code_bytes
    rows = np.frombuffer(body, "<f4", n * k * d, off).reshape(n * k, d).astype(np.float64)
    if off + 4 * n * k * d != len(body):
        raise DataError(f"{path}: size mismatch")
    return CodebookStore(n, k, d, rows), codes
