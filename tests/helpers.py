"""Test-only builders and reference oracles: straightforward per-item forms
of what the package computes in batches, kept out of the package because
only tests call them."""

import numpy as np

from odup.codec import CodebookStore, CodecEncoder
from odup.numkit import GUMBEL_EPS, Rng, sample_gumbel, softmax, softplus
from odup.recommender import RecModel
from odup.sessions import Session, SessionDataset, SynthResult
from odup.wire import code_bits

TAU_ALT = 0.2  # the temperature of the acceptance and demo configs


def dataset_of(pairs) -> SessionDataset:
    """A SessionDataset whose ``pairs`` are exactly ``pairs``, in order."""
    items, starts, ends = [], [], []
    for prefix, label in pairs:
        starts.append(len(items))
        items.extend(int(i) for i in prefix)
        ends.append(len(items))
        items.append(int(label))
    return SessionDataset(*(np.array(xs, dtype=np.intp) for xs in (items, starts, ends)))


def slice_sessions(res: SynthResult, t: int) -> list[Session]:
    """Sessions belonging to slice t (1-based), non-cumulative."""
    lo = 0 if t == 1 else res.boundaries[t - 2]
    return res.sessions[lo: res.boundaries[t - 1]]


def log_softmax(z, axis: int = -1) -> np.ndarray:
    """log of softmax along ``axis``, stabilized by max-subtraction."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


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


def codes_from_alpha(alpha: np.ndarray) -> np.ndarray:
    """Per-group argmax; ties resolve to the lowest index."""
    return np.argmax(np.asarray(alpha), axis=-1).astype(np.int32)


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
