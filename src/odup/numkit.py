"""Deterministic numerics shared by all training code.

Codec training and the recommender's gate are float64; the recommender's
table and the rows that reach the device are float32. ``Adam(params, lr)``
steps its parameters by ``step(grads)``, each in its dtype. Randomness goes
through :class:`Rng`, a seeded PCG64 generator wrapped so that identical
seeds reproduce identical draw sequences on any platform; the process-global
numpy state is never touched. Everything runs on the calling thread, and
``odup`` pins BLAS to one thread.
"""

from __future__ import annotations

import zlib

import numpy as np

GUMBEL_EPS = 1e-12


class Rng:
    """Seeded random source backed by numpy's PCG64.

    ``child(tag)`` derives an independent stream keyed on (seed, crc32(tag),
    0), so the components of a larger experiment draw without coupling each
    other's sequences (the fixed trailing 0 keeps every existing stream).
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = tuple(_key)
        ss = np.random.SeedSequence((self.seed, *self._key))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, tag: str) -> "Rng":
        return Rng(self.seed, self._key + (zlib.crc32(tag.encode()), 0))

    def uniform(self, size=None) -> np.ndarray:
        return self._gen.random(size)

    def integers(self, low: int, high: int) -> np.int64:
        return self._gen.integers(low, high)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def sample(self, n: int, size: int) -> np.ndarray:
        """``size`` distinct indices of ``range(n)``, ascending: the draw of
        ``Generator.choice(n, size, replace=False)``, sorted."""
        return np.sort(self._gen.choice(n, size=size, replace=False))

    def inverse_cdf(self, cdf: np.ndarray, size: int) -> np.ndarray:
        """``size`` indices drawn with replacement from the table ``cdf`` of
        ``choice_cdf``: the same uniforms, and so the same indices, as
        ``Generator.choice(len(cdf), size, p=p)``, without re-validating
        ``p`` on every call. As there, a uniform that lands on a step of the
        table takes the index after it, never one of zero probability."""
        return cdf.searchsorted(self._gen.random(size), side="right")


def choice_cdf(p: np.ndarray) -> np.ndarray:
    """The table ``Generator.choice`` draws from for the float64
    probabilities ``p``: their running sum divided by its last entry. An
    empty ``p`` gives an empty table, which no draw may use."""
    cdf = p.cumsum()
    if cdf.size:
        cdf /= cdf[-1]
    return cdf


def gumbel_from_uniform(u) -> np.ndarray:
    """-log(-log u) with u clamped into [eps, 1-eps] so output stays finite."""
    u = np.clip(np.asarray(u, dtype=np.float64), GUMBEL_EPS, 1.0 - GUMBEL_EPS)
    return -np.log(-np.log(u))


def _max_keepdims(v: np.ndarray) -> np.ndarray:
    """``np.max(v, -1, keepdims=True)``, taken over a contiguous copy with
    the last axis leading: numpy reduces a short strided axis (the codec's
    k-sized groups) several times slower. Max is exact, so the values are
    identical."""
    m = np.ascontiguousarray(np.moveaxis(v, -1, 0)).max(axis=0)
    return m[..., None]


def softmax(v) -> np.ndarray:
    """Softmax along the last axis, stabilized by max-subtraction (divide
    ``v`` by a temperature first). Raises ValueError on empty input. Output
    along the last axis sums to 1; a non-finite input gives NaN output, which
    the caller's loss check reports (``train_codec`` raises TrainingDiverged).
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    e = np.exp(v - _max_keepdims(v))
    return e / np.sum(e, axis=-1, keepdims=True)


def sigmoid(z) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def softplus(z) -> np.ndarray:
    """log(1 + e^z) as max(z, 0) + log1p(e^-|z|), which never overflows."""
    z = np.asarray(z, dtype=np.float64)
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


class Adam:
    """Adam optimizer: m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2, with
    bias-corrected moments and update lr * mhat / (sqrt(vhat) + eps).

    b1=0.9, b2=0.999, eps=1e-8 are class constants. Each parameter's
    moments, allocated in ``__init__``, and arithmetic take its dtype
    (float32 for the recommender's table). Parameters with identically zero
    gradients never move (their moments stay zero).
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: list[np.ndarray], lr: float):
        self.params = list(params)
        self.lr = float(lr)
        self.t = 0
        self._m = [np.zeros_like(p) for p in self.params]
        self._v = [np.zeros_like(p) for p in self.params]
        self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in self.params]

    def step(self, grads: list[np.ndarray]) -> None:
        """In-place update, one gradient per parameter. Evaluates p -= lr *
        (m / c1) / (sqrt(v / c2) + eps) in that operation order into scratch
        buffers, so the result is bitwise that of the expression."""
        if len(grads) != len(self.params):
            raise ValueError(f"{len(grads)} gradients for {len(self.params)} parameters")
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v, (num, den) in zip(self.params, grads, self._m, self._v, self._scratch):
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=num)
            m += num
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=num)
            num *= g
            v += num
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += self.eps
            np.divide(m, c1, out=num)
            num *= self.lr
            num /= den
            p -= num

