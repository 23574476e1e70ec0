"""Deterministic float64 numerics shared by all training code.

All internal arithmetic is 64-bit (wire formats narrow to float32 at the
boundary). Randomness goes through :class:`Rng`, a seeded PCG64 generator
wrapped so that identical seeds reproduce identical draw sequences on any
platform; the process-global numpy state is never touched.
"""

from __future__ import annotations

import zlib

import numpy as np

GUMBEL_EPS = 1e-12


class Rng:
    """Seeded random source backed by numpy's PCG64.

    ``child(tag)`` derives an independent stream keyed on
    (seed, crc32(tag), index), so the components of a larger experiment can
    draw without coupling each other's sequences.
    """

    def __init__(self, seed: int, _key: tuple = ()):
        self.seed = int(seed)
        self._key = tuple(_key)
        ss = np.random.SeedSequence((self.seed, *self._key))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def child(self, tag: str, index: int = 0) -> "Rng":
        return Rng(self.seed, self._key + (zlib.crc32(tag.encode()), int(index)))

    def uniform(self, size=None) -> np.ndarray:
        return self._gen.random(size)

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def normal(self, scale: float = 1.0, size=None) -> np.ndarray:
        return self._gen.normal(0.0, scale, size=size)

    def choice(self, n: int, size: int, replace: bool = False, p=None) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace, p=p)


def gumbel_from_uniform(u) -> np.ndarray:
    """-log(-log u) with u clamped into [eps, 1-eps] so output stays finite."""
    u = np.clip(np.asarray(u, dtype=np.float64), GUMBEL_EPS, 1.0 - GUMBEL_EPS)
    return -np.log(-np.log(u))


def sample_gumbel(rng: Rng, count) -> np.ndarray:
    """Draw standard Gumbel noise, deterministic per rng state.

    ``count`` may be an int or a shape tuple.
    """
    if np.prod(count) < 1:
        raise ValueError("count must be at least 1")
    return gumbel_from_uniform(rng.uniform(count))


def softmax(v, temperature: float = 1.0, axis: int = -1) -> np.ndarray:
    """Temperature softmax, stabilized by max-subtraction.

    Raises ValueError on empty or non-finite input or non-positive
    temperature. Output along ``axis`` sums to 1.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite input to softmax")
    if not (np.isfinite(temperature) and temperature > 0):
        raise ValueError("temperature must be a positive finite real")
    z = (v - np.max(v, axis=axis, keepdims=True)) / temperature
    e = np.exp(z)
    return e / np.sum(e, axis=axis, keepdims=True)


def log_softmax(z, axis: int = -1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


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


class Adam:
    """Adam optimizer: m <- b1*m + (1-b1)*g, v <- b2*v + (1-b2)*g^2, with
    bias-corrected moments and update lr * mhat / (sqrt(vhat) + eps).

    Defaults b1=0.9, b2=0.999, eps=1e-8. Parameters with identically zero
    gradients never move (their moments stay zero).
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        self._scratch: list[tuple[np.ndarray, np.ndarray]] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        """In-place update. Evaluates p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        in that operation order into per-parameter scratch buffers, so the
        result is bitwise that of the expression."""
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
            self._scratch = [(np.empty_like(p), np.empty_like(p)) for p in params]
        self.t += 1
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        for p, g, m, v, (num, den) in zip(params, grads, self._m, self._v, self._scratch):
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
