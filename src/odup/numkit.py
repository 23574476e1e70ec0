"""Deterministic numerics shared by all training code.

Codec training and the recommender's gate are float64. Float32 appears in
two places: ``recommender.train`` keeps its table, its batches and the
table's Adam moments in float32, and rows reaching the device are float32
(an ``UpdateDelta`` keeps the float32 values of its rows, and the wire
format stores float32). ``Adam`` steps each parameter in that parameter's
dtype. Randomness goes through :class:`Rng`, a seeded PCG64 generator
wrapped so that identical seeds reproduce identical draw sequences on any
platform; the process-global numpy state is never touched.

The process has one helper thread, started on first use, that the table
rebuild hands half of its work to (``shared_helper`` and ``_pair``).
"""

from __future__ import annotations

import os
import threading
import zlib

import numpy as np

from . import BLAS_ONE_THREAD

GUMBEL_EPS = 1e-12
_helper = None  # the process's one-worker executor, once started
_helper_lock = threading.Lock()


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

    def integers(self, low: int, high: int, size=None) -> np.ndarray:
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool, p=None) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace, p=p)


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
    moments and arithmetic take its dtype (float32 for the recommender's
    table). Parameters with identically zero gradients never move (their
    moments stay zero).
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, lr: float):
        self.lr = float(lr)
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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def shared_helper():
    """The process's one helper thread, as a one-worker executor started on
    first use; None when the process may use fewer than 2 CPUs or BLAS runs
    more than one thread, since beside BLAS's own threads the helper only
    costs time. A task running on the helper must not submit to it: the
    one worker would wait on itself."""
    global _helper
    if _usable_cpus() < 2 or not BLAS_ONE_THREAD:
        return None
    with _helper_lock:
        if _helper is None:
            from concurrent.futures import ThreadPoolExecutor  # imported only by runs that split
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="odup-helper")
        return _helper


def _forget_helper():
    """A forked child holds no thread of its parent's, so its first use
    starts a helper of its own."""
    global _helper, _helper_lock
    _helper, _helper_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def _pair(pool, helper, main) -> None:
    """Runs ``helper`` on ``pool``'s thread beside ``main`` on the calling
    thread, and returns once both have finished. The helper runs under the
    caller's numpy error state, which numpy does not pass to threads. An
    exception from either comes out here."""
    err = np.geterr()

    def task():
        with np.errstate(**err):
            helper()

    future = pool.submit(task)
    try:
        main()
    finally:
        future.exception()  # waits: the helper writes into arrays the caller reads next
    future.result()
