"""Test-only builders and reference oracles: straightforward per-item forms
of what the package computes in batches, kept out of the package because
only tests call them."""

import math
from collections import Counter
from typing import NamedTuple

import numpy as np

from odup import recommender, sessions
from odup.adaptive import _sample_rows, check_pool
from odup.codec import (
    CODEC_LR, CodebookStore, CodecConfig, CodecEncoder, _relaxed_backward, _relaxed_forward,
    check_capacity, init_codec, relaxed_loss,
)
from odup.errors import DataError, TrainingDiverged
from odup.numkit import GUMBEL_EPS, Adam, Rng, gumbel_from_uniform, sigmoid, softmax, softplus
from odup.recommender import RecModel, TrainConfig, _scatter_rows, plan_batches
from odup.pipeline import DataBundle
from odup.sessions import (
    MAX_LEN, MIN_LEN, SYNTH_LEN_RANGE, TEST_FRAC, ZIPF_EXPONENT, EventLog, Session, SessionDataset,
    SessionLayout, SlicePlan, SynthResult,
)
from odup.updater import UpdateDelta
from odup.wire import code_bits

TAU_DEFAULT = 0.1  # ExperimentConfig's temperature
TAU_ALT = 0.2  # the temperature of the acceptance and demo configs


def codec_config(n, k, tau=TAU_DEFAULT, epochs=300, batch=256, seed=0) -> CodecConfig:
    """A CodecConfig with the settings codec tests use where they name none."""
    return CodecConfig(n, k, tau, epochs, batch, seed)


def train_config(epochs=30, l2=1e-5, seed=0, freeze_gate=False) -> TrainConfig:
    """A TrainConfig with the settings recommender tests use where they name none."""
    return TrainConfig(epochs, l2, seed, freeze_gate)


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


def synth_reference(rng: Rng, vocab_size: int, n_sessions: int, drift: float, plan: SlicePlan,
                    n_clusters: int = 8) -> SynthResult:
    """``synth_generate`` as a per-session loop: each session rebuilds its
    slice's cluster mixture and draws with ``Generator.choice`` and ``p``."""
    gen = rng.child("synth-setup")._gen
    lo, hi = SYNTH_LEN_RANGE
    z = len(plan.fractions)
    item_weight = 1.0 / np.power(1.0 + gen.permutation(vocab_size).astype(np.float64), ZIPF_EXPONENT)
    membership = np.repeat(np.arange(n_clusters), -(-vocab_size // n_clusters))[:vocab_size]
    memberships = [membership.copy()]
    n_migrate = int(round(vocab_size * drift / 2.0))
    for _ in range(1, z):
        nxt = memberships[-1].copy()
        if n_migrate:
            movers = gen.choice(vocab_size, n_migrate, replace=False)
            nxt[movers] = (nxt[movers] + 1) % n_clusters
        memberships.append(nxt)
    base_w = np.power(0.6, np.arange(n_clusters, dtype=np.float64))
    base_w /= base_w.sum()
    n_test = min(max(int(round(n_sessions * TEST_FRAC)), 1), n_sessions - z)
    n_train = n_sessions - n_test
    bounds = plan.boundaries(n_train)
    draw = rng.child("synth-sessions")._gen

    def make_session(t: int, start: float) -> Session:
        weights = (1.0 - drift) * base_w + drift * np.roll(base_w, t)
        weights = weights / weights.sum()
        c = int(draw.choice(n_clusters, 1, replace=True, p=weights)[0])
        while not np.any(memberships[t] == c):
            c = (c + 1) % n_clusters
        length = int(draw.integers(lo, hi + 1))
        pool = np.flatnonzero(memberships[t] == c)
        probs = item_weight[pool] / item_weight[pool].sum()
        return Session([int(i) for i in pool[draw.choice(len(pool), length, replace=True, p=probs)]], start)

    slice_of = np.searchsorted(bounds, np.arange(n_train), side="right")
    return SynthResult([make_session(int(t), j * 10.0) for j, t in enumerate(slice_of)],
                       [make_session(z - 1, (n_train + j) * 10.0) for j in range(n_test)])


# The event-log path as one Python tuple per event and one list per session:
# the reference that ``prepare_data``'s columns must match bit for bit.

def read_event_log_reference(path, delimiter: str) -> list[tuple[str, str, float]]:
    """(user, item, seconds) per non-blank line of the log, checked line by line."""
    events = []
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split(delimiter)
                if len(parts) != 3:
                    raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
                user, item, ts = parts
                try:
                    t = float(ts)
                except ValueError:
                    raise DataError(f"{path}:{lineno}: bad timestamp {ts!r}") from None
                if not 0 <= t < math.inf:
                    raise DataError(f"{path}:{lineno}: timestamp {ts!r} is negative or not finite")
                events.append((user, item, t))
    except UnicodeDecodeError:
        raise DataError(f"{path}: event log is not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"cannot read event log {path}: {exc.strerror or exc}") from None
    return events


def sessionize_reference(log) -> list[Session]:
    """Each user's events sorted by (user, seconds, item) and split at gaps
    longer than SESSION_GAP; sessions stably sorted by start."""
    out: list[Session] = []
    ordered = sorted(log, key=lambda e: (e[0], e[2], e[1]))
    cur_user = None
    cur_items: list = []
    cur_start = 0.0
    last_ts = 0.0
    for user, item, ts in ordered:
        if user != cur_user or ts - last_ts > sessions.SESSION_GAP:
            if cur_items:
                out.append(Session(cur_items, cur_start))
            cur_user, cur_items, cur_start = user, [], ts
        cur_items.append(item)
        last_ts = ts
    if cur_items:
        out.append(Session(cur_items, cur_start))
    out.sort(key=lambda s: s.start)
    return out


def filter_and_index_reference(sessions_: list[Session]) -> tuple[list[Session], list[str]]:
    """Sessions of MIN_LEN..MAX_LEN items, indexed by frequency rank with
    ties in first-seen order, and the vocabulary."""
    kept = [s for s in sessions_ if MIN_LEN <= len(s.items) <= MAX_LEN]
    if not kept:
        raise DataError("all sessions were filtered out")
    counts = Counter(it for s in kept for it in s.items)
    vocab_items = sorted(counts, key=lambda it: -counts[it])
    index = {it: i for i, it in enumerate(vocab_items)}
    return [Session([index[it] for it in s.items], s.start) for s in kept], vocab_items


def holdout_split_reference(sessions_: list[Session]) -> tuple[list[Session], list[Session]]:
    """The temporally last TEST_FRAC of sessions, sorted by start, held out."""
    if len(sessions_) < 2:
        raise DataError(f"{len(sessions_)} session(s) after filtering; a run needs at least 2 "
                        "(the last is held out for testing)")
    ordered = sorted(sessions_, key=lambda s: s.start)
    n_test = int(round(len(ordered) * TEST_FRAC))
    n_test = min(max(n_test, 1), len(ordered) - 1)
    return ordered[: len(ordered) - n_test], ordered[len(ordered) - n_test:]


def augment_split_reference(sessions_: list[Session]) -> SessionDataset:
    """The (prefix, label) pairs of ``sessions_``, in order, as one layout."""
    lens = np.array([len(s.items) for s in sessions_], dtype=np.intp)
    items = np.fromiter((it for s in sessions_ for it in s.items), np.intp, int(lens.sum()))
    offsets = np.cumsum(lens) - lens
    return SessionDataset(items, np.repeat(offsets, lens - 1), np.delete(np.arange(len(items)), offsets))


def temporal_slices_reference(sessions_: list[Session], plan: SlicePlan) -> list[SessionDataset]:
    """Slices of the start-sorted sessions, as views of one augment split."""
    bounds = plan.boundaries(len(sessions_))
    for t, (a, b) in enumerate(zip([0] + bounds, bounds), start=1):
        if a == b:
            raise DataError(f"slice {t} of {len(bounds)} gets none of the {len(sessions_)} training sessions")
    ordered = sorted(sessions_, key=lambda s: s.start)
    everything = augment_split_reference(ordered)
    pair_counts = np.cumsum([0] + [len(s.items) - 1 for s in ordered])
    ends = [int(pair_counts[b]) for b in bounds]
    return [SessionDataset(everything.items, everything.starts[a:b], everything.ends[a:b])
            for a, b in zip([0] + ends, ends)]


def prepare_reference(cfg) -> tuple[DataBundle, list[str]]:
    """``prepare_data``'s event-log path, per event, and the vocabulary."""
    events = read_event_log_reference(cfg.data, cfg.delimiter)
    if not events:
        raise DataError(f"event log is empty: {cfg.data}")
    indexed, vocab = filter_and_index_reference(sessionize_reference(events))
    if len(vocab) < max(recommender.REPORT_KS):
        raise DataError(f"{len(vocab)} items are fewer than the report's K = {max(recommender.REPORT_KS)}")
    train_sessions, test_sessions = holdout_split_reference(indexed)
    check_capacity(cfg.n, cfg.k, len(vocab))
    check_pool(cfg.mmd_samples, len(vocab))
    try:
        slices = temporal_slices_reference(train_sessions, cfg.slice_plan())
    except DataError as exc:
        raise DataError(f"slices = {cfg.slices}: {exc}") from None
    return DataBundle(slices, augment_split_reference(test_sessions), len(vocab)), vocab


def event_log_of(events) -> EventLog:
    """The columns ``read_event_log`` gives for (user, item, seconds) events."""
    users = sorted({u for u, _, _ in events})
    item_ids = sorted({i for _, i, _ in events})
    user_code = {u: c for c, u in enumerate(users)}
    item_code = {i: c for c, i in enumerate(item_ids)}
    return EventLog(np.array([user_code[u] for u, _, _ in events], dtype=np.intp),
                    np.array([item_code[i] for _, i, _ in events], dtype=np.intp),
                    np.array([t for _, _, t in events], dtype=np.float64), item_ids)


def layout_ids(layout: SessionLayout, ids) -> list[list]:
    """Each session of ``layout`` as the list of its items' ``ids``."""
    bounds = layout.offsets.tolist()
    return [[ids[c] for c in layout.items[a:b].tolist()] for a, b in zip(bounds, bounds[1:])]


def log_softmax(z, axis: int = -1) -> np.ndarray:
    """log of softmax along ``axis``, stabilized by max-subtraction."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def normal(rng: Rng, scale, size) -> np.ndarray:
    """Normal(0, scale) draws of shape ``size`` from the generator ``rng`` wraps."""
    return rng._gen.normal(0.0, scale, size=size)


def integers(rng: Rng, low, high, size) -> np.ndarray:
    """Integers in [low, high) of shape ``size`` from the generator ``rng`` wraps."""
    return rng._gen.integers(low, high, size=size)


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
    store, enc = init_codec(cfg, X.shape[1], rng.child("codec-init"))
    noise_rng, shuffle_rng = rng.child("codec-noise"), rng.child("codec-shuffle")
    adam = Adam(enc.params() + [store.rows], CODEC_LR)
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(V)
        for lo in range(0, V, cfg.batch):
            sel = order[lo: lo + cfg.batch]
            G = sample_gumbel(noise_rng, (len(sel), cfg.n, cfg.k))
            _, grads = forward_backward(enc, store.rows, X[sel], G, cfg.tau)
            adam.step(grads)
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


def reconstruct_item(store: CodebookStore, code, dtype=np.float64) -> np.ndarray:
    """Sum of rows i*k + code_i of the concatenated store, rounded to
    ``dtype`` and added in order."""
    code = np.asarray(code, dtype=np.intp)
    if code.shape != (store.n,):
        raise ValueError("code must have n components")
    if code.min() < 0 or code.max() >= store.k:
        raise ValueError("code component out of range [0, k)")
    rows = np.arange(store.n) * store.k + code
    return store.rows.astype(dtype)[rows].sum(axis=0)


def gather_sum_table(store: CodebookStore, codes, dtype=np.float64) -> np.ndarray:
    """reconstruct_table as one gather: builds the (|V|, n, d) temporary."""
    codes = np.asarray(codes, dtype=np.intp)
    rows = codes + np.arange(store.n) * store.k
    return store.rows.astype(dtype)[rows].sum(axis=1)


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
    """recommender.train as one masked gather per batch on a copy of
    ``model.embeddings``, written back when training ends, stepping Adam
    on the table and the gate together (a frozen gate's gradient is 0).
    Checks the table before the first batch and after every step. Reads
    the step size and batch from recommender.REC_LR and REC_BATCH when
    called, so a test that patches them trains both forms alike."""
    lr, size = recommender.REC_LR, recommender.REC_BATCH
    rng = Rng(cfg.seed).child("rec-shuffle")
    table = model.embeddings.copy()
    gate = np.array([model.gate_raw], dtype=np.float64)
    train_gate = model.encoder_kind == "last_gated" and not cfg.freeze_gate
    adam = Adam([table, gate], lr)

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
                adam.step([dX, np.array([dg])])
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


def _pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The full (len(a), len(b)) matrix of squared distances, clamped at 0,
    each value formed in the order odup.adaptive forms it."""
    d2 = (a * a).sum(1)[:, None] + (b * b).sum(1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(d2, 0.0)


def mmd2_reference(X_t, X_t1, samples: int, seed: int) -> float:
    """odup.adaptive.mmd2 in full-matrix form: the pooled n x n distance
    matrix, its strict upper triangle taken through a mask for the median
    heuristic, and each kernel matrix from allocating expressions."""
    a, b = np.asarray(X_t, dtype=np.float64), np.asarray(X_t1, dtype=np.float64)
    rng = Rng(seed)
    sx = _sample_rows(a, samples, rng.child("mmd-x"))
    sy = _sample_rows(b, samples, rng.child("mmd-y"))
    pooled = np.vstack([sx, sy])
    upper = _pairwise_sq_dists(pooled, pooled)[~np.tri(len(pooled), dtype=bool)]
    med = float(np.median(np.sqrt(upper, out=upper), overwrite_input=True)) if upper.size else 0.0
    sigma = med if med > 0 else 1.0
    denom = 2.0 * sigma * sigma
    kxx = np.exp(-_pairwise_sq_dists(sx, sx) / denom).mean()
    kxy = np.exp(-_pairwise_sq_dists(sx, sy) / denom).mean()
    kyy = np.exp(-_pairwise_sq_dists(sy, sy) / denom).mean()
    return max(0.0, float(kxx - 2.0 * kxy + kyy))
