"""Interaction-log ingestion, sessionization, temporal slicing, and a
synthetic drifting-session generator for desk-scale experiments.

Event logs are delimiter-separated text, one ``user<sep>item<sep>unix_seconds``
record per line. Slicing is cumulative: slice t contains every
(prefix, label) pair of slice t-1 plus the next temporal chunk.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .numkit import Rng

Event = tuple[str, str, float]  # (user, item, seconds since epoch)

CACHE_VERSION = 1


@dataclass
class Session:
    """Item ids (str) before indexing, vocabulary indices (int) after."""

    items: list
    start: float


@dataclass
class SessionDataset:
    pairs: list[tuple[list[int], int]]
    vocab_size: int
    slice_id: int = 0

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass
class SlicePlan:
    fractions: list[float]

    def __post_init__(self):
        fr = [float(f) for f in self.fractions]
        if not fr or any(f <= 0 for f in fr):
            raise ValueError("slice fractions must be positive")
        if abs(sum(fr) - 1.0) > 1e-9:
            raise ValueError("slice fractions must sum to 1")
        self.fractions = fr

    @staticmethod
    def from_ratios(ratios) -> "SlicePlan":
        ratios = [float(r) for r in ratios]
        if not all(0 < r < float("inf") for r in ratios):
            raise ValueError("slice ratios must be positive and finite")
        total = sum(ratios)
        return SlicePlan([r / total for r in ratios])

    def boundaries(self, n: int) -> list[int]:
        """Cumulative session counts per slice; the last is always n."""
        cum = np.cumsum(self.fractions)
        bounds = [min(n, int(round(c * n))) for c in cum]
        bounds[-1] = n
        for i in range(1, len(bounds)):
            bounds[i] = max(bounds[i], bounds[i - 1])
        return bounds


def read_event_log(path, delimiter: str = "\t") -> list[Event]:
    events: list[Event] = []
    with open(path, "r", encoding="utf-8") as fh:
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
            if t < 0:
                raise DataError(f"{path}:{lineno}: negative timestamp")
            events.append((user, item, t))
    return events


def sessionize(log: list[Event], gap: float) -> list[Session]:
    """Group each user's events into sessions split at inter-event gaps > gap.

    Records are sorted internally by (user, timestamp, item), so the result
    is invariant under shuffling of the input.
    """
    if not gap > 0:
        raise ValueError("gap must be positive")
    sessions: list[Session] = []
    ordered = sorted(log, key=lambda e: (e[0], e[2], e[1]))
    if ordered and min(e[2] for e in ordered) < 0:
        raise DataError("negative timestamp in event log")
    cur_user = None
    cur_items: list = []
    cur_start = 0.0
    last_ts = 0.0
    for user, item, ts in ordered:
        if user != cur_user or ts - last_ts > gap:
            if cur_items:
                sessions.append(Session(cur_items, cur_start))
            cur_user, cur_items, cur_start = user, [], ts
        cur_items.append(item)
        last_ts = ts
    if cur_items:
        sessions.append(Session(cur_items, cur_start))
    sessions.sort(key=lambda s: s.start)
    return sessions


def filter_and_index(
    sessions: list[Session],
    min_len: int = 2,
    max_len: int = 50,
    top_items: int | None = None,
) -> tuple[list[Session], list[str]]:
    """Drop sessions outside [min_len, max_len], optionally keep only the
    most frequent items, and map item ids to dense indices by frequency rank
    (ties broken by first-seen order).
    """
    if min_len < 2:
        raise ValueError("min_len must be at least 2")
    if max_len < min_len:
        raise ValueError("max_len must be >= min_len")
    kept = [s for s in sessions if min_len <= len(s.items) <= max_len]
    counts: dict[str, int] = {}
    first_seen: dict[str, int] = {}
    for s in kept:
        for it in s.items:
            counts[it] = counts.get(it, 0) + 1
            if it not in first_seen:
                first_seen[it] = len(first_seen)
    ranked = sorted(counts, key=lambda it: (-counts[it], first_seen[it]))
    if top_items is not None and top_items < len(ranked):
        vocab_items = ranked[:top_items]
        keep_set = set(vocab_items)
        stripped = []
        for s in kept:
            items = [it for it in s.items if it in keep_set]
            if min_len <= len(items) <= max_len:
                stripped.append(Session(items, s.start))
        kept = stripped
    else:
        vocab_items = ranked
    index = {it: i for i, it in enumerate(vocab_items)}
    out = [Session([index[it] for it in s.items], s.start) for s in kept]
    if not out:
        raise DataError("all sessions were filtered out")
    return out, vocab_items


def augment_split(sessions: list[Session], vocab_size: int, slice_id: int = 0) -> SessionDataset:
    """Sequence splitting: [v1..vl] -> ([v1],v2), ([v1,v2],v3), ..."""
    pairs: list[tuple[list[int], int]] = []
    for s in sessions:
        items = s.items
        if len(items) < 2:
            raise ValueError("augment_split requires sessions of length >= 2")
        for end in range(1, len(items)):
            pairs.append((list(items[:end]), items[end]))
    return SessionDataset(pairs, vocab_size, slice_id)


def temporal_slices(sessions: list[Session], plan: SlicePlan, vocab_size: int) -> list[SessionDataset]:
    """Cumulative temporal slices: slice t holds the earliest sum(f_1..f_t)
    fraction of sessions, augmented into (prefix, label) pairs.
    """
    z = len(plan.fractions)
    if len(sessions) < z:
        raise DataError(f"need at least {z} sessions for {z} slices")
    ordered = sorted(sessions, key=lambda s: s.start)
    bounds = plan.boundaries(len(ordered))
    return [
        augment_split(ordered[:b], vocab_size, slice_id=t + 1)
        for t, b in enumerate(bounds)
    ]


def holdout_split(sessions: list[Session], test_frac: float) -> tuple[list[Session], list[Session]]:
    """Temporally last ``test_frac`` of sessions held out as the test set."""
    if not 0 < test_frac < 1:
        raise ValueError("test_frac must be in (0, 1)")
    ordered = sorted(sessions, key=lambda s: s.start)
    n_test = int(round(len(ordered) * test_frac))
    n_test = min(max(n_test, 1), len(ordered) - 1)
    return ordered[: len(ordered) - n_test], ordered[len(ordered) - n_test:]


@dataclass
class SynthResult:
    sessions: list[Session]          # training sessions, temporal order
    boundaries: list[int]            # cumulative session counts per slice
    slices: list[SessionDataset]
    test_sessions: list[Session]
    test: SessionDataset
    vocab_size: int

    def slice_sessions(self, t: int) -> list[Session]:
        """Sessions belonging to slice t (1-based), non-cumulative."""
        lo = 0 if t == 1 else self.boundaries[t - 2]
        return self.sessions[lo: self.boundaries[t - 1]]


def synth_generate(
    rng: Rng,
    vocab_size: int,
    n_sessions: int,
    drift: float,
    plan: SlicePlan,
    *,
    n_clusters: int = 8,
    zipf_exponent: float = 1.2,
    len_range: tuple[int, int] = (3, 10),
    test_frac: float = 0.1,
) -> SynthResult:
    """Sessions drawn from item-popularity clusters; ``drift`` shifts
    preferences per slice on two channels: the cluster mixture weights
    rotate, and a drift-sized fraction of items migrates to the next
    cluster (changing co-occurrence, which is what moves trained
    embeddings between slices).

    drift=0 keeps everything constant across slices. Deterministic per rng.
    """
    if vocab_size < 50:
        raise ValueError("vocab_size must be at least 50")
    if n_sessions < 100:
        raise ValueError("n_sessions must be at least 100")
    if not 0 <= drift <= 1:
        raise ValueError("drift must lie in [0, 1]")
    lo, hi = len_range
    if lo < 2 or hi < lo:
        raise ValueError("len_range must satisfy 2 <= lo <= hi")

    setup = rng.child("synth-setup")
    z = len(plan.fractions)
    # every item gets an intrinsic Zipf popularity weight (over a seeded
    # permutation) and a base cluster; cluster membership can migrate
    item_weight = 1.0 / np.power(
        1.0 + setup.permutation(vocab_size).astype(np.float64), zipf_exponent
    )
    membership = np.repeat(np.arange(n_clusters), -(-vocab_size // n_clusters))[:vocab_size]
    memberships = [membership.copy()]
    n_migrate = int(round(vocab_size * drift / 2.0))
    for t in range(1, z):
        nxt = memberships[-1].copy()
        if n_migrate:
            movers = setup.choice(vocab_size, n_migrate, replace=False)
            nxt[movers] = (nxt[movers] + 1) % n_clusters
        memberships.append(nxt)

    def cluster_dists(memb: np.ndarray):
        items, probs = [], []
        for c in range(n_clusters):
            pool = np.flatnonzero(memb == c)
            w = item_weight[pool]
            items.append(pool)
            probs.append(w / w.sum())
        return items, probs

    per_slice_dists = [cluster_dists(m) for m in memberships]

    base_w = np.power(0.6, np.arange(n_clusters, dtype=np.float64))
    base_w /= base_w.sum()

    def slice_weights(t: int) -> np.ndarray:
        w = (1.0 - drift) * base_w + drift * np.roll(base_w, t)
        return w / w.sum()

    n_test = min(max(int(round(n_sessions * test_frac)), 1), n_sessions - z)
    n_train = n_sessions - n_test
    bounds = plan.boundaries(n_train)

    draw = rng.child("synth-sessions")

    def make_session(t: int, start: float) -> Session:
        weights = slice_weights(t)
        items_by_c, probs_by_c = per_slice_dists[t]
        c = int(draw.choice(n_clusters, 1, replace=True, p=weights)[0])
        while len(items_by_c[c]) == 0:  # a cluster can empty out under migration
            c = (c + 1) % n_clusters
        length = int(draw.integers(lo, hi + 1))
        pool, probs = items_by_c[c], probs_by_c[c]
        items = pool[draw.choice(len(pool), length, replace=True, p=probs)]
        return Session([int(i) for i in items], start)

    sessions: list[Session] = []
    slice_idx = 0
    for j in range(n_train):
        while j >= bounds[slice_idx]:
            slice_idx += 1
        sessions.append(make_session(slice_idx, float(j) * 10.0))
    test_sessions = [
        make_session(z - 1, float(n_train + j) * 10.0) for j in range(n_test)
    ]

    slices = temporal_slices(sessions, plan, vocab_size)
    test = augment_split(test_sessions, vocab_size, slice_id=0)
    return SynthResult(sessions, bounds, slices, test_sessions, test, vocab_size)


def _pack_dataset(ds: SessionDataset) -> bytes:
    lens = np.array([len(p) for p, _ in ds.pairs], dtype="<u4")
    flat = np.array([i for p, _ in ds.pairs for i in p], dtype="<u4")
    labels = np.array([l for _, l in ds.pairs], dtype="<u4")
    head = struct.pack("<III", len(ds.pairs), len(flat), ds.slice_id)
    return head + lens.tobytes() + flat.tobytes() + labels.tobytes()


def _unpack_dataset(buf: bytes, off: int, vocab_size: int) -> tuple[SessionDataset, int]:
    n_pairs, total, slice_id = struct.unpack_from("<III", buf, off)
    off += 12
    lens = np.frombuffer(buf, "<u4", n_pairs, off)
    off += 4 * n_pairs
    flat = np.frombuffer(buf, "<u4", total, off)
    off += 4 * total
    labels = np.frombuffer(buf, "<u4", n_pairs, off)
    off += 4 * n_pairs
    pairs = []
    pos = 0
    for ln, lab in zip(lens, labels):
        pairs.append(([int(x) for x in flat[pos: pos + ln]], int(lab)))
        pos += ln
    return SessionDataset(pairs, vocab_size, int(slice_id)), off


def save_dataset_cache(path, slices: list[SessionDataset], test: SessionDataset, vocab: list[str]) -> None:
    """Binary snapshot: version byte, vocab table, slice + test pair arrays,
    trailing CRC-32. Re-slicing raw logs is only done once.
    """
    parts = [struct.pack("<BI", CACHE_VERSION, len(vocab))]
    for item in vocab:
        enc = item.encode("utf-8")
        parts.append(struct.pack("<H", len(enc)) + enc)
    parts.append(struct.pack("<B", len(slices)))
    for ds in slices:
        parts.append(_pack_dataset(ds))
    parts.append(_pack_dataset(test))
    body = b"".join(parts)
    with open(path, "wb") as fh:
        fh.write(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


def load_dataset_cache(path) -> tuple[list[SessionDataset], SessionDataset, list[str]]:
    with open(path, "rb") as fh:
        buf = fh.read()
    if len(buf) < 10:
        raise DataError(f"{path}: truncated dataset cache")
    body, crc = buf[:-4], struct.unpack("<I", buf[-4:])[0]
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        raise DataError(f"{path}: dataset cache CRC mismatch")
    version, n_vocab = struct.unpack_from("<BI", body, 0)
    if version != CACHE_VERSION:
        raise DataError(f"{path}: unsupported cache version {version}")
    off = 5
    vocab = []
    for _ in range(n_vocab):
        (ln,) = struct.unpack_from("<H", body, off)
        off += 2
        vocab.append(body[off: off + ln].decode("utf-8"))
        off += ln
    (n_slices,) = struct.unpack_from("<B", body, off)
    off += 1
    slices = []
    for _ in range(n_slices):
        ds, off = _unpack_dataset(body, off, n_vocab)
        slices.append(ds)
    test, off = _unpack_dataset(body, off, n_vocab)
    if off != len(body):
        raise DataError(f"{path}: trailing bytes in dataset cache")
    return slices, test, vocab
