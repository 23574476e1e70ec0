"""Interaction-log ingestion, sessionization, temporal slicing, and a
synthetic drifting-session generator for desk-scale experiments.

Event logs are delimiter-separated text, one ``user<sep>item<sep>unix_seconds``
record per line. Slicing is cumulative: slice t contains every
(prefix, label) pair of slice t-1 plus the next temporal chunk.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .numkit import Rng
from .sealed import write_file

Event = tuple[str, str, float]  # (user, item, seconds since epoch)
ZIPF_EXPONENT = 1.2  # synthetic item popularity falls as 1 / rank^ZIPF_EXPONENT


@dataclass
class Session:
    """Item ids (str) before indexing, vocabulary indices (int) after."""

    items: list
    start: float


@dataclass
class SessionDataset:
    """Pair j is ``(items[starts[j]:ends[j]], items[ends[j]])``; the slices
    of one run are views of the same arrays, so items may outlast the pairs."""

    items: np.ndarray   # intp item indices
    starts: np.ndarray  # intp, one per pair
    ends: np.ndarray    # intp, one per pair; starts < ends < len(items)

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def pairs(self) -> list[tuple[list[int], int]]:
        """The pairs as Python lists, for inspection and tests."""
        flat = self.items.tolist()
        prefixes = map(flat.__getitem__, map(slice, self.starts.tolist(), self.ends.tolist()))
        return list(zip(prefixes, self.items[self.ends].tolist()))

    def head(self, n_pairs: int) -> "SessionDataset":
        """The first ``n_pairs`` pairs, as views of this dataset's arrays."""
        return SessionDataset(self.items, self.starts[:n_pairs], self.ends[:n_pairs])


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
    try:
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
    except UnicodeDecodeError:
        raise DataError(f"{path}: event log is not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"cannot read event log {path}: {exc.strerror or exc}") from None
    return events


def write_event_log(path, sessions: list[Session]) -> None:
    """One ``u<i> TAB i<item> TAB start+j`` line per item (the j-th of session
    i; numbers zero-padded to six digits): the format ``read_event_log`` reads."""
    write_file(path, "".join(f"u{i:06d}\ti{item:06d}\t{sess.start + j:.1f}\n"
                             for i, sess in enumerate(sessions)
                             for j, item in enumerate(sess.items)))


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


def check_filter_settings(min_len, max_len, top_items) -> None:
    """Raise ValueError for settings filter_and_index cannot work with."""
    if min_len < 2:
        raise ValueError("min_len must be at least 2")
    if max_len < min_len:
        raise ValueError("max_len must be >= min_len")
    if top_items is not None and top_items < 0:
        raise ValueError("top_items must be non-negative")


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
    check_filter_settings(min_len, max_len, top_items)
    kept = [s for s in sessions if min_len <= len(s.items) <= max_len]
    # a Counter keeps first-seen order, and the stable sort keeps it for ties
    counts = Counter(it for s in kept for it in s.items)
    ranked = sorted(counts, key=lambda it: -counts[it])
    vocab_items = ranked[:top_items]
    index = {it: i for i, it in enumerate(vocab_items)}
    # dropping items outside a top_items vocabulary can shorten a session
    indexed = (Session([index[it] for it in s.items if it in index], s.start) for s in kept)
    out = [s for s in indexed if min_len <= len(s.items) <= max_len]
    if not out:
        raise DataError("all sessions were filtered out")
    return out, vocab_items


def augment_split(sessions: list[Session]) -> SessionDataset:
    """Sequence splitting: [v1..vl] -> ([v1],v2), ([v1,v2],v3), ...; every
    item but a session's first is a label."""
    lens = np.array([len(s.items) for s in sessions], dtype=np.intp)
    if lens.size and lens.min() < 2:
        raise ValueError("augment_split requires sessions of length >= 2")
    items = np.fromiter(itertools.chain.from_iterable(s.items for s in sessions), np.intp, int(lens.sum()))
    offsets = np.cumsum(lens) - lens
    starts = np.repeat(offsets, lens - 1)
    ends = np.delete(np.arange(len(items)), offsets)
    return SessionDataset(items, starts, ends)


def temporal_slices(sessions: list[Session], plan: SlicePlan) -> list[SessionDataset]:
    """Cumulative temporal slices: slice t holds the earliest sum(f_1..f_t)
    fraction of sessions, augmented into (prefix, label) pairs: views of
    the first pairs of the last slice.
    """
    z = len(plan.fractions)
    if len(sessions) < z:
        raise DataError(f"need at least {z} sessions for {z} slices")
    ordered = sorted(sessions, key=lambda s: s.start)
    everything = augment_split(ordered)
    pair_counts = np.cumsum([0] + [len(s.items) - 1 for s in ordered])
    return [everything.head(int(pair_counts[b])) for b in plan.boundaries(len(ordered))]


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
    test_sessions: list[Session]
    vocab_size: int


def check_synth_settings(vocab_size, n_sessions, drift, n_clusters, len_range) -> None:
    """Raise ValueError for settings synth_generate cannot work with."""
    if vocab_size < 50:
        raise ValueError("vocab_size must be at least 50")
    if n_sessions < 100:
        raise ValueError("n_sessions must be at least 100")
    if not 0 <= drift <= 1:
        raise ValueError("drift must lie in [0, 1]")
    if n_clusters < 1:
        raise ValueError("n_clusters must be at least 1")
    lo, hi = len_range
    if lo < 2 or hi < lo:
        raise ValueError("len_range must satisfy 2 <= lo <= hi")


def synth_generate(
    rng: Rng,
    vocab_size: int,
    n_sessions: int,
    drift: float,
    plan: SlicePlan,
    *,
    n_clusters: int = 8,
    len_range: tuple[int, int] = (3, 10),
    test_frac: float = 0.1,
) -> SynthResult:
    """Training sessions (sliced by ``plan``), then test sessions, drawn from
    clusters of Zipf(ZIPF_EXPONENT)-popular items; ``drift`` shifts
    preferences per slice on two channels: the cluster mixture weights
    rotate, and a drift-sized fraction of items migrates to the next
    cluster (changing co-occurrence, which moves trained embeddings).

    drift=0 keeps everything constant across slices. Deterministic per rng.
    """
    check_synth_settings(vocab_size, n_sessions, drift, n_clusters, len_range)
    lo, hi = len_range
    setup = rng.child("synth-setup")
    z = len(plan.fractions)
    # every item gets an intrinsic Zipf popularity weight (over a seeded
    # permutation) and a base cluster; cluster membership can migrate
    item_weight = 1.0 / np.power(
        1.0 + setup.permutation(vocab_size).astype(np.float64), ZIPF_EXPONENT
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

    # session j belongs to the first slice whose boundary exceeds j
    slice_of = np.searchsorted(bounds, np.arange(n_train), side="right")
    sessions = [make_session(int(t), float(j) * 10.0) for j, t in enumerate(slice_of)]
    test_sessions = [
        make_session(z - 1, float(n_train + j) * 10.0) for j in range(n_test)
    ]
    return SynthResult(sessions, test_sessions, vocab_size)

