"""Interaction-log ingestion, sessionization, temporal slicing, and a
synthetic drifting-session generator for desk-scale experiments.

Event logs are delimiter-separated text, one ``user<sep>item<sep>unix_seconds``
record per line. Slices partition the training pairs: slice t holds the
(prefix, label) pairs of the t-th temporal chunk of sessions, and every
slice is a view of one flat pair layout.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .numkit import Rng, choice_cdf
from .sealed import write_file

Event = tuple[str, str, float]  # (user, item, seconds since epoch)
ZIPF_EXPONENT = 1.2  # synthetic item popularity falls as 1 / rank^ZIPF_EXPONENT
SESSION_GAP = 8 * 3600.0  # seconds between a user's events that split an event log's sessions
MIN_LEN, MAX_LEN = 2, 50  # the session lengths an event log's run keeps
TEST_FRAC = 0.1  # the temporally last share of sessions held out as the test set
SYNTH_LEN_RANGE = (3, 10)  # the shortest and longest synthetic session


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
        """Cumulative session counts per slice; the last is always n. The
        fractions are positive, so the counts never decrease."""
        cum = np.cumsum(self.fractions)
        bounds = [min(n, int(round(c * n))) for c in cum]
        bounds[-1] = n
        return bounds


def read_event_log(path, delimiter: str) -> list[Event]:
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
                if not 0 <= t < math.inf:
                    raise DataError(f"{path}:{lineno}: timestamp {ts!r} is negative or not finite")
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


def sessionize(log: list[Event]) -> list[Session]:
    """Group each user's events into sessions split at inter-event gaps
    longer than SESSION_GAP.

    Records are sorted internally by (user, timestamp, item), so the result
    is invariant under shuffling of the input.
    """
    sessions: list[Session] = []
    ordered = sorted(log, key=lambda e: (e[0], e[2], e[1]))
    cur_user = None
    cur_items: list = []
    cur_start = 0.0
    last_ts = 0.0
    for user, item, ts in ordered:
        if user != cur_user or ts - last_ts > SESSION_GAP:
            if cur_items:
                sessions.append(Session(cur_items, cur_start))
            cur_user, cur_items, cur_start = user, [], ts
        cur_items.append(item)
        last_ts = ts
    if cur_items:
        sessions.append(Session(cur_items, cur_start))
    sessions.sort(key=lambda s: s.start)
    return sessions


def filter_and_index(sessions: list[Session]) -> tuple[list[Session], list[str]]:
    """Drop sessions outside [MIN_LEN, MAX_LEN] and map item ids to dense
    indices by frequency rank (ties broken by first-seen order); every item
    of a kept session is in the vocabulary.
    """
    kept = [s for s in sessions if MIN_LEN <= len(s.items) <= MAX_LEN]
    if not kept:
        raise DataError("all sessions were filtered out")
    # a Counter keeps first-seen order, and the stable sort keeps it for ties
    counts = Counter(it for s in kept for it in s.items)
    vocab_items = sorted(counts, key=lambda it: -counts[it])
    index = {it: i for i, it in enumerate(vocab_items)}
    return [Session([index[it] for it in s.items], s.start) for s in kept], vocab_items


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
    """Temporal slices: slice t holds the sessions between the earliest
    sum(f_1..f_t-1) and sum(f_1..f_t) fractions, augmented into (prefix,
    label) pairs. The slices are consecutive views of one ``augment_split``
    of the time-ordered sessions, so together they hold each pair once. A
    slice that rounding leaves with no session is a DataError.
    """
    bounds = plan.boundaries(len(sessions))
    for t, (a, b) in enumerate(zip([0] + bounds, bounds), start=1):
        if a == b:
            raise DataError(f"slice {t} of {len(bounds)} gets none of the {len(sessions)} training sessions")
    ordered = sorted(sessions, key=lambda s: s.start)
    everything = augment_split(ordered)
    pair_counts = np.cumsum([0] + [len(s.items) - 1 for s in ordered])
    ends = [int(pair_counts[b]) for b in bounds]
    return [SessionDataset(everything.items, everything.starts[a:b], everything.ends[a:b])
            for a, b in zip([0] + ends, ends)]


def holdout_split(sessions: list[Session]) -> tuple[list[Session], list[Session]]:
    """Temporally last TEST_FRAC of sessions held out as the test set."""
    if len(sessions) < 2:
        raise DataError(f"{len(sessions)} session(s) after filtering; a run needs at least 2 "
                        "(the last is held out for testing)")
    ordered = sorted(sessions, key=lambda s: s.start)
    n_test = int(round(len(ordered) * TEST_FRAC))
    n_test = min(max(n_test, 1), len(ordered) - 1)
    return ordered[: len(ordered) - n_test], ordered[len(ordered) - n_test:]


@dataclass
class SynthResult:
    sessions: list[Session]          # training sessions, temporal order
    test_sessions: list[Session]


def synth_generate(
    rng: Rng,
    vocab_size: int,
    n_sessions: int,
    drift: float,
    plan: SlicePlan,
    *,
    n_clusters: int = 8,
) -> SynthResult:
    """Training sessions (sliced by ``plan``), then the last TEST_FRAC of
    ``n_sessions`` as test sessions, each of a length in SYNTH_LEN_RANGE,
    drawn from clusters of Zipf(ZIPF_EXPONENT)-popular items; ``drift`` shifts
    preferences per slice on two channels: the cluster mixture weights
    rotate, and a drift-sized fraction of items migrates to the next
    cluster (changing co-occurrence, which moves trained embeddings).

    drift=0 keeps everything constant across slices. Deterministic per rng.
    """
    lo, hi = SYNTH_LEN_RANGE
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
            movers = setup.sample(vocab_size, n_migrate)
            nxt[movers] = (nxt[movers] + 1) % n_clusters
        memberships.append(nxt)

    def cluster_dists(memb: np.ndarray):
        """Per cluster, its items and the CDF of their normalized weights."""
        items, cdfs = [], []
        for c in range(n_clusters):
            pool = np.flatnonzero(memb == c)
            w = item_weight[pool]
            items.append(pool)
            cdfs.append(choice_cdf(w / w.sum()))
        return items, cdfs

    per_slice_dists = [cluster_dists(m) for m in memberships]

    base_w = np.power(0.6, np.arange(n_clusters, dtype=np.float64))
    base_w /= base_w.sum()

    mixture_cdfs = []
    for t in range(z):
        w = (1.0 - drift) * base_w + drift * np.roll(base_w, t)
        mixture_cdfs.append(choice_cdf(w / w.sum()))

    n_test = min(max(int(round(n_sessions * TEST_FRAC)), 1), n_sessions - z)
    n_train = n_sessions - n_test
    bounds = plan.boundaries(n_train)

    draw = rng.child("synth-sessions")

    def make_session(t: int, start: float) -> Session:
        # inverse-CDF draws take Generator.choice's uniforms and give its indices
        items_by_c, cdfs_by_c = per_slice_dists[t]
        c = int(draw.inverse_cdf(mixture_cdfs[t], 1)[0])
        while len(items_by_c[c]) == 0:  # a cluster can empty out under migration
            c = (c + 1) % n_clusters
        length = int(draw.integers(lo, hi + 1))
        return Session(items_by_c[c][draw.inverse_cdf(cdfs_by_c[c], length)].tolist(), start)

    # session j belongs to the first slice whose boundary exceeds j
    slice_of = np.searchsorted(bounds, np.arange(n_train), side="right")
    sessions = [make_session(int(t), float(j) * 10.0) for j, t in enumerate(slice_of)]
    test_sessions = [
        make_session(z - 1, float(n_train + j) * 10.0) for j in range(n_test)
    ]
    return SynthResult(sessions, test_sessions)

