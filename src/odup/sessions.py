"""Interaction-log ingestion, sessionization, temporal slicing, and a
synthetic drifting-session generator for desk-scale experiments.

Event logs are delimiter-separated text, one ``user<sep>item<sep>unix_seconds``
record per line, read a chunk of text at a time into integer and float64
columns; sessionizing, filtering and indexing run on those columns. Log and
synthetic sessions alike become one flat ``SessionLayout``, which the
holdout and the slices cut. Slices partition the training pairs: slice t
holds the (prefix, label) pairs of the t-th temporal chunk of sessions, and
every slice is a view of one flat pair layout.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import DataError
from .numkit import Rng, choice_cdf
from .sealed import write_file

ZIPF_EXPONENT = 1.2  # synthetic item popularity falls as 1 / rank^ZIPF_EXPONENT
SESSION_GAP = 8 * 3600.0  # seconds between a user's events that split an event log's sessions
MIN_LEN, MAX_LEN = 2, 50  # the session lengths an event log's run keeps
TEST_FRAC = 0.1  # the temporally last share of sessions held out as the test set
SYNTH_LEN_RANGE = (3, 10)  # the shortest and longest synthetic session
LOG_CHUNK = 1 << 20  # characters of event-log text read and checked at a time


@dataclass
class Session:
    """Item ids (str) before indexing, vocabulary indices (int) after."""

    items: list
    start: float


@dataclass
class EventLog:
    """An event log as columns, one entry per event in file order. A user's
    or item's code is its id's rank among the log's distinct ids of that
    kind, in string order."""

    users: np.ndarray     # intp user codes
    items: np.ndarray     # intp item codes
    seconds: np.ndarray   # float64, finite and non-negative
    item_ids: list[str]   # item code -> id, sorted


@dataclass
class SessionLayout:
    """Sessions in time order as one flat array: session i is
    ``items[offsets[i]:offsets[i + 1]]``."""

    items: np.ndarray    # intp item codes or vocabulary indices
    offsets: np.ndarray  # intp, one more than there are sessions; offsets[0] == 0

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def split(self, n: int) -> tuple[SessionLayout, SessionLayout]:
        """The first ``n`` sessions and the rest, as views of these arrays."""
        cut = self.offsets[n]
        return (SessionLayout(self.items[:cut], self.offsets[: n + 1]),
                SessionLayout(self.items[cut:], self.offsets[n:] - cut))


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


def read_event_log(path, delimiter: str) -> EventLog:
    """The events of the log at ``path``, read LOG_CHUNK characters of text
    at a time, each chunk extended to the end of its last line. A chunk's
    lines are checked together: three fields each, and a ``float()``
    timestamp each, finite and non-negative. A chunk that fails is walked
    line by line, so the DataError names the first faulty line, blank lines
    counted. A log with no event is a DataError too."""
    user_codes: dict[str, int] = {}
    item_codes: dict[str, int] = {}
    chunks = []  # (user codes, item codes, seconds) per chunk
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            lineno = 0
            while text := fh.read(LOG_CHUNK):
                if not text.endswith("\n"):
                    text += fh.readline()
                text = text.removesuffix("\n")
                chunks.append(_read_lines(text, delimiter, path, lineno, user_codes, item_codes))
                lineno += text.count("\n") + 1
    except UnicodeDecodeError:
        # a line read before the decoder meets the bad byte reports its own fault
        with open(path, "r", encoding="utf-8-sig") as fh, contextlib.suppress(UnicodeDecodeError):
            _raise_first_fault(fh, delimiter, path, 0)
        raise DataError(f"{path}: event log is not UTF-8 text") from None
    except OSError as exc:
        raise DataError(f"cannot read event log {path}: {exc.strerror or exc}") from None
    if not any(len(seconds) for _, _, seconds in chunks):
        raise DataError(f"event log is empty: {path}")
    users, items, seconds = (np.concatenate(col) for col in zip(*chunks))
    del chunks
    item_ids = sorted(item_codes)
    return EventLog(_rank(user_codes, sorted(user_codes))[users], _rank(item_codes, item_ids)[items],
                    seconds, item_ids)


def _read_lines(text: str, delimiter: str, path, lineno: int, user_codes: dict, item_codes: dict):
    """Columns of the events on the lines of ``text``, which follow line ``lineno``."""
    lines = rows = text.split("\n")
    body = text
    if "" in rows:
        rows = [row for row in lines if row]
        body = "\n".join(rows)
    if list(map(str.count, rows, itertools.repeat(delimiter))).count(2) != len(rows):
        _raise_first_fault(lines, delimiter, path, lineno)
    # no field holds a newline, and the delimiter splits each row in three
    fields = body.replace(delimiter, "\n").split("\n") if rows else []
    try:
        seconds = np.fromiter(map(float, fields[2::3]), np.float64, len(rows))
    except ValueError:
        _raise_first_fault(lines, delimiter, path, lineno)
    if not np.all((seconds >= 0) & (seconds < math.inf)):  # nan fails both
        _raise_first_fault(lines, delimiter, path, lineno)
    return _codes(fields[0::3], user_codes), _codes(fields[1::3], item_codes), seconds


def _raise_first_fault(lines, delimiter: str, path, lineno: int) -> NoReturn:
    """The DataError of the first faulty one of ``lines``, which follow line ``lineno``."""
    for lineno, line in enumerate(lines, start=lineno + 1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(delimiter)
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        ts = parts[2]
        try:
            t = float(ts)
        except ValueError:
            raise DataError(f"{path}:{lineno}: bad timestamp {ts!r}") from None
        if not 0 <= t < math.inf:
            raise DataError(f"{path}:{lineno}: timestamp {ts!r} is negative or not finite")
    raise AssertionError("a chunk failed a check that none of its lines fails")


def _codes(ids: list[str], codes: dict[str, int]) -> np.ndarray:
    """Each id's code in ``codes``, where an id not yet there gets the next."""
    new = set(ids).difference(codes)
    codes.update(zip(new, range(len(codes), len(codes) + len(new))))
    return np.fromiter(map(codes.__getitem__, ids), np.intp, len(ids))


def _rank(codes: dict[str, int], ordered: list[str]) -> np.ndarray:
    """Each code's rank, by its id, in ``ordered``, which lists every id."""
    rank = np.empty(len(codes), np.intp)
    rank[np.fromiter(map(codes.__getitem__, ordered), np.intp, len(codes))] = np.arange(len(codes))
    return rank


def write_event_log(path, sessions: list[Session]) -> None:
    """One ``u<i> TAB i<item> TAB start+j`` line per item (the j-th of session
    i; numbers zero-padded to six digits): the format ``read_event_log`` reads."""
    write_file(path, "".join(f"u{i:06d}\ti{item:06d}\t{sess.start + j:.1f}\n"
                             for i, sess in enumerate(sessions)
                             for j, item in enumerate(sess.items)))


def sessionize(log: EventLog) -> SessionLayout:
    """Each user's events, ordered by (time, item id), split into sessions
    at gaps longer than SESSION_GAP; the sessions are ordered by start time,
    ties by user id. Items stay item codes, so the result does not depend on
    the order of the log's lines."""
    n = len(log.seconds)
    order = np.lexsort((log.items, log.seconds, log.users))
    seconds, users = log.seconds[order], log.users[order]
    head = np.ones(n, dtype=bool)
    head[1:] = (users[1:] != users[:-1]) | (np.diff(seconds) > SESSION_GAP)
    heads = np.flatnonzero(head)
    by_start = np.argsort(seconds[heads], kind="stable")
    lens = np.diff(heads, append=n)[by_start]
    return _gather(log.items[order], heads[by_start], lens)


def _gather(items: np.ndarray, heads: np.ndarray, lens: np.ndarray) -> SessionLayout:
    """The layout whose sessions are ``items[heads[i]:heads[i] + lens[i]]``."""
    offsets = np.zeros(len(lens) + 1, dtype=np.intp)
    np.cumsum(lens, out=offsets[1:])
    index = np.arange(offsets[-1], dtype=np.intp)
    index += np.repeat(heads - offsets[:-1], lens)
    return SessionLayout(items[index], offsets)


def filter_and_index(sessions: SessionLayout, item_ids: list[str]) -> tuple[SessionLayout, list[str]]:
    """Drop sessions outside [MIN_LEN, MAX_LEN] and map item codes to dense
    indices by frequency rank, ties broken by first-seen order; returns the
    kept sessions and the vocabulary's item ids, by index. Every item of a
    kept session is in the vocabulary.
    """
    lens = np.diff(sessions.offsets)
    kept = np.flatnonzero((MIN_LEN <= lens) & (lens <= MAX_LEN))
    if not kept.size:
        raise DataError("all sessions were filtered out")
    kept = _gather(sessions.items, sessions.offsets[kept], lens[kept])
    codes, first, counts = np.unique(kept.items, return_index=True, return_counts=True)
    vocab = codes[np.lexsort((first, -counts))]
    index = np.empty(len(item_ids), dtype=np.intp)
    index[vocab] = np.arange(len(vocab))
    return SessionLayout(index[kept.items], kept.offsets), [item_ids[c] for c in vocab.tolist()]


def layout_of(sessions: list[Session]) -> SessionLayout:
    """The layout of ``sessions``, in their order."""
    lens = np.fromiter(map(len, (s.items for s in sessions)), np.intp, len(sessions))
    offsets = np.zeros(len(sessions) + 1, dtype=np.intp)
    np.cumsum(lens, out=offsets[1:])
    items = np.fromiter(itertools.chain.from_iterable(s.items for s in sessions), np.intp, int(offsets[-1]))
    return SessionLayout(items, offsets)


def augment_split(sessions: SessionLayout) -> SessionDataset:
    """Sequence splitting: [v1..vl] -> ([v1],v2), ([v1,v2],v3), ...; every
    item but a session's first is a label."""
    lens = np.diff(sessions.offsets)
    if lens.size and lens.min() < 2:
        raise ValueError("augment_split requires sessions of length >= 2")
    heads = sessions.offsets[:-1]
    starts = np.repeat(heads, lens - 1)
    ends = np.delete(np.arange(len(sessions.items)), heads)
    return SessionDataset(sessions.items, starts, ends)


def temporal_slices(sessions: SessionLayout, plan: SlicePlan) -> list[SessionDataset]:
    """Temporal slices of sessions in time order: slice t holds the sessions
    between the earliest sum(f_1..f_t-1) and sum(f_1..f_t) fractions,
    augmented into (prefix, label) pairs. The slices are consecutive views
    of one ``augment_split``, so together they hold each pair once. A slice
    that rounding leaves with no session is a DataError.
    """
    n = len(sessions)
    bounds = plan.boundaries(n)
    for t, (a, b) in enumerate(zip([0] + bounds, bounds), start=1):
        if a == b:
            raise DataError(f"slice {t} of {len(bounds)} gets none of the {n} training sessions")
    everything = augment_split(sessions)
    # session b's first pair: the items before it, less one per earlier session
    ends = [int(sessions.offsets[b]) - b for b in bounds]
    return [SessionDataset(everything.items, everything.starts[a:b], everything.ends[a:b])
            for a, b in zip([0] + ends, ends)]


def holdout_split(sessions: SessionLayout) -> tuple[SessionLayout, SessionLayout]:
    """The temporally last TEST_FRAC of sessions in time order held out as
    the test set: (training sessions, test sessions)."""
    n = len(sessions)
    if n < 2:
        raise DataError(f"{n} session(s) after filtering; a run needs at least 2 "
                        "(the last is held out for testing)")
    n_test = min(max(int(round(n * TEST_FRAC)), 1), n - 1)
    return sessions.split(n - n_test)


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

