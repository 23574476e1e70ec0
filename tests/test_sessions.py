import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odup import cli, sessions
from odup.errors import DataError
from odup.numkit import Rng
from odup.pipeline import ExperimentConfig, prepare_data
from odup.sessions import (
    MAX_LEN, Session, SlicePlan, augment_split, filter_and_index, holdout_split, layout_of,
    read_event_log, sessionize, synth_generate, temporal_slices, write_event_log,
)

from helpers import (
    event_log_of, integers, layout_ids, prepare_reference, read_event_log_reference, slice_sessions,
    sessionize_reference, synth_reference,
)

HOUR = 3600.0


def sessionize_ids(log):
    """``sessionize``'s sessions of (user, item, seconds) events, as item ids."""
    columns = event_log_of(log)
    return layout_ids(sessionize(columns), columns.item_ids)


class TestSessionize:
    def test_hand_partition(self):
        assert sessions.SESSION_GAP == 8 * HOUR
        log = [("u", "a", 0.0), ("u", "b", 1 * HOUR), ("u", "c", 20 * HOUR)]
        assert sessionize_ids(log) == [["a", "b"], ["c"]]
        assert [s.start for s in sessionize_reference(log)] == [0.0, 20 * HOUR]

    def test_singleton(self, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 10.0)
        assert sessionize_ids([("u", "a", 5.0)]) == [["a"]]

    def test_users_independent(self, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 100.0)
        log = [("u1", "a", 0.0), ("u2", "b", 1.0), ("u1", "c", 2.0), ("u2", "d", 3.0)]
        assert sorted(sessionize_ids(log)) == [["a", "c"], ["b", "d"]]

    def test_empty_log(self, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 1.0)
        assert sessionize_ids([]) == []

    def test_shuffle_invariance(self, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 50.0)
        rng = Rng(4)
        log = [(f"u{int(i) % 3}", f"i{int(rng.integers(0, 20))}", float(rng.integers(0, 1000)))
               for i in range(60)]
        base = sessionize_ids(log)
        perm = [log[int(i)] for i in rng.permutation(60)]
        assert sessionize_ids(perm) == base

    def test_sessions_starting_together_follow_user_order(self):
        log = [("b", "x", 0.0), ("b", "y", 1.0), ("a", "z", 0.0), ("a", "w", 1.0)]
        assert sessionize_ids(log) == [["z", "w"], ["x", "y"]]

    def test_boundary_gap_shares_session(self, monkeypatch):
        log = [("u", "a", 0.0), ("u", "b", 10.0)]
        monkeypatch.setattr(sessions, "SESSION_GAP", 10.0)
        assert len(sessionize_ids(log)) == 1
        monkeypatch.setattr(sessions, "SESSION_GAP", 9.999)
        assert len(sessionize_ids(log)) == 2


class TestWriteEventLog:
    def test_round_trip(self, tmp_path):
        res = synth_generate(Rng(3).child("s"), 60, 200, 0.3, SlicePlan.from_ratios([1, 1]))
        written = res.sessions + res.test_sessions
        write_event_log(tmp_path / "events.tsv", written)
        log = read_event_log(tmp_path / "events.tsv", "\t")
        back = layout_ids(sessionize(log), log.item_ids)
        assert back == [[f"i{it:06d}" for it in s.items] for s in written]
        starts = [s.start for s in sessionize_reference(read_event_log_reference(tmp_path / "events.tsv", "\t"))]
        assert starts == [s.start for s in written]


class TestFilterAndIndex:
    def make(self, lists):
        """The layout of sessions of item ids, and its item ids by code."""
        ids = sorted({it for items in lists for it in items})
        return layout_of([Session([ids.index(it) for it in items], 0.0) for items in lists]), ids

    def test_short_sessions_dropped(self):
        out, vocab = filter_and_index(*self.make([["a"], ["a", "b"]]))
        assert len(out) == 1

    def test_long_sessions_dropped(self):
        out, _ = filter_and_index(*self.make([["x"] * (MAX_LEN + 1), ["a", "b"]]))
        assert len(out) == 1

    def test_frequency_rank_indexing(self):
        out, vocab = filter_and_index(*self.make([["b", "a"], ["a", "b"], ["a", "c"]]))
        assert vocab.index("a") == 0  # a appears 3 times
        assert set(vocab) == {"a", "b", "c"}
        assert layout_ids(out, vocab) == [["b", "a"], ["a", "b"], ["a", "c"]]

    def test_ties_keep_first_seen_order(self):
        _, vocab = filter_and_index(*self.make([["c", "b"], ["a", "b"], ["c", "a"]]))
        assert vocab == ["c", "b", "a"]

    def test_all_filtered_is_error(self):
        with pytest.raises(DataError):
            filter_and_index(*self.make([["a"]]))


class TestAugment:
    def test_three_items(self):
        ds = augment_split(layout_of([Session([0, 1, 2], 0.0)]))
        assert ds.pairs == [([0], 1), ([0, 1], 2)]

    def test_two_items(self):
        ds = augment_split(layout_of([Session([4, 7], 0.0)]))
        assert ds.pairs == [([4], 7)]

    @settings(max_examples=50)
    @given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=8), min_size=0, max_size=10))
    def test_matches_nested_loop(self, lists):
        sessions = [Session(items, float(i)) for i, items in enumerate(lists)]
        expected = []
        for items in lists:
            for end in range(1, len(items)):
                expected.append((list(items[:end]), items[end]))
        assert augment_split(layout_of(sessions)).pairs == expected

    @settings(max_examples=50)
    @given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=8), min_size=1, max_size=10))
    def test_pair_count(self, lists):
        sessions = [Session(items, float(i)) for i, items in enumerate(lists)]
        ds = augment_split(layout_of(sessions))
        assert len(ds.pairs) == sum(len(s) - 1 for s in lists)


class TestSlices:
    def test_spec_boundaries(self):
        sessions = [Session([0, 1], float(i)) for i in range(100)]
        plan = SlicePlan([0.1, 0.2, 0.3, 0.4])
        slices = temporal_slices(layout_of(sessions), plan)
        assert [len(s.pairs) for s in slices] == [10, 20, 30, 40]
        assert sum((s.pairs for s in slices), []) == augment_split(layout_of(sessions)).pairs

    def test_single_slice(self):
        sessions = [Session([0, 1], float(i)) for i in range(5)]
        slices = temporal_slices(layout_of(sessions), SlicePlan([1.0]))
        assert len(slices) == 1 and len(slices[0].pairs) == 5

    def test_gowalla_ratios(self):
        plan = SlicePlan.from_ratios([1, 3, 6, 10, 15])
        assert plan.boundaries(35) == [1, 4, 10, 20, 35]

    @settings(max_examples=200)
    @given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=12), st.integers(0, 10_000))
    def test_boundaries_never_decrease_and_end_at_n(self, ratios, n):
        bounds = SlicePlan.from_ratios(ratios).boundaries(n)
        assert len(bounds) == len(ratios) and bounds[-1] == n
        assert all(0 <= a <= b for a, b in zip(bounds, bounds[1:]))

    def test_fewer_sessions_than_slices(self):
        with pytest.raises(DataError):
            temporal_slices(layout_of([Session([0, 1], 0.0)]), SlicePlan([0.5, 0.5]))

    def test_a_slice_rounding_leaves_empty(self):
        # 12 logged sessions hold 11 for training; 11 / 35 rounds slice 1 to none
        sessions = [Session([0, 1], float(i)) for i in range(11)]
        with pytest.raises(DataError, match="slice 1 of 5 gets none of the 11 training sessions"):
            temporal_slices(layout_of(sessions), SlicePlan.from_ratios([1, 3, 6, 10, 15]))

    @settings(max_examples=30)
    @given(
        n_sessions=st.integers(4, 40),
        n_slices=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_partition_invariant(self, n_sessions, n_slices, seed):
        rng = Rng(seed)
        sessions = [
            Session([int(x) for x in integers(rng, 0, 6, int(rng.integers(2, 6)))], float(rng.uniform() * 100))
            for _ in range(n_sessions)
        ]
        ratios = [float(rng.uniform() + 0.1) for _ in range(n_slices)]
        plan = SlicePlan.from_ratios(ratios)
        bounds = [0] + plan.boundaries(n_sessions)
        ordered = sorted(sessions, key=lambda s: s.start)
        if any(lo == hi for lo, hi in zip(bounds, bounds[1:])):
            with pytest.raises(DataError, match="gets none of the"):
                temporal_slices(layout_of(ordered), plan)
            return
        slices = temporal_slices(layout_of(ordered), plan)
        # slice t holds the pairs of exactly the sessions its plan boundaries name
        for ds, lo, hi in zip(slices, bounds, bounds[1:]):
            assert ds.pairs == augment_split(layout_of(ordered[lo:hi])).pairs
        assert sum((ds.pairs for ds in slices), []) == augment_split(layout_of(ordered)).pairs

    def test_slices_are_views_of_one_layout(self):
        sessions = [Session([i % 5, (i + 1) % 5, (i + 2) % 5], float(i)) for i in range(20)]
        slices = temporal_slices(layout_of(sessions), SlicePlan.from_ratios([1, 2, 3]))
        whole = augment_split(layout_of(sessions))
        first = slices[0]
        offset = 0
        for ds in slices:
            assert ds.pairs == whole.pairs[offset: offset + len(ds)]
            offset += len(ds)
            assert ds.items is first.items
            assert ds.starts.base is first.starts.base and ds.ends.base is first.ends.base
        assert offset == len(whole)

    def test_ordering_is_temporal(self):
        # the log's first session starts later, so the first slice holds the other
        log = event_log_of([("u1", "a", 50.0), ("u1", "b", 51.0), ("u2", "c", 1.0), ("u2", "d", 2.0)])
        slices = temporal_slices(sessionize(log), SlicePlan([0.5, 0.5]))
        assert slices[0].pairs == [([2], 3)]


class TestHoldout:
    def test_last_fraction(self):
        sessions = [Session([i, i + 1], float(i)) for i in range(20)]
        train, test = holdout_split(layout_of(sessions))
        assert len(train) == 18 and len(test) == 2
        # the test set is the time-ordered layout's last sessions
        assert layout_ids(test, range(21)) == [[18, 19], [19, 20]]
        assert layout_ids(train, range(21)) == [[i, i + 1] for i in range(18)]

    def test_too_few_sessions(self):
        with pytest.raises(DataError, match="1 session\\(s\\) after filtering"):
            holdout_split(layout_of([Session([0, 1], 0.0)]))


class TestSynth:
    def plan(self):
        return SlicePlan.from_ratios([1, 2, 3, 4])

    def test_deterministic(self):
        a = synth_generate(Rng(5).child("s"), 60, 200, 0.4, self.plan())
        b = synth_generate(Rng(5).child("s"), 60, 200, 0.4, self.plan())
        assert [s.items for s in a.sessions] == [s.items for s in b.sessions]
        assert [s.items for s in a.test_sessions] == [s.items for s in b.test_sessions]

    def test_partition_and_counts(self):
        res = synth_generate(Rng(8).child("s"), 60, 300, 0.2, self.plan())
        slices = temporal_slices(layout_of(res.sessions), self.plan())
        for t, ds in enumerate(slices, start=1):
            assert ds.pairs == augment_split(layout_of(slice_sessions(res, self.plan(), t))).pairs
            assert len(ds) == sum(len(s.items) - 1 for s in slice_sessions(res, self.plan(), t))
        assert sum((ds.pairs for ds in slices), []) == augment_split(layout_of(res.sessions)).pairs

    def _slice_freqs(self, res):
        z = len(self.plan().fractions)
        freqs = np.zeros((z, 60))
        lens = []
        for t in range(1, z + 1):
            for sess in slice_sessions(res, self.plan(), t):
                lens.append(len(sess.items))
                for it in sess.items:
                    freqs[t - 1, it] += 1
        return freqs, float(np.mean(lens))

    def test_no_drift_indistinguishable(self):
        from scipy.stats import chi2_contingency

        res = synth_generate(Rng(12).child("s"), 60, 2000, 0.0, self.plan())
        freqs, deff = self._slice_freqs(res)
        freqs = freqs[:, freqs.sum(axis=0) > 0]
        # items within a session share one cluster draw, so counts are
        # overdispersed by roughly the session length; first-order
        # Rao-Scott correction divides by that design effect
        _, p, _, _ = chi2_contingency(freqs / deff)
        assert p > 0.01

    def test_strong_drift_detected(self):
        from scipy.stats import chi2_contingency

        res = synth_generate(Rng(12).child("s"), 60, 2000, 0.5, self.plan())
        freqs, deff = self._slice_freqs(res)
        freqs = freqs[:, freqs.sum(axis=0) > 0]
        _, p, _, _ = chi2_contingency(freqs / deff)
        assert p < 1e-4

    def test_drift_orders_total_variation(self):
        def tv_first_last(drift):
            res = synth_generate(Rng(12).child("s"), 60, 2000, drift, self.plan())
            freqs, _ = self._slice_freqs(res)
            p = freqs[0] / freqs[0].sum()
            q = freqs[-1] / freqs[-1].sum()
            return 0.5 * np.abs(p - q).sum()

        assert tv_first_last(0.5) > tv_first_last(0.1)


# (seed, vocab, sessions, drift, slice ratios, clusters): criterion 4's
# shape, the default config, the benchmark's event log, the least size, a
# drift that empties clusters, and no drift
SYNTH_SHAPES = [
    (3, 300, 3000, 0.25, [2, 1, 1, 1, 1], 6),
    (7, 400, 3000, 0.3, [1, 3, 6, 10, 15], 8),
    (5, 2000, 12000, 0.3, [1, 3, 6, 10, 15], 8),
    (1, 50, 100, 0.3, [1, 3, 6, 10, 15], 1),
    (2, 300, 1000, 1.0, [1, 1, 1, 1], 40),
    (4, 300, 1000, 0.0, [1, 1, 1], 8),
]


@pytest.mark.parametrize("seed,vocab,n,drift,ratios,clusters", SYNTH_SHAPES)
def test_synth_draws_the_per_session_reference_sessions(seed, vocab, n, drift, ratios, clusters):
    plan = SlicePlan.from_ratios(ratios)
    got = synth_generate(Rng(seed).child("synth"), vocab, n, drift, plan, n_clusters=clusters)
    want = synth_reference(Rng(seed).child("synth"), vocab, n, drift, plan, n_clusters=clusters)
    for ours, theirs in ((got.sessions, want.sessions), (got.test_sessions, want.test_sessions)):
        assert [(s.items, s.start) for s in ours] == [(s.items, s.start) for s in theirs]
        assert all(type(i) is int for s in ours for i in s.items)


def simulate_exit(tmp_path, data: str, capsys) -> tuple[int, str]:
    """``odup simulate``'s exit code and stderr on the event log at ``data``."""
    cfg = tmp_path / "log.cfg"
    cfg.write_text(f"data = {data}\n", encoding="utf-8")
    code = cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "simulate"])
    return code, capsys.readouterr().err


# (case, log bytes, LOG_CHUNK or None): each ends in the reference's DataError
MALFORMED_LOGS = [
    ("field count", b"u1\ta\t0\nu1\tb\n", None),
    ("bad timestamp", b"u1\ta\t0\nu1\tb\tzzz\n", None),
    ("nan", b"u1\ta\t0\nu1\tb\tnan\nu1\tc\t5\n", None),
    ("inf", b"u1\ta\t0\nu1\tb\tinf\nu1\tc\t5\n", None),
    ("-inf", b"u1\ta\t0\nu1\tb\t-inf\nu1\tc\t5\n", None),
    ("negative", b"u1\ta\t0\nu1\tb\t-1\nu1\tc\t5\n", None),
    ("not UTF-8", b"u1\ta\t0\nu1\t\xff\t1\n", None),
    # a per-line reader decodes 8 KiB at a time, so it meets line 2 before the byte
    ("a faulty line far before a bad byte", b"u1\ta\t0\nu1\tb\n" + b"u1\tc\t5\n" * 5000 + b"u1\t\xff\t1\n", None),
    ("after blank lines", b"\n\r\n\nu1\ta\t0\n\nu1\tb\n", None),
    # line 2 fails the range, which is checked after line 3's field count
    ("earlier line fails a later check", b"u1\ta\t0\nu1\tb\t-1\nu1\tc\n", None),
    ("first line of the second chunk", b"u1\ta\t0\nu1\tb\t1\nu1\tc\nu1\td\t2\n", 14),
]


class TestEventLogFile(object):
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 100.0)
        path = tmp_path / "events.tsv"
        path.write_text("u1\ta\t0\nu1\tb\t10\nu2\tc\t5\n", encoding="utf-8")
        log = read_event_log(path, "\t")
        assert (log.users.tolist(), log.items.tolist(), log.seconds.tolist()) == ([0, 0, 1], [0, 1, 2], [0.0, 10.0, 5.0])
        assert log.item_ids == ["a", "b", "c"]
        assert len(sessionize(log)) == 2

    def test_codes_follow_string_order(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("zed\tb\t1\nal\tab\t2\nzed\ta\t3\n", encoding="utf-8")
        log = read_event_log(path, "\t")
        assert log.users.tolist() == [1, 0, 1] and log.items.tolist() == [2, 1, 0]
        assert log.item_ids == ["a", "ab", "b"]

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,a,0\n", encoding="utf-8")
        log = read_event_log(path, ",")
        assert (log.users.tolist(), log.item_ids, log.seconds.tolist()) == ([0], ["a"], [0.0])

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\ta\t0\nu1\tb\n", encoding="utf-8")
        with pytest.raises(DataError, match="2"):
            read_event_log(path, "\t")

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\ta\tzzz\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_event_log(path, "\t")

    @pytest.mark.parametrize("ts", ["nan", "inf", "-inf", "-1"])
    def test_negative_or_non_finite_timestamp_rejected(self, tmp_path, ts):
        # float() parses nan and inf, and every comparison with nan is false,
        # so sessionize would merge the events around one into one session
        path = tmp_path / "bad.tsv"
        path.write_text(f"u1\ta\t0\nu1\tb\t{ts}\nu1\tc\t5\n", encoding="utf-8")
        with pytest.raises(DataError, match=":2: timestamp"):
            read_event_log(path, "\t")

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 1 << 20])
    def test_any_chunk_size_reads_the_same_events(self, tmp_path, monkeypatch, chunk):
        # blank lines fill whole chunks, a \r\n or a line spans a chunk end, and
        # the last line has no newline
        monkeypatch.setattr(sessions, "LOG_CHUNK", chunk)
        path = tmp_path / "events.tsv"
        path.write_bytes(b"\n\n\r\n\n\nu1\ta\t0\r\nu22\tbb\t1.5\r\r\n\nu1\tc\t2\n\n\n\nu3\ta\t3")
        log = read_event_log(str(path), "\t")
        users = sorted({u for u, _, _ in read_event_log_reference(str(path), "\t")})
        got = [(users[u], log.item_ids[i], t) for u, i, t in zip(log.users, log.items, log.seconds.tolist())]
        assert got == read_event_log_reference(str(path), "\t")

    @pytest.mark.parametrize("case, content, chunk", MALFORMED_LOGS, ids=[c[0] for c in MALFORMED_LOGS])
    def test_malformed_log_ends_in_the_reference_error(self, tmp_path, monkeypatch, capsys, case, content, chunk):
        if chunk is not None:
            monkeypatch.setattr(sessions, "LOG_CHUNK", chunk)
        path = tmp_path / "bad.tsv"
        path.write_bytes(content)
        with pytest.raises(DataError) as want:
            read_event_log_reference(str(path), "\t")
        with pytest.raises(DataError) as got:
            read_event_log(str(path), "\t")
        assert str(got.value) == str(want.value)
        assert simulate_exit(tmp_path, str(path), capsys) == (3, f"data error: {want.value}\n")

    def test_a_byte_order_mark_is_not_part_of_the_first_user(self, tmp_path):
        # 40 users over 12 items; without the fix the BOM splits off u0's first event
        text = "".join(f"u{u}\ti{(u + j) % 12}\t{10 * j}\n" for u in range(40) for j in range(3))
        bundles = []
        for name, bom in (("plain.tsv", b""), ("bom.tsv", b"\xef\xbb\xbf")):
            path = tmp_path / name
            path.write_bytes(bom + text.encode("utf-8"))
            cfg = ExperimentConfig(data=str(path), slices="1:1")
            bundles.append(prepare_data(cfg, Rng(cfg.seed)))
        plain, bom = bundles
        assert bom.vocab_size == plain.vocab_size == 12
        for ours, theirs in zip(bom.slices + [bom.test], plain.slices + [plain.test]):
            assert same_layout(ours, theirs)


def same_layout(a, b) -> bool:
    """Whether two SessionDatasets hold the same arrays, bit for bit."""
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in ((a.items, b.items), (a.starts, b.starts), (a.ends, b.ends)))


GAP = sessions.SESSION_GAP
# the delimiters: tab, one character, one that overlaps itself, and two letters
DELIMITERS = ["\t", ",", "::", "ab"]
ID_CHARS = "ab:,é日x"  # the delimiters' characters, non-ASCII ones, and a plain one
ITEMS = [f"i{j}" for j in range(12)]  # i1 is a prefix of i10 and i11


@st.composite
def event_logs(draw):
    """(log text, delimiter): shuffled events of a few users over ITEMS and
    some drawn ids, at times that tie across users and split sessions at
    exactly SESSION_GAP, with duplicate events, a 1- to 51-item burst, runs
    of blank lines, mixed line ends and, in some, one faulty line."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    ids = st.text(ID_CHARS, min_size=1, max_size=3).filter(lambda i: delimiter not in i)
    users = draw(st.lists(ids, min_size=2, max_size=6, unique=True))
    items = ITEMS + draw(st.lists(ids, max_size=3))
    times = st.builds(lambda k, s: k * GAP / 2 + s, st.integers(0, 12), st.sampled_from([0.0, 1.0]))
    events = draw(st.lists(st.tuples(st.sampled_from(users), st.sampled_from(items), times), min_size=25,
                           max_size=80))
    events += draw(st.lists(st.sampled_from(events), max_size=5))  # duplicates
    burst = draw(st.sampled_from([0, 1, 2, 50, 51]))
    events += [("burst", ITEMS[j % 12], float(j)) for j in range(burst)]
    fmt = draw(st.sampled_from(["{!r}", "{:.1f}", "{:g}", " {} "]))
    lines = [delimiter.join((u, i, fmt.format(t))) for u, i, t in draw(st.permutations(events))]
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at] = [""] * draw(st.integers(1, 4))
    bad = draw(st.sampled_from([None] * 12 + ["u", "u|i|nan", "u|i|-2", "u|i|t", "u|i|1|2"]))
    if bad is not None:
        lines.insert(draw(st.integers(0, len(lines))), bad.replace("|", delimiter))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, delimiter


@settings(max_examples=120, deadline=None)
@given(event_logs(), st.sampled_from([3, 17, 64, 1 << 20]), st.sampled_from(["1", "1:1", "1:3:6"]),
       st.booleans())
def test_prepare_data_matches_the_per_event_reference(log, chunk, slices, bom):
    text, delimiter = log
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(sessions, "LOG_CHUNK", chunk):
        path = os.path.join(tmp, "events.log")
        with open(path, "wb") as fh:
            fh.write(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
        cfg = ExperimentConfig(data=path, delimiter=delimiter, slices=slices)
        try:
            want, want_vocab = prepare_reference(cfg)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                prepare_data(cfg, Rng(cfg.seed))
            assert str(got.value) == str(exc)
            return
        got = prepare_data(cfg, Rng(cfg.seed))
        events = read_event_log(path, delimiter)
        _, vocab = filter_and_index(sessionize(events), events.item_ids)
    assert vocab == want_vocab and got.vocab_size == want.vocab_size
    assert len(got.slices) == len(want.slices)
    for ours, theirs in zip(got.slices + [got.test], want.slices + [want.test]):
        assert same_layout(ours, theirs)


class TestSlicePlan:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            SlicePlan([0.5, 0.6])
        with pytest.raises(ValueError):
            SlicePlan([-0.5, 1.5])
        with pytest.raises(ValueError):
            SlicePlan([])
