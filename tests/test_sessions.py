import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odup import sessions
from odup.errors import DataError
from odup.numkit import Rng
from odup.sessions import (
    MAX_LEN, Session, SlicePlan, augment_split, filter_and_index, holdout_split,
    read_event_log, sessionize, synth_generate, temporal_slices, write_event_log,
)

from helpers import integers, slice_sessions, synth_reference

HOUR = 3600.0


class TestSessionize:
    def test_hand_partition(self):
        assert sessions.SESSION_GAP == 8 * HOUR
        log = [("u", "a", 0.0), ("u", "b", 1 * HOUR), ("u", "c", 20 * HOUR)]
        out = sessionize(log)
        assert [s.items for s in out] == [["a", "b"], ["c"]]
        assert [s.start for s in out] == [0.0, 20 * HOUR]

    def test_singleton(self, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 10.0)
        out = sessionize([("u", "a", 5.0)])
        assert len(out) == 1 and out[0].items == ["a"]

    def test_users_independent(self, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 100.0)
        log = [("u1", "a", 0.0), ("u2", "b", 1.0), ("u1", "c", 2.0), ("u2", "d", 3.0)]
        out = sessionize(log)
        assert sorted(s.items for s in out) == [["a", "c"], ["b", "d"]]

    def test_empty_log(self, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 1.0)
        assert sessionize([]) == []

    def test_shuffle_invariance(self, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 50.0)
        rng = Rng(4)
        log = [(f"u{int(i) % 3}", f"i{int(rng.integers(0, 20))}", float(rng.integers(0, 1000)))
               for i in range(60)]
        base = sessionize(log)
        perm = [log[int(i)] for i in rng.permutation(60)]
        assert sessionize(perm) == base

    def test_boundary_gap_shares_session(self, monkeypatch):
        log = [("u", "a", 0.0), ("u", "b", 10.0)]
        monkeypatch.setattr(sessions, "SESSION_GAP", 10.0)
        assert len(sessionize(log)) == 1
        monkeypatch.setattr(sessions, "SESSION_GAP", 9.999)
        assert len(sessionize(log)) == 2


class TestWriteEventLog:
    def test_round_trip(self, tmp_path):
        res = synth_generate(Rng(3).child("s"), 60, 200, 0.3, SlicePlan.from_ratios([1, 1]))
        written = res.sessions + res.test_sessions
        write_event_log(tmp_path / "events.tsv", written)
        back = sessionize(read_event_log(tmp_path / "events.tsv", "\t"))
        assert [s.items for s in back] == [[f"i{it:06d}" for it in s.items] for s in written]
        assert [s.start for s in back] == [s.start for s in written]


class TestFilterAndIndex:
    def make(self, lists):
        return [Session(items, float(i)) for i, items in enumerate(lists)]

    def test_short_sessions_dropped(self):
        sessions = self.make([["a"], ["a", "b"]])
        out, vocab = filter_and_index(sessions)
        assert len(out) == 1

    def test_long_sessions_dropped(self):
        sessions = self.make([["x"] * (MAX_LEN + 1), ["a", "b"]])
        out, _ = filter_and_index(sessions)
        assert len(out) == 1

    def test_frequency_rank_indexing(self):
        sessions = self.make([["b", "a"], ["a", "b"], ["a", "c"]])
        out, vocab = filter_and_index(sessions)
        assert vocab.index("a") == 0  # a appears 3 times
        assert set(vocab) == {"a", "b", "c"}
        assert [[vocab[i] for i in s.items] for s in out] == [["b", "a"], ["a", "b"], ["a", "c"]]

    def test_all_filtered_is_error(self):
        with pytest.raises(DataError):
            filter_and_index(self.make([["a"]]))


class TestAugment:
    def test_three_items(self):
        ds = augment_split([Session([0, 1, 2], 0.0)])
        assert ds.pairs == [([0], 1), ([0, 1], 2)]

    def test_two_items(self):
        ds = augment_split([Session([4, 7], 0.0)])
        assert ds.pairs == [([4], 7)]

    @settings(max_examples=50)
    @given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=8), min_size=0, max_size=10))
    def test_matches_nested_loop(self, lists):
        sessions = [Session(items, float(i)) for i, items in enumerate(lists)]
        expected = []
        for items in lists:
            for end in range(1, len(items)):
                expected.append((list(items[:end]), items[end]))
        assert augment_split(sessions).pairs == expected

    @settings(max_examples=50)
    @given(st.lists(st.lists(st.integers(0, 9), min_size=2, max_size=8), min_size=1, max_size=10))
    def test_pair_count(self, lists):
        sessions = [Session(items, float(i)) for i, items in enumerate(lists)]
        ds = augment_split(sessions)
        assert len(ds.pairs) == sum(len(s) - 1 for s in lists)


class TestSlices:
    def test_spec_boundaries(self):
        sessions = [Session([0, 1], float(i)) for i in range(100)]
        plan = SlicePlan([0.1, 0.2, 0.3, 0.4])
        slices = temporal_slices(sessions, plan)
        assert [len(s.pairs) for s in slices] == [10, 20, 30, 40]
        assert sum((s.pairs for s in slices), []) == augment_split(sessions).pairs

    def test_single_slice(self):
        sessions = [Session([0, 1], float(i)) for i in range(5)]
        slices = temporal_slices(sessions, SlicePlan([1.0]))
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
            temporal_slices([Session([0, 1], 0.0)], SlicePlan([0.5, 0.5]))

    def test_a_slice_rounding_leaves_empty(self):
        # 12 logged sessions hold 11 for training; 11 / 35 rounds slice 1 to none
        sessions = [Session([0, 1], float(i)) for i in range(11)]
        with pytest.raises(DataError, match="slice 1 of 5 gets none of the 11 training sessions"):
            temporal_slices(sessions, SlicePlan.from_ratios([1, 3, 6, 10, 15]))

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
        if any(lo == hi for lo, hi in zip(bounds, bounds[1:])):
            with pytest.raises(DataError, match="gets none of the"):
                temporal_slices(sessions, plan)
            return
        slices = temporal_slices(sessions, plan)
        ordered = sorted(sessions, key=lambda s: s.start)
        # slice t holds the pairs of exactly the sessions its plan boundaries name
        for ds, lo, hi in zip(slices, bounds, bounds[1:]):
            assert ds.pairs == augment_split(ordered[lo:hi]).pairs
        assert sum((ds.pairs for ds in slices), []) == augment_split(ordered).pairs

    def test_slices_are_views_of_one_layout(self):
        sessions = [Session([i % 5, (i + 1) % 5, (i + 2) % 5], float(i)) for i in range(20)]
        slices = temporal_slices(sessions, SlicePlan.from_ratios([1, 2, 3]))
        whole = augment_split(sessions)
        first = slices[0]
        offset = 0
        for ds in slices:
            assert ds.pairs == whole.pairs[offset: offset + len(ds)]
            offset += len(ds)
            assert ds.items is first.items
            assert ds.starts.base is first.starts.base and ds.ends.base is first.ends.base
        assert offset == len(whole)

    def test_ordering_is_temporal(self):
        sessions = [Session([0, 1], 50.0), Session([2, 3], 1.0)]
        slices = temporal_slices(sessions, SlicePlan([0.5, 0.5]))
        assert slices[0].pairs == [([2], 3)]


class TestHoldout:
    def test_last_fraction(self):
        sessions = [Session([0, 1], float(i)) for i in range(20)]
        train, test = holdout_split(sessions)
        assert len(train) == 18 and len(test) == 2
        assert min(s.start for s in test) > max(s.start for s in train)


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
        slices = temporal_slices(res.sessions, self.plan())
        for t, ds in enumerate(slices, start=1):
            assert ds.pairs == augment_split(slice_sessions(res, self.plan(), t)).pairs
            assert len(ds) == sum(len(s.items) - 1 for s in slice_sessions(res, self.plan(), t))
        assert sum((ds.pairs for ds in slices), []) == augment_split(res.sessions).pairs

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


class TestEventLogFile(object):
    def test_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sessions, "SESSION_GAP", 100.0)
        path = tmp_path / "events.tsv"
        path.write_text("u1\ta\t0\nu1\tb\t10\nu2\tc\t5\n", encoding="utf-8")
        events = read_event_log(path, "\t")
        assert events == [("u1", "a", 0.0), ("u1", "b", 10.0), ("u2", "c", 5.0)]
        assert len(sessionize(events)) == 2

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,a,0\n", encoding="utf-8")
        assert read_event_log(path, ",") == [("u1", "a", 0.0)]

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


class TestSlicePlan:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            SlicePlan([0.5, 0.6])
        with pytest.raises(ValueError):
            SlicePlan([-0.5, 1.5])
        with pytest.raises(ValueError):
            SlicePlan([])
