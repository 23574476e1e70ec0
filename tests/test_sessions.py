import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odup.errors import DataError
from odup.numkit import Rng
from odup.sessions import (
    Session, SlicePlan, augment_split, filter_and_index, holdout_split,
    read_event_log, sessionize, synth_generate, temporal_slices, write_event_log,
)

from helpers import slice_sessions

HOUR = 3600.0


class TestSessionize:
    def test_hand_partition(self):
        log = [("u", "a", 0.0), ("u", "b", 1 * HOUR), ("u", "c", 20 * HOUR)]
        out = sessionize(log, gap=8 * HOUR)
        assert [s.items for s in out] == [["a", "b"], ["c"]]
        assert [s.start for s in out] == [0.0, 20 * HOUR]

    def test_singleton(self):
        out = sessionize([("u", "a", 5.0)], gap=10.0)
        assert len(out) == 1 and out[0].items == ["a"]

    def test_users_independent(self):
        log = [("u1", "a", 0.0), ("u2", "b", 1.0), ("u1", "c", 2.0), ("u2", "d", 3.0)]
        out = sessionize(log, gap=100.0)
        assert sorted(s.items for s in out) == [["a", "c"], ["b", "d"]]

    def test_empty_log(self):
        assert sessionize([], gap=1.0) == []

    def test_shuffle_invariance(self):
        rng = Rng(4)
        log = [(f"u{int(i) % 3}", f"i{int(rng.integers(0, 20))}", float(rng.integers(0, 1000)))
               for i in range(60)]
        base = sessionize(log, gap=50.0)
        perm = [log[int(i)] for i in rng.permutation(60)]
        assert sessionize(perm, gap=50.0) == base

    def test_boundary_gap_shares_session(self):
        log = [("u", "a", 0.0), ("u", "b", 10.0)]
        assert len(sessionize(log, gap=10.0)) == 1
        assert len(sessionize(log, gap=9.999)) == 2


class TestWriteEventLog:
    def test_round_trip(self, tmp_path):
        res = synth_generate(Rng(3).child("s"), 60, 200, 0.3, SlicePlan.from_ratios([1, 1]))
        sessions = res.sessions + res.test_sessions
        write_event_log(tmp_path / "events.tsv", sessions)
        back = sessionize(read_event_log(tmp_path / "events.tsv"), gap=8 * HOUR)
        assert [s.items for s in back] == [[f"i{it:06d}" for it in s.items] for s in sessions]
        assert [s.start for s in back] == [s.start for s in sessions]


class TestFilterAndIndex:
    def make(self, lists):
        return [Session(items, float(i)) for i, items in enumerate(lists)]

    def test_short_sessions_dropped(self):
        sessions = self.make([["a"], ["a", "b"]])
        out, vocab = filter_and_index(sessions, min_len=2, max_len=50)
        assert len(out) == 1

    def test_long_sessions_dropped(self):
        sessions = self.make([["x"] * 51, ["a", "b"]])
        out, _ = filter_and_index(sessions, min_len=2, max_len=50)
        assert len(out) == 1

    def test_top_items_vocab_size(self):
        sessions = self.make([["a", "b"], ["a", "c"], ["a", "b", "c"], ["d", "e"]])
        out, vocab = filter_and_index(sessions, min_len=2, max_len=50, top_items=3)
        assert len(vocab) == 3
        assert vocab[0] == "a"  # most frequent gets index 0

    def test_frequency_rank_indexing(self):
        sessions = self.make([["b", "a"], ["a", "b"], ["a", "c"]])
        out, vocab = filter_and_index(sessions)
        assert vocab.index("a") == 0  # a appears 3 times
        assert set(vocab) == {"a", "b", "c"}

    def test_all_filtered_is_error(self):
        with pytest.raises(DataError):
            filter_and_index(self.make([["a"]]))

    def test_min_len_must_be_two(self):
        with pytest.raises(ValueError):
            filter_and_index(self.make([["a", "b"]]), min_len=1)


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
        assert [len(s.pairs) for s in slices] == [10, 30, 60, 100]

    def test_single_slice(self):
        sessions = [Session([0, 1], float(i)) for i in range(5)]
        slices = temporal_slices(sessions, SlicePlan([1.0]))
        assert len(slices) == 1 and len(slices[0].pairs) == 5

    def test_gowalla_ratios(self):
        plan = SlicePlan.from_ratios([1, 3, 6, 10, 15])
        assert plan.boundaries(35) == [1, 4, 10, 20, 35]

    def test_fewer_sessions_than_slices(self):
        with pytest.raises(DataError):
            temporal_slices([Session([0, 1], 0.0)], SlicePlan([0.5, 0.5]))

    @settings(max_examples=30)
    @given(
        n_sessions=st.integers(4, 40),
        n_slices=st.integers(1, 4),
        seed=st.integers(0, 10_000),
    )
    def test_nesting_invariant(self, n_sessions, n_slices, seed):
        rng = Rng(seed)
        sessions = [
            Session([int(x) for x in rng.integers(0, 6, int(rng.integers(2, 6)))], float(rng.uniform() * 100))
            for _ in range(n_sessions)
        ]
        ratios = [float(rng.uniform() + 0.1) for _ in range(n_slices)]
        slices = temporal_slices(sessions, SlicePlan.from_ratios(ratios))
        for earlier, later in zip(slices, slices[1:]):
            assert later.pairs[: len(earlier.pairs)] == earlier.pairs

    def test_slices_are_views_of_the_last(self):
        sessions = [Session([i % 5, (i + 1) % 5, (i + 2) % 5], float(i)) for i in range(20)]
        slices = temporal_slices(sessions, SlicePlan.from_ratios([1, 2, 3]))
        last = slices[-1]
        for ds in slices:
            assert ds.pairs == last.pairs[: len(ds)]
            assert ds.items is last.items
            assert np.shares_memory(ds.starts, last.starts) and np.shares_memory(ds.ends, last.ends)

    def test_ordering_is_temporal(self):
        sessions = [Session([0, 1], 50.0), Session([2, 3], 1.0)]
        slices = temporal_slices(sessions, SlicePlan([0.5, 0.5]))
        assert slices[0].pairs == [([2], 3)]


class TestHoldout:
    def test_last_fraction(self):
        sessions = [Session([0, 1], float(i)) for i in range(10)]
        train, test = holdout_split(sessions, 0.2)
        assert len(train) == 8 and len(test) == 2
        assert min(s.start for s in test) > max(s.start for s in train)


class TestSynth:
    def plan(self):
        return SlicePlan.from_ratios([1, 2, 3, 4])

    def test_deterministic(self):
        a = synth_generate(Rng(5).child("s"), 60, 200, 0.4, self.plan())
        b = synth_generate(Rng(5).child("s"), 60, 200, 0.4, self.plan())
        assert [s.items for s in a.sessions] == [s.items for s in b.sessions]
        assert [s.items for s in a.test_sessions] == [s.items for s in b.test_sessions]

    def test_nesting_and_counts(self):
        res = synth_generate(Rng(8).child("s"), 60, 300, 0.2, self.plan())
        slices = temporal_slices(res.sessions, self.plan())
        for earlier, later in zip(slices, slices[1:]):
            assert later.pairs[: len(earlier.pairs)] == earlier.pairs
        assert len(slices[-1]) == sum(len(s.items) - 1 for s in res.sessions)

    def _slice_freqs(self, res):
        z = len(self.plan().fractions)
        freqs = np.zeros((z, res.vocab_size))
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

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            synth_generate(Rng(0), 10, 200, 0.1, self.plan())
        with pytest.raises(ValueError):
            synth_generate(Rng(0), 60, 50, 0.1, self.plan())


class TestEventLogFile(object):
    def test_round_trip(self, tmp_path):
        path = tmp_path / "events.tsv"
        path.write_text("u1\ta\t0\nu1\tb\t10\nu2\tc\t5\n", encoding="utf-8")
        events = read_event_log(path)
        assert events == [("u1", "a", 0.0), ("u1", "b", 10.0), ("u2", "c", 5.0)]
        assert len(sessionize(events, gap=100.0)) == 2

    def test_custom_delimiter(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text("u1,a,0\n", encoding="utf-8")
        assert read_event_log(path, delimiter=",") == [("u1", "a", 0.0)]

    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\ta\t0\nu1\tb\n", encoding="utf-8")
        with pytest.raises(DataError, match="2"):
            read_event_log(path)

    def test_bad_timestamp(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("u1\ta\tzzz\n", encoding="utf-8")
        with pytest.raises(DataError):
            read_event_log(path)


class TestSlicePlan:
    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            SlicePlan([0.5, 0.6])
        with pytest.raises(ValueError):
            SlicePlan([-0.5, 1.5])
        with pytest.raises(ValueError):
            SlicePlan([])
