import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from odup import cli, numkit, recommender
from odup.errors import DataError, TrainingDiverged
from odup.numkit import Rng, sigmoid
from odup.pipeline import ExperimentConfig, prepare_data
from odup.recommender import RecModel, _loss_and_grads, evaluate, init_model, padded_table, train
from odup.sessions import SessionDataset

from helpers import (
    dataset_of, encode_batch_masked, encode_session, gather_batch_masked, grad_check, integers,
    log_softmax, rank_metrics, score_all, train_config, train_reference, whole_batch,
)


def toy_model(vocab=4, d=3, kind="mean_pool", seed=5):
    return init_model(vocab, d, Rng(seed).child("init"), kind)


@contextmanager
def rec_steps(lr=recommender.REC_LR, batch=recommender.REC_BATCH):
    """train, and helpers.train_reference, step Adam by ``lr`` over batches
    of ``batch`` pairs."""
    with mock.patch.object(recommender, "REC_LR", lr), mock.patch.object(recommender, "REC_BATCH", batch):
        yield


def evaluate_at(ks, table, dataset, encoder_kind, gate):
    """evaluate with recommender.REPORT_KS pinned to ``ks``: toy cases rank
    fewer items than the report's K."""
    with mock.patch.object(recommender, "REPORT_KS", tuple(ks)):
        return evaluate(table, dataset, encoder_kind, gate)


class TestEncodeSession:
    def test_single_item_is_its_embedding(self):
        for kind in ("mean_pool", "last_gated"):
            m = toy_model(kind=kind)
            assert np.allclose(encode_session(m, [2]), m.embeddings[2], atol=1e-15)

    def test_mean_pool_two_items(self):
        m = toy_model()
        s = encode_session(m, [0, 3])
        assert np.allclose(s, (m.embeddings[0] + m.embeddings[3]) / 2)

    def test_gate_one_returns_last(self):
        m = toy_model(kind="last_gated")
        m.gate_raw = 60.0  # sigmoid saturates to 1.0
        assert np.allclose(encode_session(m, [0, 1, 2]), m.embeddings[2], atol=1e-12)

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            encode_session(toy_model(), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            encode_session(toy_model(), [9])


class TestScoreAll:
    def test_unit_rows_self_match(self):
        table = np.eye(4)
        m = RecModel(table, "mean_pool", 0.0)
        scores = score_all(m, table[2])
        assert np.argmax(scores) == 2

    def test_zero_vector_ties_index_order(self):
        m = toy_model()
        scores = score_all(m, np.zeros(3))
        assert np.all(scores == 0)
        ds = dataset_of([([0], 3)])
        # all-zero table: every score ties, ranking = index order
        prec, ndcg = evaluate_at([3], np.zeros((4, 3)), ds, "mean_pool", 0.5)
        assert prec == 0.0  # label 3 ranks 4th by tie-break

    def test_brute_force_oracle(self):
        m = toy_model()
        s = np.array([0.3, -0.2, 0.9])
        expected = [float(sum(m.embeddings[v][j] * s[j] for j in range(3))) for v in range(4)]
        assert np.allclose(score_all(m, s), expected, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            score_all(toy_model(), np.zeros(5))


class TestEvaluate:
    def make_table_with_rank(self, label_rank, vocab=12, d=4):
        # scores are dot(s, x_v); construct rows so the label lands at a
        # chosen rank for the session [0]
        table = np.zeros((vocab, d))
        table[0, 0] = 1.0  # session embedding = e0
        for v in range(1, vocab):
            table[v, 0] = 1.0 - 0.01 * v
        label = 5
        # give `label_rank - 1` other items strictly larger scores than label
        scores = table[:, 0].copy()
        order = np.argsort(-scores)
        return table, label

    def test_rank1_contributions(self):
        table = np.zeros((5, 2))
        table[0] = [1.0, 0.0]
        table[3] = [2.0, 0.0]  # top score for s = e0 direction
        ds = dataset_of([([0], 3)])
        prec, ndcg = evaluate_at([1], table, ds, "mean_pool", 0.5)
        assert prec == 1.0 and ndcg == 1.0

    def test_rank3_k5_ndcg_half(self):
        table = np.zeros((6, 2))
        table[0] = [1.0, 0.0]
        table[1] = [5.0, 0.0]
        table[2] = [4.0, 0.0]
        table[3] = [3.0, 0.0]  # label ranks 3rd
        ds = dataset_of([([0], 3)])
        prec, ndcg = evaluate_at([5], table, ds, "mean_pool", 0.5)
        assert prec == 1.0
        assert abs(ndcg - 0.5) < 1e-12  # 1/log2(4)

    def test_rank11_k10_miss(self):
        table = np.zeros((12, 2))
        table[0, 0] = 1.0
        for v in range(1, 12):
            table[v, 0] = 12.0 - v  # scores 11..1
        ds = dataset_of([([0], 11)])  # label has lowest score
        prec, ndcg = evaluate_at([10], table, ds, "mean_pool", 0.5)
        assert prec == 0.0 and ndcg == 0.0

    def test_k_bounds(self):
        ds = dataset_of([([0], 1)])
        with pytest.raises(ValueError):
            evaluate_at([5], toy_model().embeddings, ds, "mean_pool", 0.5)
        with pytest.raises(ValueError):
            evaluate_at([1, 0], toy_model().embeddings, ds, "mean_pool", 0.5)

    def test_rank_shift_invariance(self):
        rng = Rng(9)
        table = rng.uniform((8, 3))
        ds = dataset_of([([1, 2], 5), ([0], 3)])
        base = evaluate_at([3], table, ds, "mean_pool", 0.5)
        # adding a constant column shifts all scores for a fixed prefix by a
        # constant, leaving top-K unchanged; emulate by comparing to direct
        # score ranking
        assert base == evaluate_at([3], table.copy(), ds, "mean_pool", 0.5)

    def test_model_equals_extracted_table(self):
        m = toy_model(vocab=20, d=4, kind="last_gated", seed=11)
        rng = Rng(3)
        pairs = [([int(a), int(b)], int(c)) for a, b, c in integers(rng, 0, 20, (15, 3))]
        ds = dataset_of(pairs)
        got = evaluate_at((1, 5, 10), m.embeddings, ds, m.encoder_kind, m.gate)
        assert got == rank_metrics(m.embeddings, pairs, (1, 5, 10), "last_gated", m.gate)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), k=st.integers(1, 10))
    def test_ndcg_bounded_by_prec(self, seed, k):
        rng = Rng(seed)
        table = rng.uniform((10, 3)) * 2 - 1
        pairs = [([int(a)], int(b)) for a, b in integers(rng, 0, 10, (12, 2))]
        ds = dataset_of(pairs)
        prec, ndcg = evaluate_at([k], table, ds, "mean_pool", 0.5)
        assert 0.0 <= ndcg <= prec <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(table=arrays(np.float64, (9, 2), elements=st.integers(-2, 2).map(float)),
           kind=st.sampled_from(["mean_pool", "last_gated"]),
           raw=st.lists(st.tuples(st.lists(st.integers(0, 8), min_size=1, max_size=4), st.integers(0, 8)),
                        min_size=1, max_size=30))
    def test_ranks_match_oracle_with_ties(self, table, kind, raw):
        # integer entries and prefixes of 1, 2 or 4 items keep every score
        # exact, so the many ties are the same ties the oracle sees
        pairs = [(prefix[:1 << (len(prefix).bit_length() - 1)], label) for prefix, label in raw]
        ks = (1, 3, 9)
        got = evaluate_at(ks, table, dataset_of(pairs), kind, 0.5)
        assert got == rank_metrics(table, pairs, ks, kind, 0.5)

    def test_pad_row_never_ranked(self, monkeypatch):
        # with gate 3, S = 2 x_last - x_first, which points against every
        # row: all real scores are negative, so a ranked zero row would come
        # first and push every label down one place
        table = np.array([[4.0, 0.0], [1.0, 0.0], [3.0, 1.0], [2.0, -1.0], [4.0, 2.0], [3.0, 0.0]])
        pairs = [([0, 1], 1), ([0, 1], 0), ([4, 1], 5), ([2, 1], 3), ([5, 1], 4), ([4, 1], 2)]
        ds = dataset_of(pairs)
        for prefix, _ in pairs:
            s = 3.0 * table[prefix[-1]] - 2.0 * table[prefix].mean(axis=0)
            assert np.all(table @ s < 0)
        ks = (1, 2, 6)
        expected = rank_metrics(table, pairs, ks, "last_gated", 3.0)
        assert evaluate_at(ks, table, ds, "last_gated", 3.0) == expected
        assert expected[:2] == [1 / 6, 1 / 6]  # only ([0, 1], 1) ranks its label first
        monkeypatch.setattr("odup.recommender._EVAL_CHUNK", 4)
        assert evaluate_at(ks, table, ds, "last_gated", 3.0) == expected
        monkeypatch.setattr("odup.recommender._PLAN_BATCHES", 1)  # a short last group
        assert evaluate_at(ks, table, ds, "last_gated", 3.0) == expected

    def test_several_k_from_one_ranking(self, monkeypatch):
        rng = Rng(4)
        table = rng.uniform((12, 3)) * 2 - 1
        ds = dataset_of([([int(a), int(b)], int(c)) for a, b, c in integers(rng, 0, 12, (40, 3))])
        ks = (1, 3, 5, 10, 12)
        flat = [m for k in ks for m in evaluate_at([k], table, ds, "mean_pool", 0.5)]
        monkeypatch.setattr("odup.recommender._EVAL_CHUNK", 7)
        assert evaluate_at(ks, table, ds, "mean_pool", 0.5) == flat
        assert evaluate_at((), table, ds, "mean_pool", 0.5) == []


class TestTrain:
    def repeated_pair_dataset(self):
        return dataset_of([([0], 3)] * 8)

    def test_repeated_pair_overfits(self):
        m = toy_model(vocab=5, d=4)
        ds = self.repeated_pair_dataset()
        with rec_steps(lr=0.05, batch=8):
            train(m, ds, train_config(epochs=120, l2=0.0, seed=2))
        s = encode_session(m, [0])
        scores = score_all(m, s)
        p = np.exp(scores - scores.max())
        p /= p.sum()
        assert p[3] >= 0.95

    def test_lr_zero_bitwise_unchanged(self):
        m = toy_model()
        before_table = m.embeddings.copy()
        before_gate = m.gate_raw
        ds = self.repeated_pair_dataset()
        with rec_steps(lr=0.0, batch=2):
            train(m, ds, train_config(epochs=3, seed=0))
            assert np.array_equal(m.embeddings, before_table)
            assert m.gate_raw == before_gate
            m.embeddings[...] = 0.1
            train(m, ds, train_config(epochs=1, seed=0))
        assert np.all(m.embeddings == np.float32(0.1))

    def test_gradients_match_finite_differences(self):
        for kind in ("mean_pool", "last_gated"):
            m = toy_model(vocab=4, d=3, kind=kind, seed=7)
            batch = whole_batch(dataset_of([([0], 2), ([1, 2], 0), ([0, 3, 3], 1)]), 4)
            X = m.embeddings.astype(np.float64)
            graw = m.gate_raw
            _, dX, dg = _loss_and_grads(padded_table(X), graw, kind, batch, 1e-3, True)

            def f(vec):
                table = vec[:-1].reshape(4, 3)
                ce, _, _ = _loss_and_grads(padded_table(table), vec[-1], kind, batch, 1e-3, True)
                return ce + 1e-3 * np.sum(table * table)  # dX carries the l2 term's gradient

            point = np.concatenate([X.ravel(), [graw]])
            analytic = np.concatenate([dX.ravel(), [dg]])
            assert grad_check(f, analytic, point, h=1e-6) <= 1e-4

    @staticmethod
    def reference_loss_and_grads(table, gate_raw, kind, batch, l2):
        """Unfused form: full log_softmax, exp of it, np.add.at scatters;
        the cross-entropy, and the gradients of it plus l2 * ||X||^2."""
        B = len(batch.lens)
        gated = kind == "last_gated"
        g = float(sigmoid(np.float64(gate_raw))) if gated else 0.0
        S, means = encode_batch_masked(table, g, kind, batch)
        logp = log_softmax(S @ table.T, axis=-1)
        rows = np.arange(B)
        loss = float(-logp[rows, batch.labels].mean())
        DY = np.exp(logp)
        DY[rows, batch.labels] -= 1.0
        DY /= B
        dX = DY.T @ S
        DS = DY @ table
        per_slot = ((1.0 - g) if gated else 1.0) * DS / batch.lens[:, None]
        np.add.at(dX, batch.pad[batch.mask], per_slot[np.repeat(rows, batch.lens)])
        dgate_raw = 0.0
        if gated:
            np.add.at(dX, batch.last, g * DS)
            dgate_raw = float(np.sum(DS * (table[batch.last] - means))) * g * (1.0 - g)
        dX += 2.0 * l2 * table
        return loss, dX, dgate_raw

    @pytest.mark.parametrize("kind", ["mean_pool", "last_gated"])
    @pytest.mark.parametrize("scale", [0.1, 3.0, 16.0])
    def test_fused_kernels_match_reference(self, kind, scale):
        # scale 16 gives |logits| up to ~1e3; prefixes repeat items, and the
        # gated path scatters onto last items that also occur mid-prefix
        rng = np.random.default_rng(int(scale * 10))
        vocab, d = 40, 6
        table = rng.normal(scale=scale, size=(vocab, d))
        pairs = [([3, 3, 5, 3], 7), ([1], 2), ([5, 5], 5), ([0, 9, 0, 9, 0], 3),
                 ([39, 2, 2], 39), ([7, 1, 7], 0)]
        pairs += [(list(rng.integers(0, 8, rng.integers(1, 12))), int(rng.integers(0, vocab)))
                  for _ in range(30)]
        batch = whole_batch(dataset_of(pairs), vocab)
        masked = gather_batch_masked(dataset_of(pairs), slice(None))
        with np.errstate(all="raise", under="ignore"):
            loss, dX, dg = _loss_and_grads(padded_table(table), 0.4, kind, batch, 1e-3, True)
            ref_loss, ref_dX, ref_dg = self.reference_loss_and_grads(table, 0.4, kind, masked, 1e-3)
        if scale == 16.0:  # the single-item prefix [1] scores table[1] @ table.T
            assert np.max(np.abs(table[1] @ table.T)) > 1e3
        assert abs(loss - ref_loss) <= 1e-12
        assert np.max(np.abs(dX - ref_dX)) <= 1e-12
        assert abs(dg - ref_dg) <= 1e-12

    def test_divergence_raises(self):
        m = toy_model(vocab=4, d=3)
        m.embeddings[0, 0] = np.finfo(np.float32).max  # its l2 gradient overflows float32
        ds = dataset_of([([1], 2)])
        with rec_steps(batch=1), pytest.raises(TrainingDiverged):
            train(m, ds, train_config(epochs=1, l2=1.0, seed=0))

    @pytest.mark.filterwarnings("error")
    def test_divergence_raises_when_the_l2_gradient_overflows(self):
        # item 3 is in no pair, and column 0 of every other row is 0, so its
        # 1e38 scores 0 and the loss stays finite; with the l2 term off the
        # loss, only the table check sees the l2 gradient 2e39 overflow
        # float32 and Adam step the entry to NaN
        m = RecModel(np.array([[0.0, 0.1, 0.2], [0.0, 0.3, -0.1], [0.0, -0.2, 0.1], [1e38, 0.1, 0.1]]),
                     "last_gated", 0.2)
        before, gate = m.embeddings.copy(), m.gate_raw
        ds = dataset_of([([0], 2), ([0, 1], 2), ([2, 0], 1)])
        with np.errstate(over="ignore"):
            loss, dX, _ = _loss_and_grads(padded_table(m.embeddings), gate,
                                          m.encoder_kind, whole_batch(ds, 4), 10.0, True)
        assert np.isfinite(loss) and np.isinf(dX[3, 0])
        with rec_steps(batch=3), pytest.raises(TrainingDiverged, match="non-finite in float32"):
            train(m, ds, train_config(epochs=1, l2=10.0, seed=0))
        assert np.array_equal(m.embeddings, before) and m.gate_raw == gate

    @staticmethod
    def random_pairs():
        rng = Rng(1)
        return dataset_of([([int(a)], int(b)) for a, b in integers(rng, 0, 6, (20, 2))])

    def test_fifty_epochs_lower_the_objective(self):
        m = toy_model(vocab=6, d=4, seed=3)
        ds = self.random_pairs()
        batch = whole_batch(ds, 6)

        def objective():
            table = padded_table(m.embeddings)
            ce = _loss_and_grads(table, m.gate_raw, m.encoder_kind, batch, 1e-5, False)[0]
            return ce + 1e-5 * np.sum(m.embeddings * m.embeddings)

        before = objective()
        train(m, ds, train_config(epochs=50, seed=4))
        assert objective() < before - 0.05

    def test_deterministic_table_and_gate(self):
        def run():
            m = toy_model(vocab=6, d=4, kind="last_gated", seed=3)
            with rec_steps(lr=0.02, batch=4):
                train(m, self.random_pairs(), train_config(epochs=10, seed=4))
            return m

        a, b = run(), run()
        assert a.embeddings.tobytes() == b.embeddings.tobytes()
        assert np.float64(a.gate_raw).tobytes() == np.float64(b.gate_raw).tobytes()

    def test_item_outside_vocabulary(self):
        for pairs in ([([0, 4], 1)], [([0], 4)]):
            with pytest.raises(DataError):
                train(toy_model(vocab=4), dataset_of(pairs), train_config(epochs=1))

    def test_empty_dataset(self):
        with pytest.raises(DataError):
            train(toy_model(), dataset_of([]), train_config())

    def test_freeze_gate(self):
        m = toy_model(kind="last_gated", seed=2)
        before = m.gate_raw
        ds = self.repeated_pair_dataset()
        with rec_steps(lr=0.05, batch=4):
            train(m, ds, train_config(epochs=5, seed=1, freeze_gate=True))
        assert m.gate_raw == before


class TestMixedPrecision:
    """train runs on the calling thread in float32: the table, every batch
    step, dX and the table's Adam moments. The gate and its moments stay
    float64."""

    def test_model_table_is_float32(self):
        # init_model draws it, RecModel narrows a float64 table, and train keeps it
        m = toy_model(vocab=5, d=4)
        assert m.embeddings.dtype == np.float32
        train(m, dataset_of([([0], 3)] * 4), train_config(epochs=1))
        assert m.embeddings.dtype == np.float32
        assert RecModel(np.full((3, 2), 0.1), "mean_pool", 0.0).embeddings.dtype == np.float32

    @pytest.mark.parametrize("kind", ["mean_pool", "last_gated"])
    @pytest.mark.parametrize("vocab, d", [(300, 16), (1850, 32)])
    def test_batch_gradient_and_adam_in_float32(self, monkeypatch, kind, vocab, d):
        # c4-queue's and ingest-adaptive's shapes. A scalar or int array that
        # promoted a float32 step to float64 would show here and nowhere else.
        seen, adams = {}, []
        encode_batch, softmax_rows, scatter_grads = (recommender._encode_batch, recommender._softmax_rows,
                                                     recommender._scatter_grads)

        def note(name, x):
            seen.setdefault(name, set()).add(x.dtype)

        def spy_encode_batch(*args):
            S, means = encode_batch(*args)
            note("S", S)
            return S, means

        def spy_softmax_rows(Y, *args):
            note("scores", Y)
            ce = softmax_rows(Y, *args)
            note("DY", Y)
            note("ce", ce)
            return ce

        def spy_scatter_grads(*args):
            scatter, dgate_raw = scatter_grads(*args)
            note("scatter", scatter)
            return scatter, dgate_raw

        class SpyAdam(numkit.Adam):
            def step(self, grads):
                super().step(grads)
                adams.append(self)
                note("dX", grads[0])

        pairs = integers(Rng(3), 0, vocab, (250, 3))
        ds = dataset_of([([int(a), int(b)], int(c)) for a, b, c in pairs])
        for name, fn in [("_encode_batch", spy_encode_batch), ("_softmax_rows", spy_softmax_rows),
                         ("_scatter_grads", spy_scatter_grads), ("Adam", SpyAdam)]:
            monkeypatch.setattr(recommender, name, fn)
        m = toy_model(vocab=vocab, d=d, kind=kind)
        train(m, ds, train_config(epochs=1, l2=1e-4))
        f32 = {np.dtype(np.float32)}
        assert seen == {"S": f32, "scores": f32, "DY": f32, "ce": f32, "scatter": f32, "dX": f32}
        moments = [(x.dtype, y.dtype) for x, y in zip(adams[0]._m, adams[0]._v)]
        gate = [(np.dtype(np.float64),) * 2] if kind == "last_gated" else []
        assert moments == [(np.dtype(np.float32),) * 2] + gate
        assert m.embeddings.dtype == np.float32

    @pytest.mark.parametrize("kind", ["mean_pool", "last_gated"])
    def test_float32_agrees_with_float64_within_float32_tolerance(self, kind):
        rng = Rng(12)
        vocab, d = 300, 16
        table = padded_table(rng.uniform((vocab, d)) * 2.0 - 1.0)
        ds = dataset_of([([int(i) for i in integers(rng, 0, vocab, int(rng.integers(1, 9)))],
                          int(rng.integers(0, vocab))) for _ in range(100)])
        batch = whole_batch(ds, vocab)
        loss, dX, dg = _loss_and_grads(table.astype(np.float32), 0.3, kind, batch, 1e-3, True)
        ref_loss, ref_dX, ref_dg = _loss_and_grads(table, 0.3, kind, batch, 1e-3, True)
        assert dX.dtype == np.float32 and ref_dX.dtype == np.float64
        assert abs(loss - ref_loss) <= 1e-6 * abs(ref_loss)
        assert np.max(np.abs(dX - ref_dX)) <= 1e-5 * np.max(np.abs(ref_dX))
        assert abs(dg - ref_dg) <= 1e-5 * abs(ref_dg)  # both 0.0 for mean_pool


class TestBeyondFloat32:
    """A non-finite table entry raises TrainingDiverged before any batch
    reads it and leaves the model as it was, for both encoders; a float64
    entry beyond float32's range never reaches train, since RecModel
    refuses it."""

    VOCAB, UNSEEN = 6, 5  # no prefix and no label holds item 5
    PAIRS = [([0, 1], 2), ([3], 4), ([2, 4, 1], 0), ([1], 3)]
    STEPS = 4  # two epochs of two batches

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, 1e39, -1e39])
    @pytest.mark.parametrize("item", [UNSEEN, 1])
    @pytest.mark.parametrize("after_steps", [0, STEPS - 1])
    @pytest.mark.parametrize("gated", [False, True])
    def test_raises_in_the_batch_that_reads_it(self, monkeypatch, value, item, after_steps, gated):
        # every entry is positive, so every session embedding is too: an
        # entry at -inf in float32 scores -inf, which the softmax turns into
        # a zero probability and a finite loss. after_steps = 0 puts the
        # entry in the model's table; after_steps = 3 puts it in the table
        # that train steps, before the last batch of the last epoch, where
        # +-1e39 can only be +-inf. The model's table is float32 too, so
        # RecModel refuses a table holding +-1e39, with no numpy warning.
        m = toy_model(vocab=self.VOCAB, d=3, kind="last_gated" if gated else "mean_pool", seed=4)
        m.embeddings[...] = np.abs(m.embeddings) + 0.5
        if after_steps == 0 and np.isfinite(value):
            table = m.embeddings.astype(np.float64)
            table[item, 1] = value
            with pytest.raises(ValueError, match="finite in float32"):
                RecModel(table, m.encoder_kind, m.gate_raw)
            return
        tables, stepped = [], []
        real_padded_table = recommender.padded_table
        with np.errstate(over="ignore"):
            narrowed = np.float32(value)

        def spy_padded_table(table):
            tables.append(real_padded_table(table))
            return tables[-1]

        class InjectingAdam(numkit.Adam):
            def step(self, grads):
                super().step(grads)
                stepped.append(self.t)
                if self.t == after_steps and np.shares_memory(self.params[0], tables[0][item]):
                    tables[0][item, 1] = narrowed

        monkeypatch.setattr(recommender, "padded_table", spy_padded_table)
        monkeypatch.setattr(recommender, "Adam", InjectingAdam)
        if after_steps == 0:
            m.embeddings[item, 1] = value
        before, gate = m.embeddings.tobytes(), m.gate_raw
        with rec_steps(batch=2), pytest.raises(TrainingDiverged):
            train(m, dataset_of(self.PAIRS), train_config(epochs=2, l2=0.0))
        assert tables[0].dtype == np.float32
        assert m.embeddings.tobytes() == before and m.gate_raw == gate
        assert max(stepped, default=0) == after_steps  # no step after the entry appeared

    @pytest.mark.filterwarnings("error")
    def test_largest_float32_is_in_range(self):
        m = toy_model(vocab=self.VOCAB, d=3)
        largest = float(np.finfo(np.float32).max)
        m.embeddings[self.UNSEEN, 1] = largest
        with rec_steps(batch=2):
            train(m, dataset_of(self.PAIRS), train_config(epochs=2, l2=0.0))
        # Adam moves the entry by at most about REC_LR, which rounds back to it
        assert m.embeddings[self.UNSEEN, 1] == largest
        assert np.all(np.isfinite(m.embeddings))


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1.0, 1.0))


class TestTrainMatchesReference:
    """train() is bitwise the masked per-batch loop of tests/helpers.py,
    whether it plans one batch at a time, two (so most epochs end in a
    short group), or the default group, which holds every batch here."""

    @staticmethod
    def check(table, kind, gate_raw, pairs, cfg):
        ds = dataset_of(pairs)
        ref = RecModel(table.copy(), kind, gate_raw)
        train_reference(ref, ds, cfg)
        bits = lambda x: np.asarray(x, dtype=np.float64).view(np.uint64)  # noqa: E731
        for group in (1, 2, recommender._PLAN_BATCHES):
            got = RecModel(table.copy(), kind, gate_raw)
            with mock.patch.object(recommender, "_PLAN_BATCHES", group):
                train(got, ds, cfg)
            assert np.array_equal(bits(got.embeddings), bits(ref.embeddings)), group
            assert bits(got.gate_raw) == bits(ref.gate_raw), group

    @settings(max_examples=60, deadline=None)
    @given(table=arrays(np.float64, st.tuples(st.integers(2, 9), st.integers(2, 4)), elements=_ENTRIES),
           kind=st.sampled_from(["mean_pool", "last_gated"]), freeze_gate=st.booleans(),
           gate_raw=st.floats(-2.0, 2.0), batch=st.integers(1, 7), epochs=st.integers(1, 3),
           lr=st.sampled_from([0.0, 0.01, 0.3]), l2=st.sampled_from([0.0, 1e-3]),
           seed=st.integers(0, 50), data=st.data())
    def test_bitwise_equal_to_reference(self, table, kind, freeze_gate, gate_raw, batch, epochs,
                                        lr, l2, seed, data):
        item = st.integers(0, table.shape[0] - 1)
        pairs = data.draw(st.lists(st.tuples(st.lists(item, min_size=1, max_size=12), item),
                                   min_size=1, max_size=20))
        cfg = train_config(epochs=epochs, l2=l2, seed=seed, freeze_gate=freeze_gate)
        with rec_steps(lr=lr, batch=batch):
            self.check(table, kind, gate_raw, pairs, cfg)

    @pytest.mark.parametrize("kind, freeze_gate", [
        ("mean_pool", False), ("last_gated", False), ("last_gated", True),
    ])
    def test_bitwise_equal_with_helper_at_width(self, kind, freeze_gate):
        # |V| 300, d 32 and B 100 with a short last batch: a product this
        # wide takes other bits when its rows are split across threads
        # (except at multiples of the BLAS kernel's row width), so none may
        # be. Entries in (-1, 1) make scores large enough that a last-bit
        # change in one survives the softmax.
        rng = Rng(8)
        pairs = [([int(i) for i in integers(rng, 0, 300, int(rng.integers(1, 9)))], int(rng.integers(0, 300)))
                 for _ in range(250)]
        table = rng.uniform((300, 32)) * 2.0 - 1.0
        cfg = train_config(epochs=2, l2=1e-3, seed=4, freeze_gate=freeze_gate)
        self.check(table, kind, 0.3, pairs, cfg)

    @pytest.mark.parametrize("kind", ["mean_pool", "last_gated"])
    def test_signed_zero_padding(self, kind):
        # item 1 is all -0.0 and item 0 all negative, so the masked loop's
        # padded slots of the prefix [1] hold -0.0 where the zero row's hold +0.0
        table = np.array([[-0.5, -0.25], [-0.0, -0.0], [0.0, 0.5]])
        with rec_steps(batch=2):
            self.check(table, kind, 0.0, [([1], 2), ([1, 2, 0], 1)], train_config(epochs=2))


class TestPlanMemory:
    """An epoch's plan holds a few intp entries per pair, and pads one group
    of batches at a time: a long prefix widens its own group only."""

    PAIRS = 199_998  # 22,222 sessions of 10 items

    def plan_peak(self, long_at=None):
        """tracemalloc's peak, in bytes per pair, over planning an epoch up
        to its first batch: PAIRS pairs with prefixes of 1-9 items, in
        order, where pair ``long_at`` (if given) has a 49-item prefix."""
        items = np.arange(self.PAIRS // 9 * 10) % 1000
        offsets = np.arange(0, len(items), 10)
        ds = SessionDataset(items, np.repeat(offsets, 9), np.delete(np.arange(len(items)), offsets))
        if long_at is not None:
            ds.starts[long_at] = ds.ends[long_at] - 49
        order = np.arange(len(ds))  # an index array, as train's shuffle is
        tracemalloc.start()
        try:
            next(recommender.plan_batches(ds, order, recommender.REC_BATCH, 1000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / len(ds)

    def group_pad(self, width):
        """One group's intp pad ``width`` slots wide, in bytes per pair."""
        slots = width * recommender._PLAN_BATCHES * recommender.REC_BATCH
        return np.dtype(np.intp).itemsize * slots / self.PAIRS

    def test_peak_is_a_few_entries_per_pair_and_one_group(self):
        # planning the whole epoch at once took about 240 B per pair
        assert self.plan_peak() <= 24 + 3 * self.group_pad(9)

    @pytest.mark.parametrize("long_at, width", [(100, 49), (-1, 9)])
    def test_a_long_prefix_widens_only_its_group(self, long_at, width):
        # the epoch padded to 49 slots would take 392 B per pair, and the
        # last group's long prefix leaves the first group's pad 9 slots wide
        assert self.plan_peak(long_at) <= 24 + 3 * self.group_pad(width)


class TestIngestMemory:
    """An event log is held as int and float64 columns once each chunk of
    its text is read, not as a tuple per event and a list per session."""

    EVENTS = 201_409  # what odup synth writes at synth_vocab 4000, synth_sessions 31000

    def test_peak_per_event(self, tmp_path):
        cfg_path = tmp_path / "synth.cfg"
        cfg_path.write_text("synth_vocab = 4000\nsynth_sessions = 31000\n", encoding="utf-8")
        assert cli.main(["--config", str(cfg_path), "--out", str(tmp_path), "synth"]) == 0
        log = tmp_path / "events.tsv"
        with open(log, "rb") as fh:
            assert sum(1 for _ in fh) == self.EVENTS
        cfg = ExperimentConfig(data=str(log))
        tracemalloc.start()
        try:
            prepare_data(cfg, Rng(cfg.seed))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a tuple per event and a list per session peaked at 292 B per event
        assert peak / self.EVENTS <= 160
