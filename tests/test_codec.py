import functools
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odup import codec
from odup.errors import ConfigError
from odup.codec import (
    ICM_SWEEPS, CodebookStore, CodecEncoder, check_capacity, harden,
    init_codec, model_cr, reconstruct_table, refine_codes, relaxed_loss, train_codec,
    _relaxed_forward, _LOSS_BLOCK, _RECONSTRUCT_BLOCK,
)
from odup.numkit import Rng, softmax
from odup.pipeline import ExperimentConfig

from helpers import (
    TAU_ALT, TAU_DEFAULT, best_component, codec_config, codes_from_alpha, encoder_forward,
    forward_backward, gather_sum_table, grad_check, gumbel_relax, integers, item_errors,
    log_softmax, normal, reconstruct_item, sample_gumbel, train_codec_per_batch_noise,
)


def clustered_table(rng: Rng, vocab, d, n_clusters=8, noise=0.05):
    centroids = rng.uniform((n_clusters, d)) - 0.5
    assign = integers(rng, 0, n_clusters, vocab)
    return centroids[assign] + normal(rng, noise, (vocab, d))


def tiny_codec(seed=0):
    cfg = codec_config(n=2, k=4, d=4, seed=seed)
    store, enc = init_codec(cfg, Rng(11).child("init"))
    return cfg, store, enc


class TestEncoderForward:
    def test_zero_weights_give_uniform(self):
        cfg = codec_config(n=3, k=4, d=5)
        h = cfg.nk // 2
        enc = CodecEncoder(3, 4, np.zeros((5, h)), np.zeros(h), np.zeros((h, cfg.nk)), np.zeros(cfg.nk))
        alpha = encoder_forward(enc, np.array([0.3, -1.0, 0.2, 0.0, 2.0]))
        assert alpha.shape == (3, 4)
        assert np.allclose(alpha, 0.25, atol=1e-15)

    def test_positivity_and_normalization(self):
        cfg, store, enc = tiny_codec()
        alpha = encoder_forward(enc, Rng(2).uniform(4) * 4 - 2)
        assert np.all(alpha > 0)
        assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)

    def test_hand_computed_case(self):
        # d=2, n=1, k=2 -> hidden width 1; arithmetic done with plain floats
        phi = np.array([[0.5], [-0.25]])
        b = np.array([0.1])
        phi_prime = np.array([[0.4, -0.3]])
        b_prime = np.array([0.05, -0.1])
        enc = CodecEncoder(1, 2, phi, b, phi_prime, b_prime)
        x = np.array([0.8, 0.4])

        import math

        h = math.tanh(0.5 * 0.8 - 0.25 * 0.4 + 0.1)
        l0 = math.log1p(math.exp(0.4 * h + 0.05))
        l1 = math.log1p(math.exp(-0.3 * h - 0.1))
        e0, e1 = math.exp(l0), math.exp(l1)
        expected = np.array([e0 / (e0 + e1), e1 / (e0 + e1)])
        assert np.allclose(encoder_forward(enc, x), expected, atol=1e-12)

    def test_rejects_nonfinite(self):
        cfg, store, enc = tiny_codec()
        with pytest.raises(ValueError):
            encoder_forward(enc, np.array([np.nan, 0, 0, 0]))


class TestGumbelRelax:
    def test_noise_free_sharp_temperature(self):
        out = gumbel_relax(np.array([0.9, 0.1]), None, tau=0.01)
        assert out[0] >= 1 - 1e-6

    def test_uniform_alpha_stays_uniform(self):
        for tau in (0.05, 0.5, 2.0):
            out = gumbel_relax(np.array([0.25, 0.25, 0.25, 0.25]), None, tau)
            assert np.allclose(out, 0.25, atol=1e-12)

    def test_matches_independent_reevaluation(self):
        alpha = np.array([0.5, 0.5])
        out = gumbel_relax(alpha, Rng(42).child("g"), tau=0.1)
        g = sample_gumbel(Rng(42).child("g"), (2,))
        expected = softmax((np.log(alpha) + g) / 0.1)
        assert np.array_equal(out, expected)

    def test_zero_probability_clamped(self):
        out = gumbel_relax(np.array([1.0, 0.0]), None, tau=1.0)
        assert np.all(np.isfinite(out))
        assert abs(out.sum() - 1.0) < 1e-12

    def test_sums_to_one(self):
        out = gumbel_relax(np.array([0.2, 0.3, 0.5]), Rng(1).child("g"), tau=0.3)
        assert abs(out.sum() - 1.0) < 1e-12


class TestReconstruct:
    def test_single_codebook_lookup(self):
        store = CodebookStore(1, 3, 2, np.array([[1.0, 2], [3, 4], [5, 6]]))
        assert np.array_equal(reconstruct_item(store, [2]), [5, 6])

    def test_hand_sum(self):
        rows = np.array([[1.0, 0], [0, 1], [2, 2], [3, 3]])
        store = CodebookStore(2, 2, 2, rows)
        assert np.array_equal(reconstruct_item(store, [0, 1]), [4.0, 3.0])

    def test_zero_store(self):
        store = CodebookStore(2, 2, 3, np.zeros((4, 3)))
        assert np.array_equal(reconstruct_item(store, [1, 0]), np.zeros(3))

    def test_out_of_range(self):
        store = CodebookStore(1, 2, 2, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            reconstruct_item(store, [2])

    def test_table_matches_per_item(self):
        # float32-exact rows, as every device store holds
        rng = Rng(8)
        store = CodebookStore(3, 5, 6, rng.uniform((15, 6)).astype(np.float32))
        codes = integers(rng, 0, 5, (100, 3)).astype(np.int32)
        for dtype in (np.float32, np.float64):
            table = reconstruct_table(store, codes, dtype)
            for v in range(100):
                assert np.array_equal(table[v], reconstruct_item(store, codes[v], dtype))

    def test_identity_toy(self):
        # |V| = k with n=1: code v -> v reproduces the chosen rows exactly
        rng = Rng(9)
        rows = rng.uniform((4, 3)).astype(np.float32).astype(np.float64)
        store = CodebookStore(1, 4, 3, rows)
        codes = np.arange(4, dtype=np.int32)[:, None]
        assert np.array_equal(reconstruct_table(store, codes), rows)

    @settings(max_examples=160, deadline=None)
    @given(st.data())
    def test_blocked_equals_gather_sum(self, data):
        d = data.draw(st.sampled_from([1, 2, 3, 32, 33, _RECONSTRUCT_BLOCK + 1]))
        n = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 10)))
        k = data.draw(st.integers(1, 5))
        # at the real block, or at one small enough that most tables span several
        block = data.draw(st.sampled_from([1, 64, _RECONSTRUCT_BLOCK]))
        step = max(1, block // d)
        # k * k - 1 and k * k lie on both sides of the first-pair table's
        # bound, step - 1 to 3 * step + 5 on both sides of block edges
        vocab = data.draw(st.sampled_from(
            [0, 1, k * k - 1, k * k, step - 1, step, step + 1, 2 * step - 1, 2 * step + 1,
             3 * step + 5]))
        rng = Rng(data.draw(st.integers(0, 2**16)))
        # row scales spread over 12 decades, so any change of summation order shows,
        # and a fifth of the entries are signed zeros, whose sign an addition can flip
        rows = normal(rng, 1.0, (n * k, d)) * 10.0 ** integers(rng, -6, 7, (n * k, 1))
        zero = rng.uniform((n * k, d)) < 0.2
        rows[zero] = np.copysign(0.0, rows[zero])
        # the store's rows need not be C-contiguous
        layout = data.draw(st.sampled_from(["C", "F", "strided"]))
        if layout == "F":
            rows = np.asfortranarray(rows)
        elif layout == "strided":
            rows = np.repeat(rows, 2, axis=1)[:, ::2]
        store = CodebookStore(n, k, d, rows)
        # decode_delta gives int32; k <= 5 fits the narrow dtypes too
        code_dtype = data.draw(st.sampled_from([np.uint8, np.int16, np.int32, np.intp]))
        codes = integers(rng, 0, k, (vocab, n)).astype(code_dtype)
        dtype = data.draw(st.sampled_from([np.float32, np.float64]))
        with mock.patch.object(codec, "_RECONSTRUCT_BLOCK", block):
            table = reconstruct_table(store, codes, dtype)
        assert table.dtype == dtype and table.shape == (vocab, d)
        idx = codes + np.arange(n) * k
        rounded = rows.astype(dtype)
        in_order = functools.reduce(np.add, (rounded[idx[:, i]] for i in range(n)))
        as_bits = np.uint32 if dtype == np.float32 else np.uint64
        assert np.array_equal(table.view(as_bits), in_order.view(as_bits))
        if d > 1 or n < 8:
            assert np.array_equal(table, gather_sum_table(store, codes, dtype))
        else:
            # numpy sums a contiguous axis of 8 or more with its unrolled pairwise loop.
            # Two summation orders of n terms differ by at most (n - 1) eps sum|x_i|;
            # a bound relative to the result fails wherever the terms cancel.
            bound = n * np.finfo(dtype).eps * np.abs(rounded[idx]).sum(axis=1)
            assert np.all(np.abs(table - gather_sum_table(store, codes, dtype)) <= bound)

    def test_non_integer_codes_refused(self):
        # a cast to an index would truncate 3.7 to 3 and rebuild the wrong row
        store = CodebookStore(2, 4, 3, np.zeros((8, 3)))
        with pytest.raises(ValueError, match="integer"):
            reconstruct_table(store, np.array([[3.7, 1.0]]))

    def test_a_two_block_rebuild_starts_no_thread(self):
        # |V| d = 2 blocks: the rebuild runs on the calling thread at any size
        rng = Rng(12)
        d = 64
        store = CodebookStore(3, 4, d, normal(rng, 1.0, (12, d)))
        codes = integers(rng, 0, 4, (2 * _RECONSTRUCT_BLOCK // d, 3)).astype(np.int32)
        before = threading.active_count()
        reconstruct_table(store, codes)
        assert threading.active_count() == before

    def test_a_small_table_starts_no_thread(self):
        # c4-queue's shape: |V| 300, n 8, k 16, d 16; 4,800 elements, far below two blocks
        rng = Rng(13)
        store = CodebookStore(8, 16, 16, normal(rng, 1.0, (128, 16)))
        codes = integers(rng, 0, 16, (300, 8)).astype(np.int32)
        before = threading.active_count()
        table = reconstruct_table(store, codes)
        assert threading.active_count() == before
        assert np.array_equal(table, gather_sum_table(store, codes, np.float32))

    def test_lead_table_never_outgrows_the_output(self):
        # k * k > |V| here; a first-pair table would hold k * k = 2^20 rows, 16 MiB
        rng = Rng(10)
        store = CodebookStore(2, 1024, 2, normal(rng, 1.0, (2048, 2)))
        codes = integers(rng, 0, 1024, (1000, 2)).astype(np.int32)
        tracemalloc.start()
        try:
            reconstruct_table(store, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 1024


class TestHarden:
    def test_argmax(self):
        assert codes_from_alpha(np.array([[0.2, 0.5, 0.3]]))[0] == 1

    def test_tie_lowest_index(self):
        assert codes_from_alpha(np.array([[0.5, 0.5]]))[0] == 0

    def test_uniform_encoder_all_zero_codes(self):
        cfg = codec_config(n=2, k=4, d=3)
        h = cfg.nk // 2
        enc = CodecEncoder(2, 4, np.zeros((3, h)), np.zeros(h), np.zeros((h, cfg.nk)), np.zeros(cfg.nk))
        codes = harden(enc, Rng(1).uniform((5, 3)))
        assert np.array_equal(codes, np.zeros((5, 2), dtype=np.int32))

    def test_equal_logits_take_lowest_index(self):
        # constant logits per group: group 0 ties at indices 1 and 2, group 1 ties everywhere
        h = 4
        b_prime = np.array([0.1, 0.7, 0.7, -0.2, 0.3, 0.3, 0.3, 0.3])
        enc = CodecEncoder(2, 4, Rng(2).uniform((3, h)), np.zeros(h), np.zeros((h, 8)), b_prime)
        codes = harden(enc, Rng(1).uniform((5, 3)))
        assert np.array_equal(codes, np.tile(np.array([1, 0], dtype=np.int32), (5, 1)))

    def test_rejects_nonfinite(self):
        cfg, store, enc = tiny_codec()
        with pytest.raises(ValueError):
            harden(enc, np.array([[0.0, np.inf, 0, 0]]))

    def test_resolves_groups_that_alpha_rounds_to_a_tie(self):
        # below z = -37, softplus(z) < 2^-53, so exp(logit - max) rounds to 1
        # and alpha to a tie, although the larger z has the larger alpha
        enc = CodecEncoder(1, 2, np.zeros((2, 1)), np.zeros(1), np.zeros((1, 2)), np.array([-50.0, -40.0]))
        X = np.zeros((1, 2))
        assert np.array_equal(encoder_forward(enc, X), [[[0.5, 0.5]]])
        assert harden(enc, X)[0, 0] == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_alpha_argmax_on_drawn_encoders(self, seed):
        rng = Rng(seed)
        n, k, d = (int(v) for v in integers(rng, 1, 9, 3))
        k += k % 2  # nk even
        h = n * k // 2
        # weight scales that keep z well above -37, where alpha resolves every group
        scale = 10.0 ** rng.integers(-2, 1)

        def w(*shape):
            return normal(rng, scale, shape)

        enc = CodecEncoder(n, k, w(d, h), w(h), w(h, n * k), w(n * k))
        X = normal(rng, 1.0, (50, d))
        codes = harden(enc, X)
        assert codes.dtype == np.int32 and codes.shape == (50, n)
        assert np.array_equal(codes, codes_from_alpha(encoder_forward(enc, X)))

    @pytest.mark.parametrize("vocab, d, tau, epochs, clusters", [
        (300, 16, TAU_ALT, 300, 6),     # the c4-queue codec
        (1846, 32, TAU_DEFAULT, 40, 20),  # the ingest-adaptive codec
    ])
    def test_matches_alpha_argmax_on_trained_codecs(self, vocab, d, tau, epochs, clusters):
        X = clustered_table(Rng(vocab), vocab, d, n_clusters=clusters)
        cfg = codec_config(n=8, k=16, d=d, tau=tau, epochs=epochs, seed=3)
        _, enc, _ = train_codec(X, cfg)
        assert np.array_equal(harden(enc, X), codes_from_alpha(encoder_forward(enc, X)))


class TestRelaxedForward:
    @pytest.mark.parametrize("tau", [TAU_DEFAULT, TAU_ALT, 1.0])
    def test_matches_log_alpha_form(self, tau):
        cfg = codec_config(n=8, k=16, d=16, tau=tau)
        store, enc = init_codec(cfg, Rng(4).child("init"))
        enc.phi_prime *= 50.0  # logits spread over tens, so the groups' log-sum-exp matters
        X = clustered_table(Rng(5), 64, 16)
        G = sample_gumbel(Rng(6), (64, cfg.n, cfg.k))
        _, (_, _, sp, O, _) = _relaxed_forward(enc, store.rows, X, G, tau)
        expected = softmax((log_softmax(sp.reshape(64, cfg.n, cfg.k)) + G) / tau)
        assert np.max(np.abs(O - expected)) <= 1e-12


class TestCapacity:
    def test_too_small_rejected(self):
        with pytest.raises(ConfigError):
            check_capacity(1, 4, 4)  # k^n = 4 <= 4
        with pytest.raises(ConfigError):
            check_capacity(40, 1, 1)  # one row per codebook is one code

    def test_large_values_no_overflow(self):
        check_capacity(20, 32, 37722)  # 32^20 vastly exceeds |V|
        check_capacity(65535, 65535, 2**62)  # forms 65535^63 at most, never 65535^65535

    def test_equality_rejected(self):
        with pytest.raises(ConfigError):
            check_capacity(2, 2, 6)  # k^n = 4 <= 6
        with pytest.raises(ConfigError):
            check_capacity(2, 3, 9)  # k^n = 9 <= 9
        check_capacity(2, 3, 8)

    def test_counts_codes_not_row_subsets(self):
        # binom(16, 2) = 120 exceeds 100, but two codebooks of 8 rows form 64 codes
        with pytest.raises(ConfigError, match="8\\^2 <= vocab 100"):
            check_capacity(2, 8, 100)
        check_capacity(2, 8, 63)


class TestModelCr:
    def test_paper_configs(self):
        gowalla = [(10, 12), (20, 6), (40, 3)]
        for n, expected in gowalla:
            assert round(model_cr(37722, 128, n, 32)) == expected
        lastfm = [(10, 9), (20, 5), (40, 2)]
        for n, expected in lastfm:
            assert round(model_cr(10000, 128, n, 32)) == expected

    def test_degenerate_identity(self):
        v = 64
        assert abs(model_cr(v, v, 1, 1) - v / 2) < 1e-12


class TestTrainCodec:
    def test_tiny_convergence(self):
        rng = Rng(42)
        X = clustered_table(rng, 64, 8, n_clusters=8, noise=0.05)
        cfg = codec_config(n=4, k=8, d=8, seed=0)
        store, enc, loss = train_codec(X, cfg)
        rel_relaxed = loss * X.size / float((X**2).sum())
        assert rel_relaxed < 0.3

    def test_initial_loss_matches_direct_evaluation(self):
        rng = Rng(42)
        X = clustered_table(rng, 64, 8, n_clusters=8)
        cfg = codec_config(n=4, k=8, d=8, seed=0, epochs=0)
        store0, enc0 = init_codec(cfg, Rng(cfg.seed).child("codec-init"))
        _, _, loss = train_codec(X, cfg)
        # with no epochs the loss is the init's: noise-free relaxed MSE
        direct = relaxed_loss(enc0, store0, X, cfg.tau)
        assert loss == direct

    @pytest.mark.parametrize("epochs", [0, 1, 3])
    def test_loss_monitor_runs_once_after_the_last_epoch(self, monkeypatch, epochs):
        calls = []

        def counted(*args):
            calls.append(args)
            return relaxed_loss(*args)

        monkeypatch.setattr("odup.codec.relaxed_loss", counted)
        X = clustered_table(Rng(42), 64, 8, n_clusters=8)
        cfg = codec_config(n=4, k=8, d=8, seed=0, epochs=epochs)
        store, enc, loss = train_codec(X, cfg)
        assert len(calls) == 1
        assert loss == relaxed_loss(enc, store, X, cfg.tau)

    def test_forward_only_loss_matches_forward_backward(self):
        rng = Rng(42)
        X = clustered_table(rng, 300, 16, n_clusters=6)
        for tau in (TAU_DEFAULT, TAU_ALT):
            cfg = codec_config(n=8, k=16, d=16, tau=tau, seed=2)
            store, enc = init_codec(cfg, Rng(cfg.seed).child("codec-init"))
            G = np.zeros((X.shape[0], cfg.n, cfg.k))
            # relaxed_loss weights each block's mean by its item count; 300 items make two blocks
            step = _LOSS_BLOCK // cfg.nk
            assert step < len(X)
            blocked = 0.0
            with np.errstate(all="raise"):
                forward_only = relaxed_loss(enc, store, X, cfg.tau)
                for lo in range(0, len(X), step):
                    loss, _ = forward_backward(
                        enc, store.rows, X[lo: lo + step], G[lo: lo + step], cfg.tau)
                    blocked += loss * len(X[lo: lo + step])
            assert forward_only == blocked / len(X)

    def test_loss_monitor_memory_does_not_grow_with_vocab(self):
        # the full-batch form held about 27.7 KiB per item here, 222 MiB at 8192 items
        X = clustered_table(Rng(5), 8192, 32)
        cfg = codec_config(n=8, k=16, d=32)
        store, enc = init_codec(cfg, Rng(cfg.seed).child("codec-init"))
        tracemalloc.start()
        try:
            relaxed_loss(enc, store, X, cfg.tau)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * _LOSS_BLOCK * 8

    def test_noise_memory_does_not_grow_with_vocab(self):
        # one (|V|, n, k) draw per epoch took the peak to 12.28 MiB here
        X = clustered_table(Rng(5), 8192, 32)
        cfg = codec_config(n=8, k=16, d=32, epochs=1)
        tracemalloc.start()
        try:
            train_codec(X, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8192 * cfg.nk * 8

    def test_hardened_within_2x_of_relaxed(self):
        rng = Rng(42)
        X = clustered_table(rng, 64, 8, n_clusters=8)
        cfg = codec_config(n=4, k=8, d=8, seed=0)
        store, enc, loss = train_codec(X, cfg)
        codes = harden(enc, X)
        hard_mse = float(((reconstruct_table(store, codes) - X) ** 2).mean())
        assert hard_mse <= 2 * loss + 1e-12

    def test_relaxed_rows_are_probability_vectors(self):
        cfg, store, enc = tiny_codec()
        rng = Rng(3)
        X = rng.uniform((8, 4))
        alpha = encoder_forward(enc, X)
        O = gumbel_relax(alpha, Rng(0).child("g"), cfg.tau)
        assert np.allclose(O.sum(axis=-1), 1.0, atol=1e-9)
        assert np.all(O >= 0)

    @pytest.mark.parametrize("vocab, batch", [(300, 256), (37, 8), (5, 16)])
    def test_equals_loop_of_sample_gumbel_and_forward_backward(self, vocab, batch):
        X = clustered_table(Rng(vocab), vocab, 6, n_clusters=4)
        cfg = codec_config(n=4, k=4, d=6, epochs=3, batch=batch, seed=4)
        store, enc, loss = train_codec(X, cfg)
        store_o, enc_o, loss_o = train_codec_per_batch_noise(X, cfg)
        assert loss == loss_o
        assert np.array_equal(store.rows, store_o.rows)
        for got, want in zip(enc.params(), enc_o.params()):
            assert np.array_equal(got, want)

    def test_deterministic(self):
        rng = Rng(5)
        X = clustered_table(rng, 24, 6, n_clusters=4)
        cfg = codec_config(n=2, k=4, d=6, epochs=5, batch=16, seed=9)
        s1, e1, l1 = train_codec(X, cfg)
        s2, e2, l2 = train_codec(X, cfg)
        assert l1 == l2
        assert np.array_equal(s1.rows, s2.rows)
        assert np.array_equal(e1.phi, e2.phi)


def icm_rounding(store: CodebookStore, target: np.ndarray) -> np.ndarray:
    """Per-item rounding allowance of refine_codes. Every score
    ||c||^2 - 2 r.c and every residual update is a sum of at most d
    products of terms no larger than M = ||x|| + sum_i max_c ||c_i||; each
    carries a relative error below d eps, and ICM_SWEEPS * n of them feed
    the final error. The allowance is 4 ICM_SWEEPS n d eps M^2."""
    books = store.rows.reshape(store.n, store.k, store.d)
    M = np.linalg.norm(target, axis=1) + np.linalg.norm(books, axis=2).max(axis=1).sum()
    return 4 * ICM_SWEEPS * store.n * store.d * np.finfo(float).eps * M * M


class TestRefineCodes:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_no_item_error_rises(self, data):
        n, k, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 9)), data.draw(st.integers(1, 12))
        vocab = data.draw(st.integers(0, 60))
        rng = Rng(data.draw(st.integers(0, 2**16)))
        # row and target scales spread over 12 decades
        rows = normal(rng, 1.0, (n * k, d)) * 10.0 ** integers(rng, -6, 7, (n * k, 1))
        store = CodebookStore(n, k, d, rows)
        codes = integers(rng, 0, k, (vocab, n)).astype(np.int32)
        X = normal(rng, 1.0, (vocab, d)) * 10.0 ** integers(rng, -6, 7, (vocab, 1))
        refined = refine_codes(store, codes, X)
        assert refined.dtype == np.int32 and refined.shape == codes.shape
        assert np.all((refined >= 0) & (refined < k))
        after, before = item_errors(store, refined, X), item_errors(store, codes, X)
        assert np.all(after <= before + icm_rounding(store, X))

    @pytest.mark.parametrize("seed", range(6))
    def test_each_component_matches_brute_force(self, seed):
        rng = Rng(seed)
        n, k, d = (int(v) for v in integers(rng, 1, 5, 3))
        store = CodebookStore(n, k, d, normal(rng, 1.0, (n * k, d)))
        codes = integers(rng, 0, k, (30, n)).astype(np.int32)
        X = normal(rng, 1.0, (30, d))
        expected = codes.copy()
        for _ in range(ICM_SWEEPS):
            for i in range(n):
                expected[:, i] = best_component(store, expected, X, i)
        assert np.array_equal(refine_codes(store, codes, X), expected)

    def test_ties_keep_the_current_code(self):
        # two identical codewords in codebook 0: either is optimal, so no code moves
        rows = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        store = CodebookStore(2, 2, 2, rows)
        codes = np.array([[0, 1], [1, 1], [1, 0]], dtype=np.int32)
        X = reconstruct_table(store, codes)
        assert np.array_equal(refine_codes(store, codes, X), codes)

    def test_deterministic_and_input_untouched(self):
        X = clustered_table(Rng(3), 200, 8)
        store = CodebookStore(4, 8, 8, normal(Rng(4), 0.3, (32, 8)))
        codes = integers(Rng(5), 0, 8, (200, 4)).astype(np.int32)
        before = codes.copy()
        first = refine_codes(store, codes, X)
        assert np.array_equal(refine_codes(store, codes, X), first)
        assert np.array_equal(codes, before)
        assert not np.array_equal(first, codes)

    def test_rejects_a_mismatched_target(self):
        store = CodebookStore(2, 2, 3, np.zeros((4, 3)))
        with pytest.raises(ValueError):
            refine_codes(store, np.zeros((5, 2), dtype=np.int32), np.zeros((4, 3)))


class TestCodecGradients:
    def test_matches_finite_differences(self):
        # toy instance from the spec invariants: V=8, d=4, n=2, k=4, G=0
        cfg = codec_config(n=2, k=4, d=4, seed=3)
        rng = Rng(11)
        store, enc = init_codec(cfg, rng)
        X = rng.uniform((8, 4)) * 0.4 - 0.2
        G = np.zeros((8, cfg.n, cfg.k))

        shapes = [enc.phi.shape, enc.b.shape, enc.phi_prime.shape, enc.b_prime.shape, store.rows.shape]
        sizes = [int(np.prod(s)) for s in shapes]

        def unflat(vec):
            parts, off = [], 0
            for s, sz in zip(shapes, sizes):
                parts.append(vec[off: off + sz].reshape(s))
                off += sz
            return parts

        def f(vec):
            phi, b, pp, bp, rows = unflat(vec)
            e = CodecEncoder(cfg.n, cfg.k, phi, b, pp, bp)
            loss, _ = forward_backward(e, rows, X, G, cfg.tau)
            return loss

        point = np.concatenate([p.ravel() for p in enc.params() + [store.rows]])
        _, grads = forward_backward(enc, store.rows, X, G, cfg.tau)
        analytic = np.concatenate([g.ravel() for g in grads])
        assert grad_check(f, analytic, point, h=1e-6) <= 1e-4


class TestPermutationEquivariance:
    def test_trained_encoder_is_row_equivariant(self):
        rng = Rng(5)
        X = clustered_table(rng, 24, 6, n_clusters=4)
        cfg = codec_config(n=2, k=4, d=6, epochs=20, batch=16, seed=1)
        store, enc, _ = train_codec(X, cfg)
        perm = Rng(7).permutation(24)
        codes = harden(enc, X)
        codes_perm = harden(enc, X[perm])
        assert np.array_equal(codes_perm, codes[perm])
        assert np.array_equal(
            reconstruct_table(store, codes_perm), reconstruct_table(store, codes)[perm]
        )

    def test_full_batch_training_equivariant(self):
        # noise-free, full-batch: only matmul summation order differs
        rng = Rng(5)
        X = clustered_table(rng, 24, 6, n_clusters=4)
        perm = Rng(7).permutation(24)
        cfg = codec_config(n=2, k=4, d=6, epochs=10, batch=64, seed=1)

        import odup.codec as codec_mod

        orig = codec_mod.gumbel_from_uniform
        codec_mod.gumbel_from_uniform = np.zeros_like
        try:
            store_a, enc_a, _ = train_codec(X, cfg)
            store_b, enc_b, _ = train_codec(X[perm], cfg)
        finally:
            codec_mod.gumbel_from_uniform = orig
        codes_a = harden(enc_a, X)
        codes_b = harden(enc_b, X[perm])
        assert np.array_equal(codes_b, codes_a[perm])
        ra = reconstruct_table(store_a, codes_a)
        rb = reconstruct_table(store_b, codes_b)
        assert np.allclose(rb, ra[perm], atol=1e-8)


class TestCodecConfig:
    def test_tau_presets(self):
        assert ExperimentConfig().tau == TAU_DEFAULT == 0.1
        assert TAU_ALT == 0.2
