import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odup.codec import CodebookStore, harden, reconstruct_table, train_codec
from odup.errors import LedgerDivergence, ProtocolError, StaleDeltaError
from odup.numkit import Rng
from odup.updater import (
    STRATEGIES, SlotLedger, UpdateDelta, advance_ledger, apply_delta, beta_from_ratio,
    end_to_end_cr, plan_slots, retrain_update, update_cr,
)

from helpers import codec_config, integers, normal, same_delta


def clustered_table(rng: Rng, vocab, d, n_clusters=4, noise=0.05):
    centroids = rng.uniform((n_clusters, d)) - 0.5
    assign = integers(rng, 0, n_clusters, vocab)
    return centroids[assign] + normal(rng, noise, (vocab, d))


class TestPlanSlots:
    def test_fresh_stack_takes_top(self):
        ledger = SlotLedger.fresh(8, epoch=1)
        assert plan_slots(ledger, "stack", 3) == [5, 6, 7]

    def test_fresh_queue_takes_front(self):
        ledger = SlotLedger.fresh(8, epoch=1)
        assert plan_slots(ledger, "queue", 3) == [0, 1, 2]

    def test_stack_reuses_same_rows(self):
        ledger = SlotLedger.fresh(8, epoch=1)
        first = plan_slots(ledger, "stack", 3)
        ledger = advance_ledger(ledger, "stack", first, 2)
        assert plan_slots(ledger, "stack", 3) == first

    def test_queue_progresses_disjoint(self):
        ledger = SlotLedger.fresh(8, epoch=1)
        first = plan_slots(ledger, "queue", 3)
        ledger = advance_ledger(ledger, "queue", first, 2)
        second = plan_slots(ledger, "queue", 3)
        assert second == [3, 4, 5]
        assert not set(first) & set(second)

    def test_full_plan(self):
        ledger = SlotLedger.fresh(4, epoch=1)
        assert plan_slots(ledger, "full", 4) == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            plan_slots(ledger, "full", 2)

    def test_beta_bounds(self):
        ledger = SlotLedger.fresh(4, epoch=1)
        with pytest.raises(ValueError):
            plan_slots(ledger, "stack", 0)
        with pytest.raises(ValueError):
            plan_slots(ledger, "queue", 5)


class TestLedgerInvariants:
    def test_queue_coverage(self):
        nk, beta = 16, 5
        ledger = SlotLedger.fresh(nk, epoch=1)
        updates = -(-nk // beta)  # ceil
        for e in range(2, 2 + updates):
            ledger = advance_ledger(ledger, "queue", plan_slots(ledger, "queue", beta), e)
        assert sum(1 for ep in ledger.epochs if ep == 1) == 0

    def test_stack_retention(self):
        nk, beta = 16, 5
        ledger = SlotLedger.fresh(nk, epoch=1)
        for e in range(2, 9):
            ledger = advance_ledger(ledger, "stack", plan_slots(ledger, "stack", beta), e)
        assert sum(1 for ep in ledger.epochs if ep == 1) == nk - beta

    def test_seqs_stay_unique(self):
        ledger = SlotLedger.fresh(10, epoch=1)
        for e in range(2, 6):
            ledger = advance_ledger(ledger, "queue", plan_slots(ledger, "queue", 3), e)
            assert len(set(ledger.seqs)) == 10

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_epoch_must_advance_by_one(self, strategy):
        ledger = SlotLedger.fresh(8, epoch=1)
        slots = plan_slots(ledger, strategy, 8 if strategy == "full" else 3)
        with pytest.raises(ValueError, match="advance by exactly 1"):
            advance_ledger(ledger, strategy, slots, 3)

    def test_replay_determinism(self):
        a = SlotLedger.fresh(8, epoch=1)
        b = SlotLedger.fresh(8, epoch=1)
        for e in range(2, 5):
            slots = plan_slots(a, "queue", 3)
            a = advance_ledger(a, "queue", slots, e)
            b = advance_ledger(b, "queue", slots, e)
        assert a == b


class TestBetaFromRatio:
    def test_paper_rate(self):
        assert beta_from_ratio(20, 32, 10) == 64

    def test_no_compression(self):
        assert beta_from_ratio(4, 8, 1) == 32

    def test_large_ratio_floor(self):
        assert beta_from_ratio(40, 32, 300) == 4

    def test_clamps_to_one(self):
        assert beta_from_ratio(2, 2, 1000) == 1

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            beta_from_ratio(2, 2, 0.5)


class TestCrFormulas:
    def test_update_cr_examples(self):
        assert update_cr(20, 32, 128, 10000, 20 * 32) == 1.0
        got = update_cr(20, 32, 128, 10000, 64)
        assert abs(got - 281920 / 208192) < 1e-12

    def test_update_cr_monotone_in_beta(self):
        vals = [update_cr(4, 8, 16, 500, b) for b in range(1, 33)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_end_to_end_examples(self):
        got = end_to_end_cr(10000, 128, 20, 64)
        assert abs(got - 1.0 / (64 / 10000 + 20 / 128)) < 1e-12
        assert abs(got - 6.148) < 1e-3

    def test_beta_to_zero_limit(self):
        # as beta shrinks the ratio approaches d/n
        assert end_to_end_cr(10**9, 128, 20, 1) == pytest.approx(128 / 20, rel=1e-6)

    @settings(max_examples=200, deadline=None)
    @given(
        vocab=st.integers(1, 100000),
        d=st.integers(1, 512),
        n=st.integers(1, 64),
        k=st.integers(1, 64),
        data=st.data(),
    )
    def test_factorization_identity(self, vocab, d, n, k, data):
        beta = data.draw(st.integers(1, n * k))
        lhs = end_to_end_cr(vocab, d, n, beta)
        rhs = model_cr_times_update(vocab, d, n, k, beta)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def model_cr_times_update(vocab, d, n, k, beta):
    from odup.codec import model_cr

    return model_cr(vocab, d, n, k) * update_cr(n, k, d, vocab, beta)


def make_update_setup(seed=1, vocab=24, d=6, n=2, k=4, epochs=8):
    """A codec trained on X1 and its hardened codes, and X2, a drifted X1."""
    rng = Rng(seed)
    X1 = clustered_table(rng, vocab, d)
    X2 = X1 + normal(rng, 0.05, (vocab, d))
    cfg = codec_config(n=n, k=k, epochs=epochs, batch=16, seed=seed)
    store, enc, _ = train_codec(X1, cfg)
    return rng, X1, X2, cfg, store, harden(enc, X1)


def sq_error(store, codes, target) -> float:
    return float(np.sum((reconstruct_table(store, codes) - target) ** 2))


class TestRetrainUpdate:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_error_no_higher_than_previous_store_and_codes(self, strategy, seed):
        rng, X1, X2, cfg, store, codes = make_update_setup(seed=seed, vocab=60, d=8, n=4, k=4)
        beta = cfg.nk if strategy == "full" else 5
        slots = plan_slots(SlotLedger.fresh(cfg.nk, epoch=1), strategy, beta)
        upd = retrain_update(store, codes, X2, slots, epoch=2, strategy=strategy)
        before = sq_error(store, codes, X2)
        assert sq_error(upd.store, upd.delta.codes, X2) <= before * (1 + 1e-12)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_rows_outside_used_slots_unchanged_and_prev_store_not_written(self, strategy):
        rng, X1, X2, cfg, store, codes = make_update_setup(vocab=60, n=2, k=8)
        slots = plan_slots(SlotLedger.fresh(cfg.nk, epoch=1), strategy, cfg.nk if strategy == "full" else 4)
        # a slot row far from every item, so no code ever picks it
        far, book = slots[0], slots[0] // cfg.k
        store.rows[far] = 1e3
        codes[codes[:, book] == far % cfg.k, book] = (far + 1) % cfg.k
        prev_rows = store.rows.copy()
        upd = retrain_update(store, codes, X2, slots, epoch=2, strategy=strategy)
        assert store.rows.tobytes() == prev_rows.tobytes()
        unchanged = sorted(set(range(cfg.nk)) - set(slots)) + [far]
        assert upd.store.rows[unchanged].tobytes() == prev_rows[unchanged].tobytes()
        assert not np.array_equal(upd.store.rows[slots], prev_rows[slots])

    def test_a_slot_no_item_uses_is_left_as_is(self):
        rng, X1, X2, cfg, store, codes = make_update_setup()
        store.rows[0] = 1e3
        codes[codes[:, 0] == 0, 0] = 1
        upd = retrain_update(store, codes, X2, [0], epoch=2, strategy="queue")
        assert upd.store.rows.tobytes() == store.rows.tobytes()
        assert sq_error(upd.store, upd.delta.codes, X2) <= sq_error(store, codes, X2) * (1 + 1e-12)

    def test_deterministic(self):
        rng, X1, X2, cfg, store, codes = make_update_setup()
        slots = plan_slots(SlotLedger.fresh(cfg.nk, epoch=1), "queue", 3)
        a = retrain_update(store, codes, X2, slots, epoch=2, strategy="queue")
        b = retrain_update(store, codes, X2, slots, epoch=2, strategy="queue")
        assert same_delta(a.delta, b.delta) and a.store.rows.tobytes() == b.store.rows.tobytes()

    def test_beta_one_payload(self):
        rng, X1, X2, cfg, store, codes = make_update_setup()
        ledger = SlotLedger.fresh(cfg.nk, epoch=1)
        slots = plan_slots(ledger, "queue", 1)
        upd = retrain_update(store, codes, X2, slots, epoch=2, strategy="queue")
        assert upd.delta.new_rows.shape == (1, store.d)
        assert upd.delta.codes.shape == (24, cfg.n)

    def test_delta_rows_are_the_slot_rows_in_float32(self):
        rng, X1, X2, cfg, store, codes = make_update_setup()
        slots = plan_slots(SlotLedger.fresh(cfg.nk, epoch=1), "queue", 3)
        upd = retrain_update(store, codes, X2, slots, epoch=2, strategy="queue")
        assert upd.delta.new_rows.dtype == np.float32
        assert upd.delta.new_rows.tobytes() == upd.store.rows[slots].astype(np.float32).tobytes()

    def test_update_beats_stale(self):
        rng, X1, X2, cfg, store, codes = make_update_setup(epochs=25)
        ledger = SlotLedger.fresh(cfg.nk, epoch=1)
        slots = plan_slots(ledger, "queue", 4)
        upd = retrain_update(store, codes, X2, slots, epoch=2, strategy="queue")
        stale_mse = float(((reconstruct_table(store, codes) - X2) ** 2).mean())
        new_mse = float(((reconstruct_table(upd.store, upd.delta.codes) - X2) ** 2).mean())
        assert new_mse <= stale_mse

    def test_frozen_row_conservation(self):
        rng, X1, X2, cfg, store, codes = make_update_setup()
        ledger = SlotLedger.fresh(cfg.nk, epoch=1)
        slots = plan_slots(ledger, "stack", 3)
        upd = retrain_update(store, codes, X2, slots, epoch=2, strategy="stack")
        untouched = sorted(set(range(cfg.nk)) - set(slots))
        assert np.array_equal(upd.store.rows[untouched], store.rows[untouched])

    def test_payload_element_accounting(self):
        rng, X1, X2, cfg, store, codes = make_update_setup()
        vocab = X2.shape[0]
        ledger = SlotLedger.fresh(cfg.nk, epoch=1)
        beta = 5
        slots = plan_slots(ledger, "queue", beta)
        upd = retrain_update(store, codes, X2, slots, epoch=2, strategy="queue")
        assert upd.delta.new_rows.size + upd.delta.codes.shape[0] * cfg.n == beta * store.d + cfg.n * vocab


class TestApplyDelta:
    def roundtrip_device(self, strategy="queue", beta=3):
        rng, X1, X2, cfg, store, codes = make_update_setup()
        ledger = SlotLedger.fresh(cfg.nk, epoch=1)
        device_store = CodebookStore(cfg.n, cfg.k, store.d,
                                     store.rows.astype(np.float32).astype(np.float64))
        device_ledger = SlotLedger.fresh(cfg.nk, epoch=1)
        slots = plan_slots(ledger, strategy, beta)
        upd = retrain_update(store, codes, X2, slots, epoch=2, strategy=strategy)
        return cfg, store, codes, ledger, device_store, device_ledger, upd, slots

    def test_plans_agree_after_apply(self):
        cfg, store, codes, ledger, dstore, dledger, upd, slots = self.roundtrip_device()
        server_ledger = advance_ledger(ledger, "queue", slots, 2)
        dstore2, dledger2, _ = apply_delta(dstore, dledger, upd.delta, expected_strategy="queue")
        assert dledger2 == server_ledger
        assert plan_slots(server_ledger, "queue", 3) == plan_slots(dledger2, "queue", 3)

    def test_full_strategy_matches_server_post_f32(self):
        rng, X1, X2, cfg, store, codes = make_update_setup()
        dstore = CodebookStore(cfg.n, cfg.k, store.d, store.rows.astype(np.float32).astype(np.float64))
        dledger = SlotLedger.fresh(cfg.nk, epoch=1)
        upd = retrain_update(store, codes, X2, list(range(cfg.nk)), epoch=2, strategy="full")
        dstore2, dledger2, table = apply_delta(dstore, dledger, upd.delta, expected_strategy="queue")
        assert np.array_equal(
            dstore2.rows, upd.store.rows.astype(np.float32).astype(np.float64)
        )
        assert np.array_equal(table, reconstruct_table(dstore2, upd.delta.codes))

    def test_rebuild_oracles_by_dtype(self):
        # the benchmark's device-table check rebuilds the narrowed server
        # store with no dtype and compares bits; the solver asks for float64
        rng, X1, X2, cfg, store, codes = make_update_setup()
        deploy = UpdateDelta(1, "full", cfg.nk, store.rows, codes, list(range(cfg.nk)))
        dstore, dledger, deployed = apply_delta(None, None, deploy, expected_strategy="queue")
        upd = retrain_update(store, codes, X2, plan_slots(dledger, "queue", 5), epoch=2, strategy="queue")
        _, _, updated = apply_delta(dstore, dledger, upd.delta, expected_strategy="queue")
        for server, delta, table in ((store, deploy, deployed), (upd.store, upd.delta, updated)):
            narrowed = CodebookStore(cfg.n, cfg.k, store.d, server.rows.astype(np.float32).astype(np.float64))
            oracle = reconstruct_table(narrowed, delta.codes)
            assert oracle.dtype == table.dtype == np.float32 and oracle.tobytes() == table.tobytes()
            solver = reconstruct_table(server, delta.codes, np.float64)
            idx = delta.codes + np.arange(cfg.n) * cfg.k
            in_order = functools.reduce(np.add, (server.rows[idx[:, i]] for i in range(cfg.n)))
            assert solver.dtype == np.float64 and solver.tobytes() == in_order.tobytes()

    def test_stale_epoch_rejected(self):
        cfg, store, codes, ledger, dstore, dledger, upd, slots = self.roundtrip_device()
        upd.delta.epoch = 3
        with pytest.raises(StaleDeltaError):
            apply_delta(dstore, dledger, upd.delta, expected_strategy="queue")

    def test_strategy_mismatch_rejected(self):
        cfg, store, codes, ledger, dstore, dledger, upd, slots = self.roundtrip_device("stack")
        with pytest.raises(ProtocolError):
            apply_delta(dstore, dledger, upd.delta, expected_strategy="queue")

    def test_tampered_slots_diverge(self):
        cfg, store, codes, ledger, dstore, dledger, upd, slots = self.roundtrip_device()
        upd.delta.replaced_slots = list(reversed(upd.delta.replaced_slots))
        with pytest.raises(LedgerDivergence):
            apply_delta(dstore, dledger, upd.delta, expected_strategy="queue")

    def test_failed_apply_leaves_state(self):
        cfg, store, codes, ledger, dstore, dledger, upd, slots = self.roundtrip_device()
        before = dstore.rows.copy()
        upd.delta.epoch = 9
        with pytest.raises(StaleDeltaError):
            apply_delta(dstore, dledger, upd.delta, expected_strategy="queue")
        assert np.array_equal(dstore.rows, before)
        assert dledger == SlotLedger.fresh(cfg.nk, epoch=1)

    def test_replay_two_devices_identical(self):
        rng, X1, X2, cfg, store, codes = make_update_setup(epochs=6)
        ledger = SlotLedger.fresh(cfg.nk, epoch=1)
        f32 = store.rows.astype(np.float32).astype(np.float64)
        devices = [
            (CodebookStore(cfg.n, cfg.k, store.d, f32.copy()), SlotLedger.fresh(cfg.nk, epoch=1))
            for _ in range(2)
        ]
        target = X2
        for epoch in (2, 3, 4):
            slots = plan_slots(ledger, "queue", 3)
            upd = retrain_update(store, codes, target, slots, epoch=epoch, strategy="queue")
            store, codes = upd.store, upd.delta.codes
            ledger = advance_ledger(ledger, "queue", slots, epoch)
            devices = [
                apply_delta(ds, dl, upd.delta, expected_strategy="queue")[:2]
                for ds, dl in devices
            ]
            target = target + normal(rng, 0.02, target.shape)
        (s1, l1), (s2, l2) = devices
        assert np.array_equal(s1.rows, s2.rows)
        assert l1 == l2


class TestDeployRule:
    """apply_delta deploys a replica of store and ledger None exactly as it
    applies the delta to an all-zero store and an epoch-0 ledger."""

    N, K, D, V = 4, 4, 5, 30

    def delta(self, seed, epoch, strategy, slots):
        rng = np.random.default_rng(seed)
        return UpdateDelta(epoch, strategy, len(slots), rng.normal(size=(len(slots), self.D)),
                           rng.integers(0, self.K, (self.V, self.N)).astype(np.int32), slots)

    def blank(self):
        nk = self.N * self.K
        return CodebookStore(self.N, self.K, self.D, np.zeros((nk, self.D))), SlotLedger.fresh(nk, 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_full_deploy_equals_apply_to_blank_replica(self, seed, strategy):
        delta = self.delta(seed, 1, "full", list(range(self.N * self.K)))
        store, ledger, table = apply_delta(None, None, delta, expected_strategy=strategy)
        want_store, want_ledger, want_table = apply_delta(*self.blank(), delta,
                                                          expected_strategy=strategy)
        assert (store.n, store.k, store.d) == (self.N, self.K, self.D)
        assert store.rows.tobytes() == want_store.rows.tobytes()
        assert ledger == want_ledger == SlotLedger.fresh(self.N * self.K, 1)
        assert table.tobytes() == want_table.tobytes()

    @pytest.mark.parametrize("strategy,epoch,slots,error", [
        ("full", 1, list(range(N * K))[::-1], LedgerDivergence),  # reversed slot list
        ("full", 1, [0] * (N * K), LedgerDivergence),             # one slot repeated
        ("full", 2, list(range(N * K)), StaleDeltaError),         # deploy is epoch 1
        ("queue", 1, [0, 1], ProtocolError),                      # deploy is a full frame
    ])
    def test_bad_deploy_raises_as_on_blank_replica(self, strategy, epoch, slots, error):
        # a deploy is checked as an update of a full session: a queue delta
        # would pass a queue session's checks on a blank replica
        delta = self.delta(6, epoch, strategy, slots)
        for store, ledger in ((None, None), self.blank()):
            with pytest.raises(error) as exc:
                apply_delta(store, ledger, delta, expected_strategy="full")
            assert type(exc.value) is error
        with pytest.raises(error):
            apply_delta(None, None, delta, expected_strategy="queue")


class TestPaperConcatenationForms:
    def test_stack_matches_concat_formula(self):
        # our stack top = highest row indices; the paper writes the top as
        # the first block, so mirror the store/codes through a row reversal
        rng = Rng(3)
        nk, d, beta = 4, 2, 2
        old = rng.uniform((nk, d)).astype(np.float32).astype(np.float64)  # a device store is float32
        new = rng.uniform((beta, d))
        store = CodebookStore(1, nk, d, old.copy())
        ledger = SlotLedger.fresh(nk, epoch=1)
        slots = plan_slots(ledger, "stack", beta)  # [2, 3]
        codes = integers(rng, 0, nk, (6, 1)).astype(np.int32)
        delta = UpdateDelta(2, "stack", beta, new, codes, slots)
        _, _, table = apply_delta(store, ledger, delta, expected_strategy="stack")

        # paper layout: store rows reversed, E* first, keep old[beta:]
        paper_store = np.vstack([delta.new_rows[::-1], old[::-1][beta:]])
        onehot = np.zeros((6, nk))
        onehot[np.arange(6), nk - 1 - codes[:, 0]] = 1.0
        expected = onehot @ paper_store
        assert np.array_equal(table, expected)

    def test_queue_matches_concat_formula(self):
        # paper queue front = last block under the reversal; FIFO also
        # shifts surviving rows by beta, so our row c sits at paper
        # position (nk - 1 + beta - c) mod nk
        rng = Rng(4)
        nk, d, beta = 4, 2, 2
        old = rng.uniform((nk, d)).astype(np.float32).astype(np.float64)  # a device store is float32
        new = rng.uniform((beta, d))
        store = CodebookStore(1, nk, d, old.copy())
        ledger = SlotLedger.fresh(nk, epoch=1)
        slots = plan_slots(ledger, "queue", beta)  # [0, 1]
        codes = integers(rng, 0, nk, (6, 1)).astype(np.int32)
        delta = UpdateDelta(2, "queue", beta, new, codes, slots)
        _, _, table = apply_delta(store, ledger, delta, expected_strategy="queue")

        paper_store = np.vstack([delta.new_rows[::-1], old[::-1][: nk - beta]])
        onehot = np.zeros((6, nk))
        onehot[np.arange(6), (nk - 1 + beta - codes[:, 0]) % nk] = 1.0
        expected = onehot @ paper_store
        assert np.array_equal(table, expected)
