"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The heavier end-to-end criteria (3 and 4) stay well inside their
stated runtime budgets on a single laptop core.
"""

import math
import time

import numpy as np
import pytest

from odup.adaptive import choose_ratio, mmd2
from odup.codec import harden, model_cr, reconstruct_table, train_codec
from odup.errors import FrameError
from odup.numkit import Rng
from odup.pipeline import ExperimentConfig, cloud_trajectory, prepare_data, replay, run_simulate
from odup.recommender import _loss_and_grads, evaluate, init_model, padded_table, train
from odup.sessions import SlicePlan, augment_split, layout_of, synth_generate, temporal_slices
from odup.updater import (
    SlotLedger, advance_ledger, end_to_end_cr, plan_slots, update_cr,
)
from odup.wire import decode_delta, delta_bytes, encode_delta

from helpers import (
    codec_config, dataset_of, forward_backward, grad_check, integers, normal, same_delta,
    train_config, whole_batch,
)


def report(criterion: str, detail: str):
    print(f"\nACCEPTANCE PASS [{criterion}]: {detail}")


def test_criterion_1_compression_ratio_reproduction():
    t0 = time.time()
    gowalla = {10: 12, 20: 6, 40: 3}
    lastfm = {10: 9, 20: 5, 40: 2}
    for n, expected in gowalla.items():
        assert round(model_cr(37722, 128, n, 32)) == expected
    for n, expected in lastfm.items():
        assert round(model_cr(10000, 128, n, 32)) == expected
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report("1 compression-ratio reproduction",
           f"six CR columns match after rounding in {elapsed * 1000:.1f} ms")


def test_criterion_2_formula_identities():
    rng = Rng(20240811)
    worst = 0.0
    for _ in range(1000):
        vocab = int(rng.integers(1, 200000))
        d = int(rng.integers(1, 1024))
        n = int(rng.integers(1, 128))
        k = int(rng.integers(1, 128))
        beta = int(rng.integers(1, n * k + 1))
        lhs = end_to_end_cr(vocab, d, n, beta)
        rhs = model_cr(vocab, d, n, k) * update_cr(n, k, d, vocab, beta)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-12
    for n, k, d, vocab in ((20, 32, 128, 10000), (8, 16, 32, 500), (1, 1, 2, 3)):
        assert update_cr(n, k, d, vocab, n * k) == 1.0
    report("2 formula identities",
           f"end_to_end = model x update over 1000 tuples (worst rel diff {worst:.2e}); "
           "update_cr(beta=nk) == 1 exactly")


def test_criterion_3_codec_fidelity():
    t0 = time.time()
    rng = Rng(2024)
    plan = SlicePlan([1.0])
    data = synth_generate(rng.child("synth"), 2000, 6000, 0.0, plan, n_clusters=20)
    test = augment_split(layout_of(data.test_sessions))
    model = init_model(2000, 32, rng.child("rec-init"), "mean_pool")
    train(model, temporal_slices(layout_of(data.sessions), plan)[-1],
          train_config(epochs=25, l2=1e-4, seed=1))
    _, _, cloud_p10, _ = evaluate(model.embeddings, test, model.encoder_kind, model.gate)

    table = model.embeddings
    cfg = codec_config(n=8, k=16, tau=0.2, epochs=600, batch=256, seed=3)
    store, encoder, _ = train_codec(table, cfg)
    codes = harden(encoder, table)
    recon = reconstruct_table(store, codes)
    rel_mse = float(((recon - table) ** 2).sum() / (table ** 2).sum())
    _, _, device_p10, _ = evaluate(recon, test, "mean_pool", 0.5)
    elapsed = time.time() - t0

    assert rel_mse < 0.25
    assert device_p10 >= 0.85 * cloud_p10
    assert elapsed < 300
    report("3 codec fidelity",
           f"relMSE {rel_mse:.4f} < 0.25; device P@10 {device_p10:.4f} >= "
           f"0.85 x cloud {cloud_p10:.4f} (ratio {device_p10 / cloud_p10:.3f}); {elapsed:.0f}s")


def c4_config(strategy: str, out: str) -> ExperimentConfig:
    return ExperimentConfig(
        data="synth", slices="2:1:1:1:1", synth_vocab=300, synth_sessions=3000,
        synth_drift=0.25, synth_clusters=6, d=16, rec_epochs=20, l2=1e-4, tau=0.2,
        n=8, k=16, codec_epochs=300, codec_batch=256, strategy=strategy, r=10.0,
        mmd_samples=0, seed=11, timing="zero", out=out,
    )


def test_criterion_4_update_compression_quality(tmp_path):
    t0 = time.time()
    queue_cfg, full_cfg = (c4_config(s, str(tmp_path / s)) for s in ("queue", "full"))
    # the cloud trajectory does not depend on the update strategy: train it
    # once and replay it for both arms
    data = prepare_data(queue_cfg, Rng(queue_cfg.seed))
    trajectory = list(cloud_trajectory(queue_cfg, data))
    queue = replay(queue_cfg, data, trajectory).reports
    full = replay(full_cfg, data, trajectory).reports
    assert len(queue) == len(full) == 5
    ratios = [q.dev_p10 / f.dev_p10 for q, f in zip(queue[1:], full[1:])]
    elapsed = time.time() - t0
    assert all(r >= 0.90 for r in ratios), ratios
    assert elapsed < 600
    report("4 update-compression quality",
           f"queue r=10 vs full-retrain device P@10 ratios on slices 2-5: "
           f"{[f'{r:.3f}' for r in ratios]} (all >= 0.90); {elapsed:.0f}s")


def test_criterion_5_stack_queue_semantics():
    nk = 32
    beta = nk // 4
    queue = SlotLedger.fresh(nk, epoch=1)
    stack = SlotLedger.fresh(nk, epoch=1)
    for epoch in (2, 3, 4):
        queue = advance_ledger(queue, "queue", plan_slots(queue, "queue", beta), epoch)
        stack = advance_ledger(stack, "stack", plan_slots(stack, "stack", beta), epoch)
    assert sum(1 for e in queue.epochs if e == 1) == nk - 3 * beta == nk // 4
    assert sum(1 for e in stack.epochs if e == 1) == nk - beta

    queue_full = SlotLedger.fresh(nk, epoch=1)
    for epoch in range(2, 2 + math.ceil(nk / beta)):
        queue_full = advance_ledger(queue_full, "queue", plan_slots(queue_full, "queue", beta), epoch)
    assert sum(1 for e in queue_full.epochs if e == 1) == 0
    report("5 stack/queue semantics",
           f"after 3 updates at beta=nk/4: queue keeps {nk // 4} epoch-1 rows, "
           f"stack keeps {nk - beta}; queue clears all epoch-1 rows in {math.ceil(nk / beta)} updates")


def test_criterion_6_protocol_soundness(tmp_path):
    rng = Rng(606)
    checked = 0
    for trial in range(200):
        vocab = int(rng.integers(1, 120))
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 34))
        d = int(rng.integers(1, 24))
        beta = int(rng.integers(1, n * k + 1))
        strategy = ("full", "stack", "queue")[trial % 3]
        if strategy == "full":
            beta = n * k
        from odup.updater import UpdateDelta

        codes = integers(rng, 0, k, (vocab, n)).astype(np.int32)
        rows = rng.uniform((beta, d))
        slots = [int(s) for s in rng.sample(n * k, beta)]
        delta = UpdateDelta(int(rng.integers(1, 1000)), strategy, beta, rows, codes, slots)
        frame = encode_delta(delta, vocab=vocab, d=d, n=n, k=k)
        assert len(frame) == delta_bytes(vocab, n, k, d, beta)
        out = decode_delta(frame)
        assert same_delta(out, delta)
        assert encode_delta(out, vocab=vocab, d=d, n=n, k=k) == frame
        checked += 1
    assert checked == 200

    # single-bit corruption always rejected
    delta = decode_delta(frame)
    frame = bytearray(frame)
    rejections = 0
    for byte_idx in range(len(frame)):
        frame[byte_idx] ^= 0x04
        with pytest.raises(FrameError):
            decode_delta(bytes(frame))
        frame[byte_idx] ^= 0x04
        rejections += 1

    # 5-round simulation: ledgers bitwise equal after every applied delta
    cfg = ExperimentConfig(
        data="synth", slices="1:1:1:1:1", synth_vocab=120, synth_sessions=800,
        synth_drift=0.3, synth_clusters=6, d=8, rec_epochs=4, n=4, k=8,
        codec_epochs=40, codec_batch=64, strategy="queue", r=4.0,
        mmd_samples=0, seed=909, timing="zero", out=str(tmp_path / "sim"),
    )
    result = run_simulate(cfg)
    assert len(result.rounds) == 5
    for state in result.rounds:
        assert state.server_ledger == state.device_ledger
    report("6 protocol soundness",
           f"200 frames round-tripped bitwise with exact byte accounting; "
           f"{rejections} single-bit corruptions rejected; ledgers equal across 5 rounds")


def test_criterion_7_gradient_correctness():
    # recommender loss (softmax cross-entropy + L2) on a 4-item toy
    worst_rec = 0.0
    for kind in ("mean_pool", "last_gated"):
        model = init_model(4, 3, Rng(7).child("init"), kind)
        batch = whole_batch(dataset_of([([0], 2), ([1, 2], 0), ([0, 3, 3], 1), ([2], 3)]), 4)
        X = model.embeddings.copy()
        graw = model.gate_raw
        _, dX, dg = _loss_and_grads(padded_table(X), graw, kind, batch, 1e-3, True)

        def f(vec, kind=kind, batch=batch):
            table = vec[:-1].reshape(4, 3)
            ce, _, _ = _loss_and_grads(padded_table(table), vec[-1], kind, batch, 1e-3, True)
            return ce + 1e-3 * np.sum(table * table)  # dX carries the l2 term's gradient

        err = grad_check(f, np.concatenate([dX.ravel(), [dg]]),
                         np.concatenate([X.ravel(), [graw]]), h=1e-6)
        worst_rec = max(worst_rec, err)
    assert worst_rec <= 1e-4

    # codec MSE loss with Gumbel noise fixed to 0 on the toy instance
    from odup.codec import CodecEncoder, init_codec

    cfg = codec_config(n=2, k=4, seed=3)
    rng = Rng(11)
    store, enc = init_codec(cfg, 4, rng)
    X = rng.uniform((8, 4)) * 0.4 - 0.2
    G = np.zeros((8, cfg.n, cfg.k))
    shapes = [p.shape for p in enc.params()] + [store.rows.shape]
    sizes = [int(np.prod(s)) for s in shapes]

    def unflat(vec):
        parts, off = [], 0
        for s, sz in zip(shapes, sizes):
            parts.append(vec[off: off + sz].reshape(s))
            off += sz
        return parts

    def fc(vec):
        phi, b, pp, bp, rows = unflat(vec)
        e = CodecEncoder(cfg.n, cfg.k, phi, b, pp, bp)
        loss, _ = forward_backward(e, rows, X, G, cfg.tau)
        return loss

    point = np.concatenate([p.ravel() for p in enc.params() + [store.rows]])
    _, grads = forward_backward(enc, store.rows, X, G, cfg.tau)
    err_codec = grad_check(fc, np.concatenate([g.ravel() for g in grads]), point, h=1e-6)
    assert err_codec <= 1e-4
    report("7 gradient correctness",
           f"max rel errors vs central differences: recommender {worst_rec:.2e}, "
           f"codec {err_codec:.2e} (both <= 1e-4)")


def test_criterion_8_mmd_and_adaptive(calm_adaptive_run):
    rng = Rng(88)
    X = rng.uniform((80, 16))
    assert mmd2(X, X.copy(), 0, 0) <= 1e-12

    levels = (0.01, 0.05, 0.1, 0.5, 1.0)
    vals = [mmd2(X, X + normal(Rng(3), s, X.shape), 0, 2) for s in levels]
    assert all(a < b for a, b in zip(vals, vals[1:]))

    assert choose_ratio(0.5, 1e-6) == 21
    assert choose_ratio(50.0, 1e-6) == 5
    assert choose_ratio(200.0, 1e-6) == 5

    # adaptive mode on drift-free data: nothing ships after deployment
    _, result = calm_adaptive_run
    deploy_bytes = result.reports[0].delta_bytes
    assert deploy_bytes > 0
    assert all(r.delta_bytes == 0 for r in result.reports[1:])
    assert result.reports[-1].cum_bytes == deploy_bytes
    report("8 MMD/adaptive behavior",
           f"mmd2(X,X)=0; strictly increasing over noise levels {vals[0]:.4f}..{vals[-1]:.4f}; "
           f"choose_ratio(0.5)=21, saturates at 5; drift-free run shipped only the "
           f"{deploy_bytes}-byte deployment")


def test_criterion_9_determinism(tmp_path):
    def cfg(out):
        return ExperimentConfig(
            data="synth", slices="1:1:2", synth_vocab=120, synth_sessions=700,
            synth_drift=0.3, synth_clusters=6, d=16, rec_epochs=6, n=4, k=8,
            codec_epochs=60, codec_batch=64, strategy="queue", r=4.0,
            mmd_samples=0, seed=4242, timing="zero", out=out,
        )

    ra = run_simulate(cfg(str(tmp_path / "a")))
    rb = run_simulate(cfg(str(tmp_path / "b")))
    csv_a = (tmp_path / "a" / "report.csv").read_bytes()
    csv_b = (tmp_path / "b" / "report.csv").read_bytes()
    json_a = (tmp_path / "a" / "report.json").read_bytes()
    json_b = (tmp_path / "b" / "report.json").read_bytes()
    assert csv_a == csv_b
    assert json_a == json_b
    # frames are byte-identical too
    for t in (1, 2, 3):
        fa = (tmp_path / "a" / "frames" / f"round_{t:02d}.odup").read_bytes()
        fb = (tmp_path / "b" / "frames" / f"round_{t:02d}.odup").read_bytes()
        assert fa == fb
    report("9 determinism",
           f"identical config+seed reproduced byte-identical CSV ({len(csv_a)} B), "
           f"JSON ({len(json_a)} B), and all frames")
