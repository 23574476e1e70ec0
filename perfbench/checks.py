"""Correctness checks the benchmark runs outside its timed regions.

Each check returns a list of failure strings (empty when it holds), so a
caller can count the operations (rounds or frames) that failed any check.
"""

from __future__ import annotations

import numpy as np

from odup import pipeline, wire
from odup.codec import CodebookStore, reconstruct_table
from odup.errors import ProtocolError


def bits(a: np.ndarray) -> np.ndarray:
    """View a float64 array as its bit patterns, so equality is bitwise."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def narrowed(store: CodebookStore) -> CodebookStore:
    """The store as the device holds it: rows narrowed to float32 and back."""
    return CodebookStore(store.n, store.k, store.d,
                         store.rows.astype(np.float32).astype(np.float64))


def check_frame_size(frame: bytes, vocab: int, n: int, k: int, d: int, beta: int) -> list[str]:
    expected = wire.delta_bytes(vocab, n, k, d, beta)
    return [] if expected == len(frame) else [f"delta_bytes {expected} != len(frame) {len(frame)}"]


def check_ledgers(server, device) -> list[str]:
    return [] if server == device else ["server and device ledgers differ"]


def check_device_table(device_table: np.ndarray, server_store: CodebookStore,
                       codes: np.ndarray, items=None) -> list[str]:
    """Device table rows equal reconstruct_table of the narrowed server store,
    bit for bit; ``items`` restricts the comparison to a subset of rows."""
    if items is not None:
        codes, device_table = codes[items], device_table[items]
    expected = reconstruct_table(narrowed(server_store), codes)
    if bitwise_equal(device_table, expected):
        return []
    return ["device table differs from the server reconstruction"]


def check_frozen_rows(before: np.ndarray, after: np.ndarray, slots) -> list[str]:
    """Rows outside ``slots`` are bitwise unchanged between two stores."""
    keep = np.ones(before.shape[0], dtype=bool)
    keep[list(slots)] = False
    return [] if bitwise_equal(before[keep], after[keep]) else ["a frozen codebook row changed"]


class ServerTap:
    """Keeps references to the server stores ``run_simulate`` produces.

    It replaces ``odup.pipeline.train_codec`` and ``retrain_update`` with
    pass-through functions that remember their inputs and results. It reads
    no clock, and the program never mutates a store it has returned, so
    holding references costs nothing inside the timed run.
    """

    def __init__(self):
        self.deploy_store: CodebookStore | None = None
        self.updates: list[tuple[CodebookStore, list[int], CodebookStore]] = []
        self._saved: list[tuple[str, object]] = []

    def __enter__(self) -> "ServerTap":
        train_codec, retrain_update = pipeline.train_codec, pipeline.retrain_update

        def tap_train_codec(*args, **kwargs):
            out = train_codec(*args, **kwargs)
            self.deploy_store = out[0]
            return out

        def tap_retrain_update(prev_store, prev_encoder, new_target, slots, *args, **kwargs):
            out = retrain_update(prev_store, prev_encoder, new_target, slots, *args, **kwargs)
            self.updates.append((prev_store, list(slots), out.store))
            return out

        self._saved = [("train_codec", train_codec), ("retrain_update", retrain_update)]
        pipeline.train_codec = tap_train_codec
        pipeline.retrain_update = tap_retrain_update
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved:
            setattr(pipeline, name, fn)


def check_simulation(cfg, result, tap: ServerTap, data, frames_on_disk: dict[int, bytes]):
    """Per-round failures of one ``run_simulate`` result.

    Replays the frames saved on disk through a fresh DeviceSim and checks,
    for every round: ledger lockstep, exact frame size, the saved frame
    matches the in-memory one, device table bits against the narrowed
    server store, frozen rows across retrain_update, and the reported
    dev_p10 reproduced by the replayed device.
    """
    failures: list[list[str]] = []
    replay = pipeline.DeviceSim(cfg.strategy, cfg.encoder, 0.5)
    updates = iter(tap.updates)
    server_store = tap.deploy_store
    for state in result.rounds:
        rep, errs = state.report, []
        errs += check_ledgers(state.server_ledger, state.device_ledger)
        frame = frames_on_disk.get(rep.slice)
        if (frame is None) != (state.frame is None) or (frame is not None and frame != state.frame):
            errs.append("saved frame differs from the shipped frame")
        if frame is not None:
            if rep.slice > 1:
                try:
                    before, slots, server_store = next(updates)
                except StopIteration:
                    errs.append("no retrain_update recorded for a shipped round")
                    failures.append(errs)
                    continue
                errs += check_frozen_rows(before.rows, server_store.rows, slots)
            errs += check_frame_size(frame, data.vocab_size, cfg.n, cfg.k, cfg.d, rep.beta)
            try:
                delta = replay.receive(frame)
            except ProtocolError as exc:
                errs.append(f"replayed frame rejected: {type(exc).__name__}: {exc}")
            else:
                errs += check_device_table(replay.table, server_store, delta.codes)
        errs += check_ledgers(state.server_ledger, replay.ledger)
        if replay.table is None:
            errs.append("replayed device was never deployed")
        elif replay.metrics(data.test)[2] != rep.dev_p10:
            errs.append("replayed device does not reproduce dev_p10")
        failures.append(errs)
    return failures
