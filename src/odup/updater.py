"""Stack/queue update compression for the codebook store.

A SlotLedger records, for every store row, the epoch and sequence number of
its last insertion. Server and device hold mirror ledgers, so both sides
derive the same replacement plan: the stack strategy replaces the most
recently inserted rows (LIFO; early knowledge is preserved), the queue
strategy the oldest (FIFO; everything eventually turns over). A full update
replaces every row and resets the ledger.

On a fresh ledger the "top of the stack" is the block of highest row
indices; this orientation is part of the wire protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codec import CodebookStore, CodecConfig, CodecEncoder, harden, reconstruct_table, train_codec
from .errors import DimensionMismatch, LedgerDivergence, ProtocolError, StaleDeltaError

STRATEGIES = ("full", "stack", "queue")


@dataclass
class SlotLedger:
    epochs: list[int]        # per-row insertion epoch
    seqs: list[int]          # per-row insertion sequence (unique)
    current_epoch: int

    @property
    def nk(self) -> int:
        return len(self.epochs)

    @staticmethod
    def fresh(nk: int, epoch: int = 1) -> "SlotLedger":
        return SlotLedger([epoch] * nk, list(range(nk)), epoch)

    def advance(self, slots: list[int], epoch: int) -> "SlotLedger":
        """New ledger with ``slots`` re-inserted at ``epoch``; sequence
        numbers continue past the current maximum, in slot order."""
        if epoch != self.current_epoch + 1:
            raise ValueError("ledger epochs must advance by exactly 1")
        epochs = list(self.epochs)
        seqs = list(self.seqs)
        base = max(seqs)
        for j, row in enumerate(slots):
            epochs[row] = epoch
            seqs[row] = base + 1 + j
        return SlotLedger(epochs, seqs, epoch)


def advance_ledger(ledger: SlotLedger, strategy: str, slots: list[int], epoch: int) -> SlotLedger:
    """Shared server/device ledger transition; full updates reset it."""
    if strategy == "full":
        return SlotLedger.fresh(ledger.nk, epoch)
    return ledger.advance(slots, epoch)


@dataclass
class UpdateDelta:
    epoch: int
    strategy: str            # "full" | "stack" | "queue"
    beta: int
    new_rows: np.ndarray     # (beta, d)
    codes: np.ndarray        # (|V|, n)
    replaced_slots: list[int]

    def __post_init__(self):
        self.new_rows = np.asarray(self.new_rows, dtype=np.float64)
        self.codes = np.asarray(self.codes)
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not (self.beta == len(self.replaced_slots) == self.new_rows.shape[0] >= 1):
            raise ValueError("beta must equal the slot and row counts and be >= 1")

    def __eq__(self, other) -> bool:
        if not isinstance(other, UpdateDelta):
            return NotImplemented
        return (
            self.epoch == other.epoch
            and self.strategy == other.strategy
            and self.beta == other.beta
            and self.replaced_slots == other.replaced_slots
            and np.array_equal(self.new_rows, other.new_rows)
            and np.array_equal(self.codes, other.codes)
        )


def plan_slots(ledger: SlotLedger, strategy: str, beta: int) -> list[int]:
    """Rows a delta of size beta will replace, in replacement order
    (ascending insertion sequence of the chosen rows).

    stack: the beta most recently inserted rows; queue: the beta oldest.
    """
    nk = ledger.nk
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not 1 <= beta <= nk:
        raise ValueError(f"beta must lie in [1, {nk}]")
    if strategy == "full":
        if beta != nk:
            raise ValueError("full strategy replaces all nk rows")
        return list(range(nk))
    by_seq = sorted(range(nk), key=lambda r: ledger.seqs[r])
    return by_seq[-beta:] if strategy == "stack" else by_seq[:beta]


def beta_from_ratio(n: int, k: int, r: float) -> int:
    """beta = floor(nk / r), clamped into [1, nk]."""
    if r < 1:
        raise ValueError("update compression ratio must be >= 1")
    nk = n * k
    return min(nk, max(1, math.floor(nk / r)))


@dataclass
class UpdateResult:
    store: CodebookStore
    encoder: CodecEncoder
    codes: np.ndarray
    delta: UpdateDelta
    losses: list[float]


def retrain_update(
    prev_store: CodebookStore,
    prev_encoder: CodecEncoder,
    new_target: np.ndarray,
    slots: list[int],
    cfg: CodecConfig,
    *,
    epoch: int,
    strategy: str,
) -> UpdateResult:
    """Retrain only the slot rows (everything else frozen, warm-started from
    the previous state) against the new target table, and build the delta
    carrying the new codes plus the retrained rows."""
    nk = cfg.nk
    slot_set = set(int(s) for s in slots)
    if len(slot_set) != len(slots) or not slot_set <= set(range(nk)):
        raise ValueError("slots must be distinct row indices in [0, nk)")
    frozen = sorted(set(range(nk)) - slot_set)
    store, enc, losses = train_codec(new_target, cfg, frozen_rows=frozen, warm=(prev_store, prev_encoder))
    codes = harden(enc, new_target)
    delta = UpdateDelta(
        epoch=epoch,
        strategy=strategy,
        beta=len(slots),
        new_rows=store.rows[list(slots)].copy(),
        codes=codes,
        replaced_slots=[int(s) for s in slots],
    )
    return UpdateResult(store, enc, codes, delta, losses)


def apply_delta(
    device_store: CodebookStore,
    device_ledger: SlotLedger,
    delta: UpdateDelta,
    *,
    expected_strategy: str | None = None,
) -> tuple[CodebookStore, SlotLedger, np.ndarray]:
    """Write the delta rows into their slots, advance the ledger, and
    reconstitute the embedding table from the delta's codes.

    Pure: returns new objects, so a failed validation leaves device state
    untouched. Raises StaleDeltaError on an epoch gap, DimensionMismatch
    when the codes, beta or rows do not fit the device store, and
    LedgerDivergence when the slot list disagrees with the locally derived
    plan.
    """
    if delta.epoch != device_ledger.current_epoch + 1:
        raise StaleDeltaError(
            f"delta epoch {delta.epoch} does not follow device epoch {device_ledger.current_epoch}"
        )
    if expected_strategy is not None and delta.strategy not in ("full", expected_strategy):
        raise ProtocolError(
            f"delta strategy {delta.strategy!r} does not match session strategy {expected_strategy!r}"
        )
    n, k = device_store.n, device_store.k
    if delta.codes.ndim != 2 or delta.codes.shape[1] != n:
        raise DimensionMismatch(f"delta codes have shape {delta.codes.shape}, device store has n = {n}")
    if delta.codes.size and delta.codes.max() >= k:
        raise DimensionMismatch(f"delta code value {delta.codes.max()} >= device store k = {k}")
    if delta.beta > n * k:
        raise DimensionMismatch(f"delta beta {delta.beta} exceeds device store nk = {n * k}")
    if delta.new_rows.shape[1] != device_store.d:
        raise DimensionMismatch("delta row dimension does not match device store")
    expected_slots = plan_slots(device_ledger, delta.strategy, delta.beta)
    if list(delta.replaced_slots) != expected_slots:
        raise LedgerDivergence(
            f"delta slots {delta.replaced_slots} disagree with local plan {expected_slots}"
        )
    rows = device_store.rows.copy()
    rows[delta.replaced_slots] = delta.new_rows
    new_store = CodebookStore(device_store.n, device_store.k, device_store.d, rows)
    new_ledger = advance_ledger(device_ledger, delta.strategy, delta.replaced_slots, delta.epoch)
    table = reconstruct_table(new_store, delta.codes)
    return new_store, new_ledger, table


def update_cr(n: int, k: int, d: int, vocab: int, beta: int) -> float:
    """Update compression ratio (nkd + n|V|) / (beta*d + n|V|)."""
    if min(n, k, d, vocab, beta) < 1:
        raise ValueError("all arguments must be positive")
    return (n * k * d + n * vocab) / (beta * d + n * vocab)


def end_to_end_cr(vocab: int, d: int, n: int, beta: int) -> float:
    """Ratio of shipping the raw table to shipping a delta:
    1 / (beta/|V| + n/d); equals model_cr * update_cr."""
    if min(vocab, d, n, beta) < 1:
        raise ValueError("all arguments must be positive")
    return 1.0 / (beta / vocab + n / d)
