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

from .codec import CodebookStore, reconstruct_table, refine_codes
from .codec import harden, train_codec  # noqa: F401 (unused, but perfbench/spans.py wraps them here)
from .errors import LedgerDivergence, ProtocolError, StaleDeltaError

STRATEGIES = ("full", "stack", "queue")
LSQ_ALTERNATIONS = 8  # (ICM, least-squares slot rows) rounds per update before a last ICM


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


def advance_ledger(ledger: SlotLedger, strategy: str, slots: list[int], epoch: int) -> SlotLedger:
    """Shared server/device ledger transition: a new ledger with ``slots``
    re-inserted at ``epoch``, sequence numbers continuing past the current
    maximum in slot order; full updates reset it."""
    if epoch != ledger.current_epoch + 1:
        raise ValueError("ledger epochs must advance by exactly 1")
    if strategy == "full":
        return SlotLedger.fresh(ledger.nk, epoch)
    epochs = list(ledger.epochs)
    seqs = list(ledger.seqs)
    base = max(seqs)
    for j, row in enumerate(slots):
        epochs[row] = epoch
        seqs[row] = base + 1 + j
    return SlotLedger(epochs, seqs, epoch)


@dataclass
class UpdateDelta:
    """One update as the device receives it. The device holds float32 rows,
    so ``new_rows`` keeps only their float32 values (widened to float64):
    the wire carries them exactly, and a server that applies the delta
    holds the device's rows bit for bit."""

    epoch: int
    strategy: str            # "full" | "stack" | "queue"
    beta: int
    new_rows: np.ndarray     # (beta, d)
    codes: np.ndarray        # (|V|, n)
    replaced_slots: list[int]

    def __post_init__(self):
        with np.errstate(over="ignore"):
            self.new_rows = np.asarray(self.new_rows, dtype=np.float32).astype(np.float64)
        if not np.all(np.isfinite(self.new_rows)):
            raise ValueError("rows must be finite in float32")
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
    delta: UpdateDelta


def retrain_update(prev_store: CodebookStore, prev_codes: np.ndarray, new_target: np.ndarray,
                   slots: list[int], *, epoch: int, strategy: str) -> UpdateResult:
    """Refit the slot rows and codes to the new target in closed form and
    build the delta carrying the new codes plus the slot rows. As LSQ++
    (Martinez et al., ECCV 2018): from ``prev_codes``, LSQ_ALTERNATIONS
    times ICM (``refine_codes``), then least squares for the slot rows some
    item uses against the target minus every other row's contribution; then
    a last ICM. No step raises the error, up to rounding. Only used slot
    rows change, and ``prev_store`` is not written."""
    nk = prev_store.n * prev_store.k
    slot_set = set(int(s) for s in slots)
    if len(slot_set) != len(slots) or not slot_set <= set(range(nk)):
        raise ValueError("slots must be distinct row indices in [0, nk)")
    target, rows = np.asarray(new_target, dtype=np.float64), np.asarray(slots, dtype=np.intp)
    store, codes = prev_store.copy(), prev_codes
    for _ in range(LSQ_ALTERNATIONS):
        codes = refine_codes(store, codes, target)
        picks = codes[:, rows // store.k] == rows % store.k  # column j: the items using rows[j]
        used, A = rows[picks.any(axis=0)], picks[:, picks.any(axis=0)].astype(np.float64)
        others = target - reconstruct_table(store, codes) + A @ store.rows[used]
        store.rows[used] = np.linalg.lstsq(A, others, rcond=None)[0]
    codes = refine_codes(store, codes, target)
    delta = UpdateDelta(epoch, strategy, len(slots), store.rows[rows], codes, rows.tolist())
    return UpdateResult(store, delta)


def apply_delta(
    device_store: CodebookStore,
    device_ledger: SlotLedger,
    delta: UpdateDelta,
    *,
    expected_strategy: str,
) -> tuple[CodebookStore, SlotLedger, np.ndarray]:
    """Write the delta rows into their slots, advance the ledger, and
    reconstitute the embedding table from the delta's codes.

    Pure: returns new objects, so a failed validation leaves device state
    untouched. The caller checks that the delta's dimensions match the
    store (``DeviceSim.receive`` compares the frame header once). Raises
    StaleDeltaError on an epoch gap and LedgerDivergence when the slot list
    disagrees with the locally derived plan.
    """
    if delta.epoch != device_ledger.current_epoch + 1:
        raise StaleDeltaError(
            f"delta epoch {delta.epoch} does not follow device epoch {device_ledger.current_epoch}"
        )
    if delta.strategy not in ("full", expected_strategy):
        raise ProtocolError(
            f"delta strategy {delta.strategy!r} does not match session strategy {expected_strategy!r}"
        )
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
