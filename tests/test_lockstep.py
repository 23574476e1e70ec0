"""Server/device lockstep under a lossy, reordering, corrupting channel.

A state machine drives a server ``(store, ledger)`` and a ``DeviceSim``
through updates of random strategy and beta with unrounded float64 rows.
Frames may be dropped (never delivered), replayed, delivered out of order
or delivered with one bit flipped. The server advances its mirror with the
device's own ``apply_delta`` once the device accepts a frame, so after
every step server and device hold bitwise-equal ledgers, stores and tables;
a frame the device rejects raises a ProtocolError and leaves the device's
store, ledger and table the very objects they were.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from odup import wire
from odup.codec import CodebookStore
from odup.errors import ProtocolError
from odup.numkit import Rng
from odup.pipeline import DeviceSim
from odup.updater import STRATEGIES, SlotLedger, UpdateDelta, apply_delta, plan_slots

VOCAB, N, K, D = 6, 2, 4, 3
NK = N * K


def same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class Lockstep(RuleBasedStateMachine):

    @initialize(strategy=st.sampled_from(STRATEGIES))
    def deploy_session(self, strategy):
        self.strategy = strategy
        self.device = DeviceSim(strategy, "mean_pool", 0.5)
        self.store = CodebookStore(N, K, D, np.zeros((NK, D)))
        self.ledger = SlotLedger.fresh(NK, epoch=0)
        self.table = None
        self.sent: list[tuple[bytes, UpdateDelta]] = []  # every frame the server built, in order

    @rule(strategy=st.sampled_from(STRATEGIES), beta=st.integers(1, NK), seed=st.integers(0, 2**32 - 1))
    def build(self, strategy, beta, seed):
        """The server builds the next epoch's frame from its mirror, in any
        strategy (one that is neither full nor the session's is rejected).
        Until a frame is delivered the mirror stays, so frames built
        meanwhile share an epoch; one never delivered is a dropped frame or
        a skipped round."""
        beta = NK if strategy == "full" else beta
        rng = Rng(seed)
        slots = plan_slots(self.ledger, strategy, beta)
        delta = UpdateDelta(self.ledger.current_epoch + 1, strategy, beta, rng.normal(1.0, (beta, D)),
                            rng.integers(0, K, (VOCAB, N)), slots)
        self.sent.append((wire.encode_delta(delta, vocab=VOCAB, d=D, n=N, k=K), delta))

    @precondition(lambda self: self.sent)
    @rule(data=st.data(), flip=st.booleans())
    def deliver(self, data, flip):
        """Deliver any frame built so far: the newest, an older one (a
        replay or a reordering), possibly with one bit flipped."""
        frame, delta = self.sent[data.draw(st.integers(0, len(self.sent) - 1))]
        if flip:
            bit = data.draw(st.integers(0, 8 * len(frame) - 1))
            frame = bytearray(frame)
            frame[bit // 8] ^= 1 << (bit % 8)
        before = (self.device.store, self.device.ledger, self.device.table)
        try:
            self.device.receive(bytes(frame))
        except ProtocolError:
            after = (self.device.store, self.device.ledger, self.device.table)
            assert all(a is b for a, b in zip(after, before))
            return
        assert not flip, "a frame with a flipped bit was accepted"
        self.store, self.ledger, self.table = apply_delta(
            self.store, self.ledger, delta, expected_strategy=self.strategy
        )

    @invariant()
    def in_lockstep(self):
        assert self.device.ledger == (None if self.table is None else self.ledger)
        assert same_bits(self.device.table, self.table)
        if self.table is not None:
            assert same_bits(self.device.store.rows, self.store.rows)


TestLockstep = Lockstep.TestCase
TestLockstep.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
