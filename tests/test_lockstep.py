"""Server/device lockstep under a lossy, reordering, corrupting channel.

A state machine deploys two ``DeviceSim`` replicas, the device and the
server's, with one full frame, then drives them through updates of random
strategy and beta with unrounded float64 rows. Frames may be dropped (never
delivered), replayed, delivered out of order or delivered with one bit
flipped. The server applies a delta to its replica once the device accepts
its frame, so after every step the two hold equal ledgers and bit-equal
store rows, codes and tables; a frame the device rejects raises a
ProtocolError and leaves the device's store, ledger, codes and table the
very objects they were.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from odup import wire
from odup.errors import ProtocolError
from odup.numkit import Rng
from odup.pipeline import DeviceSim
from odup.updater import STRATEGIES, UpdateDelta, plan_slots

from helpers import integers, normal

VOCAB, N, K, D = 6, 2, 4, 3
NK = N * K
FIELDS = ("store", "ledger", "codes", "table")


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_delta(epoch: int, strategy: str, slots: list[int], seed: int) -> UpdateDelta:
    rng = Rng(seed)
    return UpdateDelta(epoch, strategy, len(slots), normal(rng, 1.0, (len(slots), D)),
                       integers(rng, 0, K, (VOCAB, N)), slots)


class Lockstep(RuleBasedStateMachine):

    @initialize(strategy=st.sampled_from(STRATEGIES), seed=st.integers(0, 2**32 - 1))
    def deploy_session(self, strategy, seed):
        self.device = DeviceSim(strategy, "mean_pool", 0.5)
        self.server = DeviceSim(strategy, "mean_pool", 0.5)
        self.sent: list[tuple[bytes, UpdateDelta]] = []  # every frame the server built, in order
        delta = random_delta(1, "full", list(range(NK)), seed)
        self.sent.append((wire.encode_delta(delta, vocab=VOCAB, d=D, n=N, k=K), delta))
        self.device.receive(self.sent[0][0])
        self.server.apply(delta)

    @rule(strategy=st.sampled_from(STRATEGIES), beta=st.integers(1, NK), seed=st.integers(0, 2**32 - 1))
    def build(self, strategy, beta, seed):
        """The server builds the next epoch's frame from its replica, in any
        strategy (one that is neither full nor the session's is rejected).
        Until a frame is delivered the replica stays, so frames built
        meanwhile share an epoch; one never delivered is a dropped frame or
        a skipped round."""
        slots = plan_slots(self.server.ledger, strategy, NK if strategy == "full" else beta)
        delta = random_delta(self.server.epoch + 1, strategy, slots, seed)
        self.sent.append((wire.encode_delta(delta, vocab=VOCAB, d=D, n=N, k=K), delta))

    @rule(data=st.data(), flip=st.booleans())
    def deliver(self, data, flip):
        """Deliver any frame built so far: the newest, an older one (a
        replay or a reordering), possibly with one bit flipped."""
        frame, delta = self.sent[data.draw(st.integers(0, len(self.sent) - 1))]
        if flip:
            bit = data.draw(st.integers(0, 8 * len(frame) - 1))
            frame = bytearray(frame)
            frame[bit // 8] ^= 1 << (bit % 8)
        before = [getattr(self.device, f) for f in FIELDS]
        try:
            self.device.receive(bytes(frame))
        except ProtocolError:
            assert all(getattr(self.device, f) is b for f, b in zip(FIELDS, before))
            return
        assert not flip, "a frame with a flipped bit was accepted"
        self.server.apply(delta)

    @invariant()
    def in_lockstep(self):
        assert self.device.ledger == self.server.ledger
        assert same_bits(self.device.store.rows, self.server.store.rows)
        assert same_bits(self.device.table, self.server.table)
        # the hand-built deltas hold int64 codes; the device decodes int32
        assert np.array_equal(self.device.codes, self.server.codes)


TestLockstep = Lockstep.TestCase
TestLockstep.settings = settings(max_examples=100, stateful_step_count=30, deadline=None)
