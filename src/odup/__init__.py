"""Communication-efficient on-device model updates for session-based
recommenders: compositional-code embedding compression, stack/queue partial
updates with a shared slot ledger, MMD-adaptive update sizing, and a
bit-exact delta wire format.
"""

__version__ = "0.1.0"
