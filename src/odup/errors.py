"""Exception types shared across the package.

``odup.cli.EXIT_CODES`` maps these onto exit codes: ConfigError -> 2,
DataError -> 3, TrainingDiverged -> 4, ProtocolError (and subclasses) -> 5.
"""


class ConfigError(Exception):
    """Unusable configuration or command-line usage."""


class DataError(Exception):
    """Unusable input data (empty, malformed, or corrupt files)."""


class TrainingDiverged(Exception):
    """A training loss became non-finite."""


class ProtocolError(Exception):
    """Server/device update protocol violation."""


class StaleDeltaError(ProtocolError):
    """Delta epoch does not follow the device's current epoch."""


class LedgerDivergence(ProtocolError):
    """Server and device disagree about which slots a delta replaces."""


class DimensionMismatch(ProtocolError):
    """A frame header's (vocab, n, k, d) differ from the device's deployment."""


class FrameError(ProtocolError):
    """A wire frame failed validation; ``check`` names the failed check."""

    def __init__(self, check: str, message: str):
        super().__init__(f"{check}: {message}")
        self.check = check
