"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration problems (bad spec files,
mismatched grids) exit with 2, numerical failures (stability, rank,
recovery, truncation, and numpy's ``LinAlgError``) with 3, I/O with 4.
"""


class KreinStringError(Exception):
    """Base class for all package-specific failures."""


class SpecError(KreinStringError, ValueError):
    """Invalid string specification: bad values, counts, or file syntax."""


class GridError(KreinStringError, ValueError):
    """Incompatible or malformed time grids / waveforms."""


class StabilityError(KreinStringError, RuntimeError):
    """Time step too coarse for the stiffest mode (Nyquist or RK4 bound), or
    a modal phase nu_max T that overflows."""


class RankError(KreinStringError, RuntimeError):
    """Connector rank 0, or one so near the grid size that it passes the rank cap."""


class RecoveryError(KreinStringError, RuntimeError):
    """String recovery aborted; carries the failing step index."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class TruncationError(KreinStringError, RuntimeError):
    """Improper-integral truncation bound above the requested tolerance."""
