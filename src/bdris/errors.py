"""Exception types shared across the package."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but has no meaningful answer (e.g. all-zero matrix)."""


class SingularNetworkError(ValueError):
    """A network matrix is singular or too ill-conditioned to invert reliably."""


class DegenerateChannelError(RuntimeError):
    """A fading draw produced a rank-deficient channel matrix; the trial must be redrawn."""


class ConfigError(ValueError):
    """An experiment configuration violates a documented invariant."""


class RedrawBudgetError(RuntimeError):
    """A grid point redrew more of its trials than the redraw budget allows."""
