"""Exception types raised by the solvers and the experiment harness."""


class WestinvError(Exception):
    """Base class for all package-specific errors."""


class DegeneracyError(WestinvError):
    """The factor 1 - 2*kappa*p dropped below the admissible positivity floor."""


class NoConvergenceError(WestinvError):
    """The forward solver's Newton iteration did not meet its tolerance."""


class SingularOperatorError(WestinvError):
    """The elliptic operator is singular (pure Neumann conditions), or a
    step system is not positive definite."""


class RankDeficientError(WestinvError):
    """The basis Gram matrix is numerically singular."""


class DivergenceError(WestinvError):
    """An iterative scheme diverged (residual blew up)."""


class LinearSolveError(WestinvError):
    """The regularized normal equations are numerically singular."""


class ConfigError(WestinvError):
    """An experiment configuration violates the schema."""
