"""Shared exception types.

The command line front end maps these onto exit codes: bad arguments or
unsupported parameter ranges give exit code 2, numerical failures (quadrature
that does not converge, a quadratic form that is not positive definite, a
Monte Carlo mean below the smallest one reported) give exit code 3.
"""


class UsageError(ValueError):
    """A parameter is outside the supported range, with the range named."""


class NumericError(RuntimeError):
    """Base class for failures of the numerical machinery itself."""


class QuadratureError(NumericError):
    """Quadrature did not reach the requested tolerance.

    Carries the tolerance actually achieved so callers can decide whether
    the value is still usable.
    """

    def __init__(self, message, achieved_tol):
        super().__init__(f"{message} (achieved relative tolerance {achieved_tol:.3e})")
        self.achieved_tol = achieved_tol


class NotPositiveDefiniteError(NumericError):
    """A quadratic form expected to be positive definite is not.

    smallest_pivot is the first pivot of the Cholesky factorisation that
    LAPACK found not positive, or the exact smallest eigenvalue where a
    closed form gives it (identity bonds), so the caller can see that, and
    roughly how far, the form is from positive.
    """

    def __init__(self, message, smallest_pivot):
        super().__init__(f"{message} (smallest pivot {smallest_pivot:.6e})")
        self.smallest_pivot = smallest_pivot
