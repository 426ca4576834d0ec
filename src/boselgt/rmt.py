"""Small-coupling limits that connect the one-bond value to Gaussian ensembles.

Two families of scalar functions of a peaking parameter, from log values:

  * w_ratio(beta, n): the one-bond integral w with inverse-coupling beta,
    either with the cosine action (2/beta) sum (1 - cos l) or the exact
    quadratic action |l|^2 / beta, over beta^{n^2/2}.  As beta -> 0 both
    w behave like beta^{n^2/2} * gue_norm(n) / cue_norm(n), so the ratio
    tends to gue_norm / cue_norm.

  * d2_free_energy(a, n, g_sq): per-retained-bond normalized log of the
    two-dimensional gauge value, ln z(c) + (n^2/2) ln c with c = 1/(a^2 g^2).
    As a -> 0 it tends to ln(gue_norm/cue_norm).

Both limits are checked against the Gaussian target computed independently
from the ensemble normalizations, never against each other.
"""

from dataclasses import dataclass
from math import inf

import numpy as np

from .errors import NumericError, UsageError
from .haar import cue_norm, gue_norm, peaked_cue_integral
from .lattice import coupling, require_positive
from .partition import exp_is_normal, z_single_bond

ACTIONS = ("cosine", "quadratic")


def cue_gue_target(n):
    """Limit value gue_norm(n) / cue_norm(n) of the normalized ratios."""
    return float(gue_norm(n) / cue_norm(n))


def w_ratio(beta, n, action="cosine"):
    """w(beta) / beta^{n^2/2} = exp(log w - (n^2/2) log beta) -> cue_gue_target(n).

    log w at inverse coupling beta > 0 is z_single_bond at c = 1/beta (cosine
    action) or peaked_cue_integral (quadratic).  NumericError naming beta
    when 1/beta overflows or the ratio is not a normal double.
    """
    require_positive(beta, "beta")
    if action not in ACTIONS:
        raise UsageError(f"action must be one of {ACTIONS}, got {action!r}")
    c = 1.0 / beta
    if c == inf:
        raise NumericError(f"coupling 1/beta overflows at beta = {beta}")
    if action == "cosine":
        log_w = z_single_bond(c, n, kind="U").log_value
    else:
        log_w = peaked_cue_integral(lambda lam: np.sum(lam * lam, axis=-1) / beta, n,
                                    peak_scale=c)
    log_ratio = log_w - (n * n / 2.0) * np.log(beta)
    if not exp_is_normal(log_ratio):
        raise NumericError(f"w / beta^(n^2/2) = exp({log_ratio:.6g}) is not a "
                           f"normal double at beta = {beta}")
    return float(np.exp(log_ratio))


def d2_free_energy(a, n=1, g_sq=1.0):
    """Normalized per-bond log value in two dimensions.

    f(a) = ln z(c) + (n^2/2) ln c at c = a^{-2}/g^2.  The additive term
    removes the leading power so the a -> 0 limit is finite.
    """
    c = coupling(a, g_sq, 2)
    return float(z_single_bond(c, n, kind="U").log_value + (n * n / 2.0) * np.log(c))


def d2_limit_target(n):
    """a -> 0 limit of d2_free_energy: ln(gue_norm/cue_norm)."""
    return float(np.log(cue_gue_target(n)))


@dataclass(frozen=True)
class LimitSweep:
    """Tabulated approach of a normalized quantity to its limit target."""

    parameter: str          # column name of the swept variable
    values: tuple           # swept parameter values
    results: tuple          # computed quantity per value
    target: float           # common limit target

    def rows(self):
        """Rows (parameter, value, target, abs_err) for CSV emission."""
        return [(v, r, self.target, abs(r - self.target))
                for v, r in zip(self.values, self.results)]


def sweep_cue_gue(betas, n, action="cosine"):
    vals = [float(b) for b in betas]
    results = [w_ratio(b, n, action=action) for b in vals]
    return LimitSweep(parameter="beta", values=tuple(vals),
                      results=tuple(results), target=cue_gue_target(n))


def sweep_d2_limit(a_values, n=1, g_sq=1.0):
    vals = [float(a) for a in a_values]
    results = [d2_free_energy(a, n=n, g_sq=g_sq) for a in vals]
    return LimitSweep(parameter="a", values=tuple(vals),
                      results=tuple(results), target=d2_limit_target(n))
