"""Volume-rate bounds on the partition values and their verification.

Everything here works with free-energy-like rates: a bound of the shape
lower^Lambda <= Z <= upper^Lambda is checked in log form, with Lambda the
appropriate count (sites for the Bose sector, retained bonds for the gauge
sector).  The Bose rates are

    0  <=  log Z_B / Lambda_s  <=  N (1 - 1/L) (ln 2) / 2      (real fields)

with the upper rate doubled for complex fields.  The gauge rates sandwich
the scaled one-bond value and are uniform in the lattice spacing a in (0,1]
and in g^2 <= g0^2:

    U(N):  lower = ln[ (4/pi^2)^{N(N-1)/2} (8N(d-1))^{-N^2/2}
                       * I(sqrt(8N(d-1)/g0^2) pi/2) / cue_norm ]
           upper = ln[ (pi/(2 sqrt 2))^{N^2} * I(inf) ]
    SU(2): from the radial construction, exponent 3 = dim SU(2)

with I the truncated Gaussian Vandermonde integral (gue_integral gives
ln I) and I(inf) = gue_norm(N).  The upper constants are not the sharpest available,
but they are valid and are the ones asserted.

Monte Carlo verdicts use a three-sigma window: pass when the window lies
inside the bounds, fail when it lies strictly outside, inconclusive when it
straddles a boundary.  The window's sigma_log is the relative standard
error of the unscaled Monte Carlo mean; it does not change under the gauge
scale s_Y^{d(N) Lr}, which only shifts the log value.  Deterministic
verdicts use a relative tolerance of 1e-8 on the log scale.

Pointwise inequalities are checked on random draws by sampled_checks: a
comparison's slack is its bound minus the checked quantity, a slack below 0
is a violation, and the worst margin is the smallest slack.  Where a slack
can fall below 0 by round-off alone (the U(1) plaquette bound at tiny
angles), each negative slack is recomputed exactly and only an exact slack
below 0 is a violation; mpmath is imported there, for those draws only.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import mc
from .actions import PlaquettePlan, plaquette_actions
from .errors import UsageError
from .haar import (angle_norm_sq, check_group, cue_density, cue_density_vandermonde,
                   cue_norm, gue_density, gue_integral, gue_norm, haar_sample)
from .lattice import Lattice, check_dimension, require_positive
from .partition import Estimate, log_z_bose, z_wilson_d2_exact, z_wilson_mc
from .su2 import su2_bound_constants, su2_haar_density
# su2_haar, z_single_bond, bose_quadratic_form and logdet_posdef are not
# called here: perfbench/spans.py rebinds them in this module, and its
# Tracer.rebind fails on a missing name.
from .partition import bose_quadratic_form, logdet_posdef, z_single_bond
from .su2 import su2_haar

DETERMINISTIC_LOG_RTOL = 1e-8
BOSE_BLOCK_SIZE = 32  # configurations per draw window of the Bose check


# --------------------------------------------------------------- constants

def group_dim(kind, n):
    """Real dimension d(N) of the group: N^2 for U(N), N^2 - 1 for SU(N).

    It is the exponent of the gauge scale per retained bond, s_Y^{d(N) Lr}.
    """
    check_group(kind, n)
    return n * n if kind == "U" else n * n - 1


def bose_upper_rate(n, L, field_kind="real"):
    """Per-site log upper bound for the Bose value, N(1 - 1/L) ln(2)/2.

    The chain construction behind it gives a per-bond factor 2^{N/2} for
    real fields and 2^N for complex ones, hence the doubling.
    """
    rate = n * (1.0 - 1.0 / L) * np.log(2.0) / 2.0
    return float(2.0 * rate) if field_kind == "complex" else float(rate)


def gauge_rate_bounds(kind, n, d, g0_sq=4.0):
    """(lower, upper) log bounds for the scaled one-bond gauge value.

    Uniform over a in (0, 1] and 0 < g^2 <= g0^2.  U(N) holds for every N;
    SU is available for N = 2 only.
    """
    check_group(kind, n)
    check_dimension(d)
    require_positive(g0_sq, "g0^2")
    if kind == "SU":
        if n != 2:
            raise UsageError("gauge bound constants for SU(N) exist only for N = 2")
        lo, up = su2_bound_constants(d, g0_sq)
        return float(np.log(lo)), float(np.log(up))
    upper = n * n * np.log(np.pi / (2.0 * np.sqrt(2.0))) + np.log(gue_norm(n))
    alpha0 = 8.0 * n * (d - 1) / g0_sq  # smallest admissible peak scale
    lower = (-np.log(cue_norm(n))
             + (n * (n - 1) / 2.0) * np.log(4.0 / np.pi**2)
             - (n * n / 2.0) * np.log(8.0 * n * (d - 1))
             + gue_integral(np.sqrt(alpha0) * np.pi / 2.0, n))
    return float(lower), float(upper)


@dataclass(frozen=True)
class BoundConstants:
    """All rates for one parameter set, plus the combined full-model rates."""

    bose_lower: float
    bose_upper: float
    gauge_lower: float
    gauge_upper: float

    @classmethod
    def for_params(cls, params):
        g_lo, g_up = gauge_rate_bounds(params.kind, params.n, params.d, params.g0_sq)
        return cls(
            bose_lower=0.0,
            bose_upper=bose_upper_rate(params.n, params.L, params.field_kind),
            gauge_lower=g_lo, gauge_upper=g_up)

    def combined_rates(self, lattice):
        """Exact per-site rates for the full model on this lattice.

        (lower, upper) with upper = bose_upper + gauge_upper * Lr/Ls and the
        same shape for lower (whose Bose part is 0), with Lr =
        lattice.n_retained.
        """
        ratio = lattice.n_retained / lattice.n_sites
        return (self.bose_lower + self.gauge_lower * ratio,
                self.bose_upper + self.gauge_upper * ratio)


# ----------------------------------------------------------------- reports

@dataclass(frozen=True)
class BoundReport:
    """Verdict on log_lower <= log of a quantity <= log_upper."""

    name: str
    log_value: float
    log_lower: float
    log_upper: float
    std_error_log: float = 0.0
    n_samples: int = 0
    method: str = "exact-determinant"

    @property
    def verdict(self):
        if self.std_error_log == 0.0:
            tol = DETERMINISTIC_LOG_RTOL * max(
                1.0, abs(self.log_lower), abs(self.log_upper))
            ok = self.log_lower - tol <= self.log_value <= self.log_upper + tol
            return "pass" if ok else "fail"
        window = 3.0 * self.std_error_log
        if (self.log_value - window >= self.log_lower
                and self.log_value + window <= self.log_upper):
            return "pass"
        if (self.log_value + window < self.log_lower
                or self.log_value - window > self.log_upper):
            return "fail"
        return "inconclusive"


def _report_from_estimate(name, est, log_lower, log_upper):
    return BoundReport(
        name=name, log_value=est.log_value,
        log_lower=float(log_lower), log_upper=float(log_upper),
        std_error_log=est.std_error_log,
        n_samples=est.n_samples, method=est.method)


def _gauge_scaled(params, est):
    """est times the gauge scale s_Y^{d(N) Lr}: a shift of log_value only."""
    log_scale = (group_dim(params.kind, params.n) * params.lattice.n_retained
                 * np.log(params.scaling.gauge_scale))
    return replace(est, log_value=est.log_value + log_scale)


# ------------------------------------------------------- sampled checks

@dataclass(frozen=True)
class SampledBoundCheck:
    """Zero-violation check of inequalities over random draws.

    violations counts the slacks (bound minus checked quantity) below 0;
    worst_margin is the smallest slack, in the units of the compared
    quantity (log Z_B for the Bose check).  recounted is None for a check
    without an exact route; otherwise it counts the draws whose float slack
    was below 0 but whose exact slack is not (round-off, not violations).
    """

    name: str
    n_samples: int
    violations: int
    worst_margin: float
    recounted: int | None = None

    @property
    def passed(self):
        return self.violations == 0


def sampled_checks(slack_block, n_samples, seed, n_workers=1,
                   block_size=mc.DEFAULT_BLOCK_SIZE):
    """{name: SampledBoundCheck} from slack_block(rng, count) -> {name: slacks}.

    slacks lists one array per comparison, or a pair (array, exact) for a
    comparison with an exact route: exact(draws) recomputes the slacks of
    the listed draws, and replaces each float slack below 0 before counting
    (the replaced ones that are >= 0 are the check's recount).  Each block
    reduces to its count, smallest slack (nan if any slack is nan) and
    recount before blocks merge.
    """
    def reduced(rng, count):
        out = {}
        for name, slacks in slack_block(rng, count).items():
            recounted, arrays = None, []
            for s in slacks:
                if isinstance(s, tuple):
                    s, exact = s
                    wrong = np.flatnonzero(s < 0.0)
                    if wrong.size:
                        s[wrong] = exact(wrong)
                    recounted = (recounted or 0) + int(np.count_nonzero(s[wrong] >= 0.0))
                arrays.append(s)
            out[name] = (sum(int(np.count_nonzero(s < 0.0)) for s in arrays),
                         np.min([np.min(s, initial=np.inf) for s in arrays]), recounted)
        return out

    parts = mc.map_blocks(reduced, n_samples, seed,
                          n_workers=n_workers, block_size=block_size)
    return {name: SampledBoundCheck(
                name=name, n_samples=n_samples,
                violations=sum(p[name][0] for p in parts),
                worst_margin=float(np.min([p[name][1] for p in parts])),
                recounted=(None if parts[0][name][2] is None
                           else sum(p[name][2] for p in parts)))
            for name in parts[0]}


# --------------------------------------------------- Bose sector verifier

def verify_bose_bounds(params, n_configs, seed, n_workers=1):
    """Check 1 <= Z_B(g) <= e^{n_f rate n_sites} and det Q <= 1 on random gauges.

    Z_B for n_f flavors is the n_f-th power of the one-flavor value, so the
    one-flavor cap rate * n_sites is multiplied by n_f.  The slack of a
    configuration is min(log Z_B, log cap - log Z_B), so a configuration
    violating any of the three inequalities counts once.  Each block takes
    log Z_B of one haar_sample batch from log_z_bose.
    """
    lat = params.lattice
    log_cap = (params.n_flavors * lat.n_sites
               * bose_upper_rate(params.n, params.L, params.field_kind))
    name = "bose-sector bounds"

    def block(rng, count):
        bonds = haar_sample(rng, params.n, kind=params.kind, size=(count, lat.n_bonds))
        log_z = log_z_bose(params, bonds)
        # log_z >= 0 is both "Z_B >= 1" and "det Q <= 1" (flavors > 0).
        return {name: [np.minimum(log_z, log_cap - log_z)]}

    return sampled_checks(block, n_configs, seed, n_workers=n_workers,
                          block_size=BOSE_BLOCK_SIZE)[name]


# -------------------------------------------------- gauge sector verifier

def verify_gauge_bounds(params, n_samples=200_000, seed=0, n_workers=1,
                        block_size=mc.DEFAULT_BLOCK_SIZE):
    """Sandwich the scaled gauge partition value between its rate bounds.

    The scaled value is s_Y^{dim * Lr} Z_w.  For d = 2 the one-bond
    factorization gives Z_w exactly by quadrature; d >= 3 estimates it by
    Monte Carlo over gauge-fixed Haar configurations.
    """
    consts = BoundConstants.for_params(params)
    n_ret = params.lattice.n_retained
    if params.d == 2:
        est = z_wilson_d2_exact(params)
    else:
        est = z_wilson_mc(params, n_samples, seed, n_workers=n_workers,
                          gauge_fixed=True, block_size=block_size)
    return _report_from_estimate(
        "gauge-sector bounds", _gauge_scaled(params, est),
        consts.gauge_lower * n_ret, consts.gauge_upper * n_ret)


# ---------------------------------------------------- full-model verifier

def verify_full_model(params, n_samples, seed, n_workers=1,
                      block_size=mc.DEFAULT_BLOCK_SIZE):
    """Bound the fully scaled partition value of the coupled model.

    The value equals s_Y^{dim Lr} times the Haar average of
    e^{-S_w(g)} Z_B(g); the average is estimated by Monte Carlo with the
    exact Bose determinant evaluated per sample, from log-weights
    log Z_B - S_w.  Bounds are the combined exact rates times the site count.

    Every bond is drawn: the real fields couple through Re(g), so Z_B(g) is
    invariant only under orthogonal site rotations, not under the U(N) or
    SU(N) ones a gauge-fixing tree would use.  A block keeps its Haar draws
    whole, so the random stream does not depend on slicing; log_z_bose
    builds and factorises their Bose bands slice by slice.
    """
    if params.field_kind != "real" or params.n_flavors != 1:
        raise UsageError("full-model verification is set up for one real flavor")
    lat = params.lattice
    consts = BoundConstants.for_params(params)
    lo_rate, up_rate = consts.combined_rates(lat)
    coupling = params.scaling.coupling
    plan = PlaquettePlan.for_bonds(lat)

    def block(rng, count):
        bonds = haar_sample(rng, params.n, kind=params.kind,
                            size=(count, lat.n_bonds))
        actions = coupling * np.sum(plaquette_actions(plan, bonds), axis=-1)
        return log_z_bose(params, bonds) - actions

    moments = mc.sample_mean(block, n_samples, seed,
                             n_workers=n_workers, block_size=block_size)
    est = _gauge_scaled(params, Estimate.from_moments(moments, seed))
    return _report_from_estimate(
        "full-model bounds", est,
        lo_rate * lat.n_sites, up_rate * lat.n_sites)


# ------------------------------------------- pointwise inequality suites

def check_plaquette_quadratic(kind, n, k, n_samples, seed, n_workers=1,
                              block_size=mc.DEFAULT_BLOCK_SIZE):
    """Check the plaquette-action quadratic bound on random plaquettes.

    A plaquette with k Haar bonds (the other 4 - k at the identity) must
    satisfy A_p <= k N sum_b |lam_b|^2 and A_p <= 4N, compared without slack;
    each draw gives one slack per inequality, in units of the action.
    Every group goes through the same path: haar_sample draws the bonds,
    plaquette_actions evaluates the action the Monte Carlo integrates, and
    haar.angle_norm_sq reads the angles back.  For U(1) at k = 1 the exact
    slack is theta^2 - 4 sin^2(theta/2) ~ theta^4 / 12, below the round-off
    of theta^2 once |theta| < ~4e-8, so each draw with a quadratic slack
    below 0 is recomputed at 50 digits (_exact_quadratic_slacks) and counts
    as a violation only if that says so; the recount is reported.
    """
    if k not in (1, 2, 3, 4):
        raise UsageError(f"k must be in 1..4, got {k}")
    # The first k bonds of the one plaquette of Lattice(d=2, L=2) are Haar.
    lat = Lattice(d=2, L=2)
    plan = PlaquettePlan.for_bonds(lat, lat.plaq_bonds[0][:k])
    name = f"plaquette quadratic bound {kind}({n}) k={k}"

    def block(rng, count):
        mats = haar_sample(rng, n, kind=kind, size=(count, k))
        action = plaquette_actions(plan, mats)[:, 0]
        bound = k * n * np.sum(angle_norm_sq(mats, kind), axis=-1)
        exact = lambda draws: _exact_quadratic_slacks(mats[draws], bound[draws],
                                                      action[draws])
        return {name: [(bound - action, exact), 4.0 * n - action]}

    return sampled_checks(block, n_samples, seed, n_workers=n_workers,
                          block_size=block_size)[name]


def _exact_quadratic_slacks(mats, bound, action):
    """Slacks k N sum_b |lam_b|^2 - |g1 g2 - g4 g3|_F^2 of draws at 50 digits.

    mats (draws, k, N, N) are the first k plaquette corners, the others the
    identity; bound and action are the float values the check compared.
    The entries are unitary to round-off only, and that alone moves
    |z - 1|^2 by about eta (theta^2 + eta), eta ~ 1e-16, more than the
    exact slack theta^4 / 12 at tiny angles.  So each matrix is replaced by
    its unitary polar factor (Newton's X <- (X + X^-H) / 2; from a defect
    of 1e-15 each step squares it, so four steps pass 50 digits), and the
    angles (eigenvalues' arguments) and the action are taken from those.
    A draw keeps its float slack unless the float bound and action lie
    within 1e-13 (exact bound + exact action) + 1e-30 of the exact ones (a
    few units of round-off, relative, and squared in unit-size entries): a
    larger gap is an error of the kernel, not round-off, and stays visible.
    """
    import mpmath

    out = bound - action
    with mpmath.workdps(50):
        for j, corners in enumerate(mats):
            k, n = corners.shape[:2]
            g, angles = [], mpmath.mpf(0)
            for m in corners:
                x = mpmath.matrix(m.tolist())
                for _ in range(4):
                    x = (x + mpmath.inverse(x).H) / 2
                eig = [x[0, 0]] if n == 1 else mpmath.eig(x, left=False, right=False)
                angles += sum(mpmath.arg(e) ** 2 for e in eig)
                g.append(x)
            g += [mpmath.eye(n)] * (4 - k)
            diff = g[0] * g[1] - g[3] * g[2]
            exact_action = sum(abs(diff[i, c]) ** 2 for i in range(n) for c in range(n))
            exact_bound = k * n * angles
            gap = (abs(mpmath.mpf(bound[j]) - exact_bound)
                   + abs(mpmath.mpf(action[j]) - exact_action))
            if gap <= 1e-13 * (exact_bound + exact_action) + 1e-30:
                out[j] = float(exact_bound - exact_action)
    return out


def elementary_inequality_suite(n_draws, seed, n_workers=1,
                                block_size=mc.DEFAULT_BLOCK_SIZE):
    """Zero-violation checks of the pointwise inequalities the bounds rest on.

    Per draw of angle vectors (N = 1, 2, 3) and SU(2) points:
      a) 2 sum (1 - cos l_j) <= |l|^2              (upper quadratic bound)
      b) 2 (1 - cos l) >= (4/pi^2) l^2             (lower quadratic bound)
      c) angle density <= squared Vandermonde      (everywhere)
      d) angle density >= (4/pi^2)^{N(N-1)/2} *
         squared Vandermonde on max|l| <= pi/2     (box lower bound)
      e) SU(2), one Haar bond on the plaquette of the d = 2, L = 2 lattice:
         plaquette action <= |lam|^2 = 2 theta^2 and <= 8, and the Haar
         radial density between (2/pi)^2/(2 pi^2) and 1/(2 pi^2) on
         theta <= pi/2.  The action is plaquette_actions and the angle
         haar.angle_norm_sq, as in check_plaquette_quadratic.
    Each comparison contributes its own slack array under its key, in the
    units of the compared quantity.  Returns a dict name -> SampledBoundCheck.
    """
    lat = Lattice(d=2, L=2)
    plan = PlaquettePlan.for_bonds(lat, lat.plaq_bonds[0, :1])

    def block(rng, count):
        slack = {"upper-quadratic": [], "lower-quadratic": [],
                 "density-upper": [], "density-lower": [], "su2-pointwise": []}
        for n in (1, 2, 3):
            lam = rng.uniform(-np.pi, np.pi, size=(count, n))
            halfsin = np.sin(lam / 2.0)
            left = 4.0 * np.sum(halfsin * halfsin, axis=-1)
            slack["upper-quadratic"].append(np.sum(lam * lam, axis=-1) - left)
            per = 4.0 * halfsin * halfsin
            slack["lower-quadratic"].append(per - (4.0 / np.pi**2) * lam * lam)
            if n >= 2:
                rho = cue_density(lam)
                rho_v = cue_density_vandermonde(lam)
                hat = gue_density(lam)
                slack["density-upper"].append(hat * (1 + 1e-12) - rho)
                # Vandermonde route must agree with the product route.
                slack["density-upper"].append(
                    1e-10 * np.maximum(rho, 1.0) - np.abs(rho - rho_v))
                box = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=(count, n))
                rho_box = cue_density(box)
                hat_box = gue_density(box)
                factor = (4.0 / np.pi**2) ** (n * (n - 1) / 2.0)
                slack["density-lower"].append(
                    rho_box * (1 + 1e-12) - factor * hat_box)
        mats = haar_sample(rng, 2, kind="SU", size=count)
        act = plaquette_actions(plan, mats[:, None])[:, 0]
        norm_sq = angle_norm_sq(mats, "SU")
        theta = np.sqrt(norm_sq / 2.0)
        half = theta <= np.pi / 2.0
        dens = su2_haar_density(theta[:, None])
        slack["su2-pointwise"] += [
            norm_sq * (1 + 1e-12) - act,
            8.0 - act,
            1.0 / (2.0 * np.pi**2) * (1 + 1e-12) - dens,
            dens[half] * (1 + 1e-12) - (2.0 / np.pi) ** 2 / (2.0 * np.pi**2)]
        return slack

    return sampled_checks(block, n_draws, seed,
                          n_workers=n_workers, block_size=block_size)
