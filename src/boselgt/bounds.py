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

with I the truncated Gaussian Vandermonde integral (gue_integral).  The
upper constants are not the sharpest available, but they are valid and are
the ones asserted; the d = 2 direct check below also verifies the sharper
(pi/2)^{N^2} I(inf)/cue_norm form per bond.

Monte Carlo verdicts use a three-sigma window: pass when the window lies
inside the bounds, fail when it lies strictly outside, inconclusive when it
straddles a boundary.  The window's sigma_log is the relative standard
error of the unscaled Monte Carlo mean; it does not change under the gauge
scale s_Y^{d(N) Lr}, which only shifts the log value.  Deterministic
verdicts use a relative tolerance of 1e-8 on the log scale.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import mc
from .actions import GaugeConfig, plaquette_actions
from .errors import UsageError
from .haar import cue_norm, gue_integral, gue_norm, haar_sample
from .lattice import GaugeFixing, Lattice
from .partition import (Estimate, bose_quadratic_form, logdet_posdef,
                        sample_bonds, z_single_bond, z_wilson_d2_exact,
                        z_wilson_mc)
from .su2 import (su2_angle, su2_angle_norm_sq, su2_bound_constants,
                  su2_haar, su2_inverse, su2_mul, su2_plaquette_action)

DETERMINISTIC_LOG_RTOL = 1e-8


# --------------------------------------------------------------- constants

def group_dim(kind, n):
    """Real dimension d(N) of the group: N^2 for U(N), N^2 - 1 for SU(N).

    It is the exponent of the gauge scale per retained bond, s_Y^{d(N) Lr}.
    """
    if kind == "U":
        return n * n
    if kind == "SU":
        return n * n - 1
    raise UsageError(f"unknown group kind {kind!r}")


def bose_upper_rate(n, L, field_kind="real"):
    """Per-site log upper bound for the Bose value, N(1 - 1/L) ln(2)/2.

    The chain construction behind it gives a per-bond factor 2^{N/2} for
    real fields and 2^N for complex ones, hence the doubling.
    """
    rate = n * (1.0 - 1.0 / L) * np.log(2.0) / 2.0
    return float(2.0 * rate) if field_kind == "complex" else float(rate)


def gauge_rate_bounds(kind, n, d, g0_sq=4.0):
    """(lower, upper) log bounds for the scaled one-bond gauge value.

    Uniform over a in (0, 1] and 0 < g^2 <= g0^2.  U(N) supports N <= 3
    (the Vandermonde integrals refuse more); SU is available for N = 2 only.
    """
    if d not in (2, 3, 4):
        raise UsageError(f"dimension must be 2, 3 or 4, got {d}")
    if kind == "SU":
        if n != 2:
            raise UsageError("gauge bound constants for SU(N) exist only for N = 2")
        lo, up = su2_bound_constants(d, g0_sq)
        return float(np.log(lo)), float(np.log(up))
    if kind != "U":
        raise UsageError(f"unknown group kind {kind!r}")
    upper = n * n * np.log(np.pi / (2.0 * np.sqrt(2.0))) + np.log(gue_integral(np.inf, n))
    alpha0 = 8.0 * n * (d - 1) / g0_sq  # smallest admissible peak scale
    trunc = gue_integral(np.sqrt(alpha0) * np.pi / 2.0, n)
    lower = (-np.log(cue_norm(n))
             + (n * (n - 1) / 2.0) * np.log(4.0 / np.pi**2)
             - (n * n / 2.0) * np.log(8.0 * n * (d - 1))
             + np.log(trunc))
    return float(lower), float(upper)


@dataclass(frozen=True)
class BoundConstants:
    """All rates for one parameter set, plus the combined full-model rates."""

    n: int
    kind: str
    field_kind: str
    d: int
    L: int
    g0_sq: float
    bose_lower: float
    bose_upper: float
    gauge_lower: float
    gauge_upper: float

    @classmethod
    def for_params(cls, params):
        g_lo, g_up = gauge_rate_bounds(params.kind, params.n, params.d, params.g0_sq)
        return cls(
            n=params.n, kind=params.kind, field_kind=params.field_kind,
            d=params.d, L=params.L, g0_sq=params.g0_sq,
            bose_lower=0.0,
            bose_upper=bose_upper_rate(params.n, params.L, params.field_kind),
            gauge_lower=g_lo, gauge_upper=g_up)

    def combined_rates(self, lattice):
        """Exact per-site rates for the full model on this lattice.

        (lower, upper) with upper = bose_upper + gauge_upper * Lr/Ls and the
        same shape for lower (whose Bose part is 0).
        """
        n_ret = GaugeFixing.enhanced_temporal(lattice).n_retained
        ratio = n_ret / lattice.n_sites
        return (self.bose_lower + self.gauge_lower * ratio,
                self.bose_upper + self.gauge_upper * ratio)

    def combined_rates_uniform(self):
        """L-independent majorant rates: Lr/Ls < d, so the gauge rate is
        scaled by d with the sign kept on the safe side."""
        return (self.bose_lower + self.d * min(self.gauge_lower, 0.0),
                self.bose_upper + self.d * max(self.gauge_upper, 0.0))


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

    @property
    def passed(self):
        return self.verdict == "pass"


def _report_from_estimate(name, est, log_lower, log_upper):
    return BoundReport(
        name=name, log_value=est.log_value,
        log_lower=float(log_lower), log_upper=float(log_upper),
        std_error_log=est.std_error_log,
        n_samples=est.n_samples, method=est.method)


def _gauge_scaled(params, est):
    """est times the gauge scale s_Y^{d(N) Lr}: a shift of log_value only."""
    log_scale = (group_dim(params.kind, params.n) * params.gauge_fixing.n_retained
                 * np.log(params.scaling.gauge_scale))
    return replace(est, log_value=est.log_value + log_scale)


# --------------------------------------------------- Bose sector verifier

@dataclass(frozen=True)
class SampledBoundCheck:
    """Zero-violation check of deterministic inequalities over random draws."""

    name: str
    n_samples: int
    violations: int
    worst_margin: float  # most negative slack seen (>= 0 means all safe)

    @property
    def passed(self):
        return self.violations == 0


def verify_bose_bounds(params, n_configs, seed, n_workers=1, block_size=32):
    """Check 1 <= Z_B(g) <= e^{n_f rate n_sites} and det Q <= 1 on random gauges.

    Z_B for n_f flavors is the n_f-th power of the one-flavor value, so the
    one-flavor cap rate * n_sites is multiplied by n_f.  Returns a
    SampledBoundCheck with the count of configurations violating any of the
    three inequalities.  Forms are factorised one configuration at a time:
    a stacked block of large forms costs far more memory than it saves time.
    """
    lat = params.lattice
    log_cap = (params.n_flavors * lat.n_sites
               * bose_upper_rate(params.n, params.L, params.field_kind))

    def block(rng, count):
        bad = 0
        worst = np.inf
        for _ in range(count):
            cfg = GaugeConfig.random(lat, rng, n=params.n, kind=params.kind)
            q = bose_quadratic_form(params, cfg)
            logdet = logdet_posdef(q)
            log_z = -0.5 * params.n_flavors * logdet
            # log_z >= 0 is both "Z_B >= 1" and "det Q <= 1" (flavors > 0).
            margin = min(log_z - 0.0, log_cap - log_z)
            worst = min(worst, margin)
            if log_z < 0.0 or log_z > log_cap:
                bad += 1
        return bad, worst

    parts = mc.map_blocks(block, n_configs, seed,
                          n_workers=n_workers, block_size=block_size)
    total = sum(p[0] for p in parts)
    worst = min(p[1] for p in parts)
    return SampledBoundCheck(name="bose-sector bounds", n_samples=n_configs,
                             violations=int(total), worst_margin=float(worst))


# -------------------------------------------------- gauge sector verifier

def verify_gauge_bounds(params, n_samples=200_000, seed=0, n_workers=1,
                        block_size=mc.DEFAULT_BLOCK_SIZE):
    """Sandwich the scaled gauge partition value between its rate bounds.

    The scaled value is s_Y^{dim * Lr} Z_w.  For d = 2 the one-bond
    factorization gives Z_w exactly by quadrature; d >= 3 estimates it by
    Monte Carlo over gauge-fixed Haar configurations.
    """
    consts = BoundConstants.for_params(params)
    n_ret = params.gauge_fixing.n_retained
    if params.d == 2:
        est = z_wilson_d2_exact(params)
    else:
        est = z_wilson_mc(params, n_samples, seed, n_workers=n_workers,
                          gauge_fixed=True, block_size=block_size)
    return _report_from_estimate(
        "gauge-sector bounds", _gauge_scaled(params, est),
        consts.gauge_lower * n_ret, consts.gauge_upper * n_ret)


def d2_bond_upper_checks(params):
    """Direct one-bond inequalities for d = 2: scaled z against two constants.

    Returns (scaled_value, literal_constant, sharp_constant); the scaled
    value must not exceed either.  The sharp constant is
    (pi/2)^{N^2} gue_norm/cue_norm, the literal one replaces pi/2 by
    pi^2/2 and is therefore much looser.
    """
    if params.d != 2:
        raise UsageError(f"d = 2 only, got d = {params.d}")
    n = params.n
    c = params.scaling.coupling
    z = z_single_bond(c, n, kind=params.kind)
    scaled = c ** (n * n / 2.0) * z
    ratio = gue_norm(n) / cue_norm(n)
    literal = (np.pi**2 / 2.0) ** (n * n) * ratio
    sharp = (np.pi / 2.0) ** (n * n) * ratio
    return float(scaled), float(literal), float(sharp)


# ---------------------------------------------------- full-model verifier

def verify_full_model(params, n_samples, seed, n_workers=1,
                      block_size=mc.DEFAULT_BLOCK_SIZE):
    """Bound the fully scaled partition value of the coupled model.

    The value equals s_Y^{dim Lr} times the Haar average of
    e^{-S_w(g)} Z_B(g); the average is estimated by Monte Carlo with the
    exact Bose determinant evaluated per sample.  Bounds are the combined
    exact rates times the site count.
    """
    if params.field_kind != "real" or params.n_flavors != 1:
        raise UsageError("full-model verification is set up for one real flavor")
    lat = params.lattice
    consts = BoundConstants.for_params(params)
    lo_rate, up_rate = consts.combined_rates(lat)
    coupling = params.scaling.coupling

    def block(rng, count):
        bonds = sample_bonds(rng, params.n, params.kind, (count, lat.n_bonds))
        actions = coupling * np.sum(plaquette_actions(lat, bonds), axis=-1)
        log_z_b = -0.5 * logdet_posdef(bose_quadratic_form(params, bonds),
                                       context="full-model Bose form")
        return np.exp(-actions + log_z_b)

    moments = mc.sample_mean(block, n_samples, seed,
                             n_workers=n_workers, block_size=block_size)
    est = _gauge_scaled(params, Estimate.from_moments(moments, seed))
    return _report_from_estimate(
        "full-model bounds", est,
        lo_rate * lat.n_sites, up_rate * lat.n_sites)


# ------------------------------------------- pointwise inequality suites

def check_plaquette_quadratic(kind, n, k, n_samples, seed, n_workers=1,
                              block_size=mc.DEFAULT_BLOCK_SIZE):
    """Count violations of the plaquette-action quadratic bound.

    A plaquette with k Haar bonds (the other 4 - k at the identity) must
    satisfy A_p <= k N sum_b |lam_b|^2 and A_p <= 4N.  Fast angle-space
    paths exist for U(1) and SU(2); other groups go through the matrix
    spectrum and are much slower.
    """
    if k not in (1, 2, 3, 4):
        raise UsageError(f"k must be in 1..4, got {k}")
    signs = np.array([1.0, 1.0, -1.0, -1.0])[:k]

    if kind == "U" and n == 1:
        def block(rng, count):
            theta = rng.uniform(-np.pi, np.pi, size=(count, k))
            s = theta @ signs
            action = 4.0 * np.sin(s / 2.0) ** 2  # 2(1 - cos s), stable form
            bound = k * np.sum(theta * theta, axis=-1)
            return int(np.sum(action > bound) + np.sum(action > 4.0))
    elif kind == "SU" and n == 2:
        def block(rng, count):
            pts = su2_haar(rng, (count, k))
            hol = pts[:, 0]
            for j in range(1, k):
                nxt = pts[:, j] if signs[j] > 0 else su2_inverse(pts[:, j])
                hol = su2_mul(hol, nxt)
            action = su2_plaquette_action(hol)
            bound = k * n * np.sum(su2_angle_norm_sq(pts), axis=-1)
            return int(np.sum(action > bound) + np.sum(action > 4.0 * n))
    else:
        # The one plaquette of the d = 2, L = 2 lattice, walked g1 g2 g3^dag
        # g4^dag as the signs say; its first k bonds are Haar, the rest 1.
        lat = Lattice(d=2, L=2)
        haar_bonds = lat.plaq_bonds[0][:k]

        def block(rng, count):
            mats = haar_sample(rng, n, kind=kind, size=(count, k))
            bonds = np.broadcast_to(
                np.eye(n, dtype=complex), (count, lat.n_bonds, n, n)).copy()
            bonds[:, haar_bonds] = mats
            action = plaquette_actions(lat, bonds)[:, 0]
            ang = np.angle(np.linalg.eigvals(mats))
            ang = np.where(ang <= -np.pi, np.pi, ang)
            bound = k * n * np.sum(ang * ang, axis=(-1, -2))
            return int(np.sum(action > bound * (1 + 1e-12))
                       + np.sum(action > 4.0 * n))

    total = mc.sample_violations(block, n_samples, seed,
                                 n_workers=n_workers, block_size=block_size)
    return SampledBoundCheck(name=f"plaquette quadratic bound {kind}({n}) k={k}",
                             n_samples=n_samples, violations=total,
                             worst_margin=np.nan)


def elementary_inequality_suite(n_draws, seed, n_workers=1,
                                block_size=mc.DEFAULT_BLOCK_SIZE):
    """Zero-violation checks of the pointwise inequalities the bounds rest on.

    Per draw of angle vectors (N = 1, 2, 3) and SU(2) points:
      a) 2 sum (1 - cos l_j) <= |l|^2              (upper quadratic bound)
      b) 2 (1 - cos l) >= (4/pi^2) l^2             (lower quadratic bound)
      c) angle density <= squared Vandermonde      (everywhere)
      d) angle density >= (4/pi^2)^{N(N-1)/2} *
         squared Vandermonde on max|l| <= pi/2     (box lower bound)
      e) SU(2): 4 (1 - w0) <= 2 theta^2 <= 8 theta^2 and Haar radial
         density between (2/pi)^2/(2 pi^2) and 1/(2 pi^2) on theta <= pi/2.
    Returns a dict name -> SampledBoundCheck.
    """
    from .haar import cue_density, cue_density_vandermonde, gue_density

    def block(rng, count):
        bad = {"upper-quadratic": 0, "lower-quadratic": 0,
               "density-upper": 0, "density-lower": 0, "su2-pointwise": 0}
        for n in (1, 2, 3):
            lam = rng.uniform(-np.pi, np.pi, size=(count, n))
            halfsin = np.sin(lam / 2.0)
            left = 4.0 * np.sum(halfsin * halfsin, axis=-1)
            bad["upper-quadratic"] += int(np.sum(left > np.sum(lam * lam, axis=-1)))
            per = 4.0 * halfsin * halfsin
            bad["lower-quadratic"] += int(np.sum(per < (4.0 / np.pi**2) * lam * lam))
            if n >= 2:
                rho = cue_density(lam)
                rho_v = cue_density_vandermonde(lam)
                hat = gue_density(lam)
                bad["density-upper"] += int(np.sum(rho > hat * (1 + 1e-12)))
                # Vandermonde route must agree with the product route.
                bad["density-upper"] += int(np.sum(
                    np.abs(rho - rho_v) > 1e-10 * np.maximum(rho, 1.0)))
                box = rng.uniform(-np.pi / 2.0, np.pi / 2.0, size=(count, n))
                rho_box = cue_density(box)
                hat_box = gue_density(box)
                factor = (4.0 / np.pi**2) ** (n * (n - 1) / 2.0)
                bad["density-lower"] += int(np.sum(
                    rho_box * (1 + 1e-12) < factor * hat_box))
        pts = su2_haar(rng, count)
        theta = su2_angle(pts)
        act = su2_plaquette_action(pts)
        bad["su2-pointwise"] += int(np.sum(act > 2.0 * theta * theta * (1 + 1e-12)))
        bad["su2-pointwise"] += int(np.sum(act > 8.0))
        half = theta <= np.pi / 2.0
        sinc_sq = np.where(theta > 0, np.sin(theta) / np.where(theta > 0, theta, 1.0),
                           1.0) ** 2
        dens = sinc_sq / (2.0 * np.pi**2)
        bad["su2-pointwise"] += int(np.sum(dens > 1.0 / (2.0 * np.pi**2) * (1 + 1e-12)))
        bad["su2-pointwise"] += int(np.sum(
            half & (dens * (1 + 1e-12) < (2.0 / np.pi) ** 2 / (2.0 * np.pi**2))))
        return bad

    parts = mc.map_blocks(block, n_draws, seed,
                          n_workers=n_workers, block_size=block_size)
    out = {}
    keys = parts[0].keys()
    for key in keys:
        total = sum(p[key] for p in parts)
        out[key] = SampledBoundCheck(name=key, n_samples=n_draws,
                                     violations=int(total), worst_margin=np.nan)
    return out
