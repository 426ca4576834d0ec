"""Acceptance gate: the thirteen checks this package must pass.

Each test prints one verdict line of the form

    criterion NN [name]: PASS

and then asserts it.  Stochastic criteria register a worker-parametrized
runner in RUNNERS so the final determinism criterion can rerun every one of
them, at full sample size, under a different worker count and compare the
results bit for bit.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from scipy.special import ive

from boselgt import mc
from boselgt.actions import ModelParams
from boselgt.bounds import (BoundConstants, check_plaquette_quadratic,
                            elementary_inequality_suite, verify_bose_bounds,
                            verify_gauge_bounds)
from boselgt.haar import haar_sample, weyl_integrate
from boselgt.lattice import GaugeFixing, Lattice
from boselgt.partition import (z_bose_exact, z_bose_exact_unscaled,
                               z_wilson_d2_exact, z_wilson_mc)
from boselgt.rmt import cue_gue_target, d2_free_energy, d2_limit_target, w_ratio
from boselgt.su2 import su2_to_matrix, su2_z_gluon
from oracles import (bose_action_unscaled, identity_bonds, su2_exp, su2_log,
                     transfer_kernel_norm)

# ------------------------------------------------------------------ plumbing

RUNNERS = {}   # name -> callable(n_workers) returning a plain comparable value
_CACHE = {}


def _run(name, n_workers=1):
    key = (name, n_workers)
    if key not in _CACHE:
        _CACHE[key] = RUNNERS[name](n_workers)
    return _CACHE[key]


def _verdict(num, name, ok, detail=""):
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# --------------------------------------------------- 1: d=2 continuum limit

def test_criterion_01_d2_free_energy_limit():
    t0 = time.perf_counter()
    errs = {n: abs(d2_free_energy(1e-3, n=n, g_sq=1.0) - d2_limit_target(n))
            for n in (1, 2)}
    elapsed = time.perf_counter() - t0
    ok = errs[1] < 1e-2 and errs[2] < 2e-2 and elapsed < 10.0
    _verdict(1, "d2-free-energy-limit", ok,
             f"err n=1 {errs[1]:.2e}, n=2 {errs[2]:.2e}, {elapsed:.2f}s")


# ------------------------------------------- 2: Gaussian limit of the ratio

def test_criterion_02_bond_integral_gaussian_limit():
    t0 = time.perf_counter()
    rels = {n: abs(w_ratio(1e-4, n) / cue_gue_target(n) - 1.0) for n in (1, 2)}
    elapsed = time.perf_counter() - t0
    ok = all(r < 1e-2 for r in rels.values()) and elapsed < 30.0
    _verdict(2, "bond-integral-gaussian-limit", ok,
             f"rel n=1 {rels[1]:.2e}, n=2 {rels[2]:.2e}, {elapsed:.2f}s")


# ----------------------------------- 3: MC against the d=2 exact bond power

_P3 = ModelParams(d=2, L=3, n=1, kind="U", a=1.0, g_sq=1.0)


def _run_wilson_mc(n_workers):
    est = z_wilson_mc(_P3, 100_000, seed=31, n_workers=n_workers)
    return (est.value, est.std_error)


RUNNERS["wilson-mc-vs-bond-power"] = _run_wilson_mc


def test_criterion_03_mc_matches_d2_factorization():
    value, std_error = _run("wilson-mc-vs-bond-power")
    exact = z_wilson_d2_exact(_P3).value
    gap = abs(value - exact)
    ok = gap <= 3.0 * std_error
    _verdict(3, "mc-vs-d2-factorization", ok,
             f"|mc-exact| {gap:.2e} vs 3 sigma {3.0 * std_error:.2e}")


# --------------------------------------------- 4: gauge fixing equivalence

def test_criterion_04_gauge_fixing_equivalence():
    lat = Lattice(d=2, L=2, a=1.0)
    fixing = GaugeFixing.enhanced_temporal(lat)
    assert lat.n_bonds == 4 and lat.n_plaquettes == 1
    assert lat.n_retained == len(fixing.retained_bonds) == 1
    c = 1.0  # a = 1, g^2 = 1
    m = 64
    th = -np.pi + 2.0 * np.pi * (np.arange(m) + 1.0) / m

    # Direct route: average over all four bond angles (the plaquette walk
    # crosses every bond of this lattice once, signs +, +, -, -), chunked
    # along the first angle axis.
    total = 0.0
    for t0 in th:
        s = (t0 + th[:, None, None] - th[None, :, None] - th[None, None, :])
        total += float(np.sum(np.exp(-4.0 * c * np.sin(s / 2.0) ** 2)))
    direct = total / m**4

    # Gauge-fixed route: the three tree bonds sit at the identity and one
    # angle remains; the holonomy angle is that angle up to sign.
    fixed = float(np.mean(np.exp(-4.0 * c * np.sin(th / 2.0) ** 2)))

    rel = abs(direct - fixed) / fixed
    _verdict(4, "gauge-fixing-equivalence", rel < 1e-6, f"rel {rel:.2e}")


# ------------------------------------------------ 5: matter-sector sandwich

_GRID5 = tuple(
    ModelParams(d=d, L=L, n=n, kind=kind, a=a, g_sq=1.0,
                m_u=0.0, kappa_u_sq=1.0)
    for (d, L, n, kind) in ((2, 3, 1, "U"), (3, 2, 2, "SU"))
    for a in (1.0, 0.1, 0.01))


def _run_bose_suite(n_workers):
    checks = [verify_bose_bounds(p, 100, seed=51 + i, n_workers=n_workers)
              for i, p in enumerate(_GRID5)]
    return tuple((c.violations, c.worst_margin) for c in checks)


RUNNERS["bose-bound-suite"] = _run_bose_suite


def test_criterion_05_bose_sandwich_and_determinant_cap():
    results = _run("bose-bound-suite")
    violations = sum(v for v, _ in results)
    worst = min(w for _, w in results)
    ok = violations == 0 and worst >= 0.0
    _verdict(5, "bose-sandwich", ok,
             f"{violations} violations in 600 configs, worst margin {worst:.3g}")


# ----------------------------------------------------- 6: scaling identities

def _polarised_unscaled_form(params, bonds):
    """Q_u with S_u = phi^T Q_u phi / 2, read off the unscaled action alone.

    Q_ii = 2 S_u(e_i) and Q_ij = S_u(e_i + e_j) - S_u(e_i) - S_u(e_j) over
    the real field components: e_i for real fields, e_i and i e_i for
    complex ones.
    """
    shape = (params.lattice.n_sites, params.n)
    units = list(np.eye(shape[0] * shape[1]).reshape(-1, *shape))
    if params.field_kind == "complex":
        units = [u + 0j for u in units] + [1j * u for u in units]
    diag = [bose_action_unscaled(params, bonds, u) for u in units]
    q = np.diag(2.0 * np.array(diag))
    for i, j in zip(*np.triu_indices(len(units), 1)):
        q[i, j] = q[j, i] = (bose_action_unscaled(params, bonds, units[i] + units[j])
                             - diag[i] - diag[j])
    return q


def test_criterion_06_scaling_identities():
    # The unscaled value is derived from the scaled one; the oracle is the
    # determinant of the form polarised from the unscaled action itself.
    worst = 0.0
    for base in _GRID5:
        for field_kind in ("real", "complex"):
            params = replace(base, field_kind=field_kind)
            lat = params.lattice
            rng = mc.block_rng(61, 0)
            for bonds in (identity_bonds(params.n, lat.n_bonds),
                          haar_sample(rng, params.n, kind=params.kind,
                                      size=lat.n_bonds)):
                unscaled = z_bose_exact_unscaled(params, z_bose_exact(params, bonds))
                sign, logdet_u = np.linalg.slogdet(
                    _polarised_unscaled_form(params, bonds))
                target = -0.5 * params.n_flavors * logdet_u
                err = abs(unscaled.log_value - target) / max(1.0, abs(target))
                worst = max(worst, err if sign == 1.0 else np.inf)
    _verdict(6, "scaling-identities", worst < 1e-8, f"worst rel {worst:.2e}")


# ------------------------------------------- 7: quadratic plaquette bounds

def _run_plaquette_suite(n_workers):
    out = []
    for kind, n in (("U", 1), ("SU", 2)):
        for k in (1, 2, 3, 4):
            chk = check_plaquette_quadratic(kind, n, k, 1_000_000,
                                            seed=70 + k, n_workers=n_workers)
            out.append((chk.violations, chk.worst_margin, chk.recounted))
    return tuple(out)


RUNNERS["plaquette-quadratic"] = _run_plaquette_suite


def _all_held(results):
    """No violation and a finite, non-negative worst margin everywhere."""
    return all(v == 0 and 0.0 <= w < np.inf for v, w in results)


def test_criterion_07_plaquette_quadratic_bounds():
    # A negative float slack counts only if its 50-digit recount is negative;
    # the draws the recount clears are printed on their own line.
    results = _run("plaquette-quadratic")
    cells = ", ".join(f"{v} (margin {w:.2g})" for v, w, _ in results)
    print("criterion 07 round-off recount per (group, k) cell: "
          + ", ".join(str(r) for _, _, r in results))
    _verdict(7, "plaquette-quadratic-bounds",
             _all_held((v, w) for v, w, _ in results),
             f"violations per (group, k) cell: {cells}")


# --------------------------------------------- 8: gauge-sector rate bounds

_P8_D3 = ModelParams(d=3, L=2, n=2, kind="SU", a=1.0, g_sq=1.0)


def _run_gauge_d3(n_workers):
    rep = verify_gauge_bounds(_P8_D3, n_samples=200_000, seed=80,
                              n_workers=n_workers)
    return (rep.log_value, rep.std_error_log, rep.verdict)


RUNNERS["gauge-bounds-d3"] = _run_gauge_d3


# The d=3 cell runs at its pinned sample count, so the advisory to raise
# n_samples is not actionable here.
@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_criterion_08_gauge_rate_sandwich():
    ok = True
    rates = set()
    for L in range(2, 7):
        for a in (1.0, 1e-2, 1e-4):
            p = ModelParams(d=2, L=L, n=1, kind="U", a=a, g_sq=1.0)
            rep = verify_gauge_bounds(p)
            ok &= rep.method == "quadrature" and rep.verdict == "pass"
            consts = BoundConstants.for_params(p)
            rates.add((consts.gauge_lower, consts.gauge_upper))
    a_independent = len(rates) == 1
    _, _, verdict_d3 = _run("gauge-bounds-d3")
    ok = ok and a_independent and verdict_d3 == "pass"
    _verdict(8, "gauge-rate-sandwich", ok,
             f"d=2 exact over 15 cells, constants a-independent: "
             f"{a_independent}, d=3 SU(2) MC verdict: {verdict_d3}")


# ---------------------------------------------------- 9: SU(2) parametrization

def test_criterion_09_su2_parametrization():
    rng = np.random.default_rng(90)
    directions = rng.normal(size=(10_000, 3))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)

    # exp against the generic matrix exponential, radii over the full range
    algebra = directions * rng.uniform(0.0, np.pi, size=(10_000, 1))
    mats = su2_to_matrix(su2_exp(algebra))
    pauli = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                     dtype=complex)
    worst_exp = 0.0
    for vec, mat in zip(algebra, mats):
        ref = scipy.linalg.expm(1j * np.einsum("k,kij->ij", vec, pauli))
        worst_exp = max(worst_exp, float(np.max(np.abs(mat - ref))))

    # log of exp recovers the algebra vector away from the |A| = pi boundary,
    # where the axis direction is no longer recoverable at fixed precision
    inner = directions * rng.uniform(0.0, 3.1, size=(10_000, 1))
    worst_log = float(np.max(np.abs(su2_log(su2_exp(inner)) - inner)))

    # the one-bond value against its Bessel closed form ive(1, 4c)/(2c),
    # c = a^{d-4}/g^2 at d = 3
    worst_z = 0.0
    for a in (1.0, 0.5, 0.1):
        for g_sq in (4.0, 1.0, 0.25):
            c = 1.0 / (a * g_sq)
            closed = ive(1, 4.0 * c) / (2.0 * c)
            zg = np.exp(su2_z_gluon(a, g_sq, 3))
            worst_z = max(worst_z, abs(zg - closed) / closed)

    ok = worst_exp < 1e-12 and worst_log < 1e-10 and worst_z < 1e-9
    _verdict(9, "su2-parametrization", ok,
             f"exp {worst_exp:.1e}, log-of-exp {worst_log:.1e}, "
             f"z against ive(1, 4c)/(2c) {worst_z:.1e}")


# -------------------------------------- 10: class functions, two dual routes

def _class_function(coefs):
    def f(lam):
        tr = np.sum(np.exp(1j * lam), axis=-1)
        tr2 = np.sum(np.exp(2j * lam), axis=-1)
        re = np.real(tr)
        return (coefs[0] + coefs[1] * re + coefs[2] * np.abs(tr) ** 2
                + coefs[3] * np.real(tr2) + coefs[4] * re * re)
    return f


def _run_class_function_mc(n_workers):
    coef_rng = np.random.default_rng(1010)
    coefs = coef_rng.uniform(-1.0, 1.0, size=(5, 5))
    coefs[:, 0] += 2.0
    out = []
    for i in range(5):
        f = _class_function(coefs[i])

        def block(rng, count, f=f):
            u = haar_sample(rng, 2, size=(count,))
            lam = np.angle(np.linalg.eigvals(u))
            return f(lam)

        moments = mc.sample_mean(block, 100_000, seed=100 + i,
                                 n_workers=n_workers)
        out.append((moments.mean, moments.std_error))
    return tuple(out)


RUNNERS["class-function-mc"] = _run_class_function_mc


def test_criterion_10_weyl_vs_haar_sampling():
    coef_rng = np.random.default_rng(1010)
    coefs = coef_rng.uniform(-1.0, 1.0, size=(5, 5))
    coefs[:, 0] += 2.0
    mc_side = _run("class-function-mc")
    worst = 0.0
    ok = True
    for i, (mean, std_error) in enumerate(mc_side):
        exact = weyl_integrate(_class_function(coefs[i]), 2, kind="U")
        pull = abs(mean - exact) / std_error
        worst = max(worst, pull)
        ok &= pull <= 3.0
    _verdict(10, "weyl-vs-haar-sampling", ok, f"worst pull {worst:.2f} sigma")


# ------------------------------------------------- 11: transfer kernel norm

def test_criterion_11_transfer_kernel_norm():
    norm = transfer_kernel_norm(d_kappa_sq=0.5, g=1.0, n_points=512, x_max=8.0)
    cap = np.sqrt(4.0 * np.pi) * (1.0 + 1e-3)
    _verdict(11, "transfer-kernel-norm", norm <= cap,
             f"norm {norm:.6f} <= {cap:.6f}")


# --------------------------------------------- 12: elementary inequalities

def _run_elementary(n_workers):
    suite = elementary_inequality_suite(1_000_000, seed=120,
                                        n_workers=n_workers)
    return tuple(sorted((name, (chk.violations, chk.worst_margin))
                        for name, chk in suite.items()))


RUNNERS["elementary-suite"] = _run_elementary


def test_criterion_12_elementary_inequalities():
    results = _run("elementary-suite")
    keys = ", ".join(f"{name}: {v} (margin {w:.2g})" for name, (v, w) in results)
    _verdict(12, "elementary-inequalities", _all_held(r for _, r in results),
             f"violations: {keys}")


# ------------------------------------------------ 13: worker determinism

@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_criterion_13_worker_count_determinism():
    mismatched = [name for name in sorted(RUNNERS)
                  if _run(name, 1) != _run(name, 4)]
    _verdict(13, "worker-count-determinism", not mismatched,
             f"reran {len(RUNNERS)} stochastic criteria with 4 workers"
             + (f"; mismatched: {mismatched}" if mismatched else ""))
