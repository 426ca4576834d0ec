"""Run the stability-bound verifiers over a small model grid.

Checks, per model point: the matter-sector sandwich on random gauge
configurations, the gauge-sector rate bounds (exact in d = 2, Monte Carlo
above), and the full coupled model where it applies.  Ends with the
group-level inequality suites.  Exits 1 if anything fails.
"""

import argparse

from boselgt.actions import ModelParams
from boselgt.bounds import (check_plaquette_quadratic,
                            elementary_inequality_suite, verify_bose_bounds,
                            verify_full_model, verify_gauge_bounds)

POINTS = (
    dict(d=2, L=3, n=1, kind="U"),
    dict(d=2, L=4, n=2, kind="U"),
    dict(d=3, L=2, n=2, kind="SU"),
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--configs", type=int, default=100,
                    help="random gauge configurations per matter-sector check")
    ap.add_argument("--samples", type=int, default=50_000,
                    help="Monte Carlo samples per stochastic check")
    ap.add_argument("--draws", type=int, default=200_000,
                    help="draws for the pointwise inequality suites")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--a", type=float, default=1.0)
    ap.add_argument("--g-sq", type=float, default=1.0)
    args = ap.parse_args(argv)

    failures = 0
    for point in POINTS:
        params = ModelParams(a=args.a, g_sq=args.g_sq, m_u=0.0,
                             kappa_u_sq=1.0, **point)
        tag = f"d={params.d} L={params.L} {params.kind}({params.n})"
        print(f"\n== {tag} ==")

        chk = verify_bose_bounds(params, args.configs, args.seed,
                                 n_workers=args.workers)
        print(f"  matter sandwich: {chk.violations} violations in "
              f"{chk.n_samples} configs, worst margin {chk.worst_margin:.3g}")
        failures += not chk.passed

        rep = verify_gauge_bounds(params, n_samples=args.samples,
                                  seed=args.seed, n_workers=args.workers)
        print(f"  gauge rates ({rep.method}): {rep.verdict}, log value "
              f"{rep.log_value:.6g} in [{rep.log_lower:.6g}, {rep.log_upper:.6g}], "
              f"sigma_log {rep.std_error_log:.2g}")
        failures += not rep.passed

        rep = verify_full_model(params, args.samples, args.seed,
                                n_workers=args.workers)
        print(f"  full model: {rep.verdict}, log value {rep.log_value:.6g} "
              f"in [{rep.log_lower:.6g}, {rep.log_upper:.6g}], "
              f"sigma_log {rep.std_error_log:.2g}")
        failures += not rep.passed

    print("\n== group-level inequalities ==")
    checks = [check_plaquette_quadratic(kind, n, k, args.draws, args.seed,
                                        n_workers=args.workers)
              for kind, n in (("U", 1), ("SU", 2)) for k in (1, 2, 3, 4)]
    suite = elementary_inequality_suite(args.draws, args.seed,
                                        n_workers=args.workers)
    for chk in checks + [suite[name] for name in sorted(suite)]:
        print(f"  {chk.name}: {chk.violations} violations in {chk.n_samples} "
              f"draws, worst margin {chk.worst_margin:.3g}")
        failures += not chk.passed

    print(f"\n{'all checks passed' if not failures else f'{failures} checks FAILED'}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
