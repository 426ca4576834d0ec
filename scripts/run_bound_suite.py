"""Run the stability-bound verifiers over a small model grid.

Each model point is one `boselgt verify-bounds --which all` run: the
matter-sector sandwich on random gauge configurations, the gauge-sector
rate bounds (exact in d = 2, Monte Carlo above) and the full coupled
model.  Its record lands in $BOSELGT_OUTPUT_DIR (default: the current
directory) like that of any CLI run.  Ends with the group-level inequality
suites.  Exits 1 if anything fails.
"""

import argparse

from boselgt.bounds import check_plaquette_quadratic, elementary_inequality_suite
from boselgt.cli import main as boselgt, report_sampled_check

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
        print(f"\n== d={point['d']} L={point['L']} {point['kind']}({point['n']}) ==")
        argv = ["verify-bounds", "--which", "all", "--a", args.a,
                "--g-sq", args.g_sq, "--configs", args.configs,
                "--samples", args.samples, "--seed", args.seed,
                "--workers", args.workers]
        for key, value in point.items():
            argv += [f"--{key}", value]
        failures += boselgt([str(x) for x in argv]) != 0

    print("\n== group-level inequalities ==")
    checks = [check_plaquette_quadratic(kind, n, k, args.draws, args.seed,
                                        n_workers=args.workers)
              for kind, n in (("U", 1), ("SU", 2)) for k in (1, 2, 3, 4)]
    suite = elementary_inequality_suite(args.draws, args.seed,
                                        n_workers=args.workers)
    for chk in checks + [suite[name] for name in sorted(suite)]:
        failures += report_sampled_check(chk)["verdict"] != "pass"

    print("\nall checks passed" if not failures else
          f"\n{failures} FAILED (a model point counts once)")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
