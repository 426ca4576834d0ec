"""Sweep the two continuum limits and print convergence tables.

Runs `boselgt cue-gue` (the Gaussian limit of the normalized one-bond
integral) over a decade grid of inverse couplings and `boselgt d2-limit`
(the d = 2 free-energy limit) over a decade grid of lattice spacings, for
N = 1 and N = 2.  Each run writes <out-dir>/cue_gue_n{N}.csv or
d2_limit_n{N}.csv, and its record beside it under the same name with .json.
Exits 1 if any run fails.
"""

import argparse
from pathlib import Path

from boselgt.cli import main as boselgt


def decade_grid(start, stop):
    vals = []
    v = start
    while v >= stop * 0.999:
        vals.append(v)
        v /= 10.0
    return ",".join(map(str, vals))  # str of a float reads back exactly


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", type=Path, default=Path("sweep-output"),
                    help="directory for the CSV tables and records")
    ap.add_argument("--beta-min", type=float, default=1e-4,
                    help="smallest inverse coupling of the Gaussian sweep")
    ap.add_argument("--a-min", type=float, default=1e-3,
                    help="smallest lattice spacing of the d=2 sweep")
    args = ap.parse_args(argv)

    sweeps = (("cue-gue", "--betas", decade_grid(1.0, args.beta_min)),
              ("d2-limit", "--a-values", decade_grid(1.0, args.a_min)))
    failures = 0
    for n in (1, 2):
        for command, flag, grid in sweeps:
            stem = args.out_dir / f"{command.replace('-', '_')}_n{n}"
            print(f"\n== {command} N={n} ==")
            failures += boselgt([command, "--n", str(n), flag, grid,
                                 "--csv", f"{stem}.csv",
                                 "--output", f"{stem}.json"]) != 0

    print(f"\nCSV tables and records in {args.out_dir}/")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
