"""Command line interface.

One subcommand per task; every invocation writes a ResultRecord JSON (path
printed last) and a human-readable summary to stdout.  Option values resolve
in the order defaults < config file < flags.  The config file is INI style:
a [common] section plus one section per subcommand, keys matching the long
option names (dashes or underscores both work), e.g.

    [common]
    seed = 7

    [wilson-mc]
    samples = 200000
    gauge-fixed = true

Exit codes: 0 success (and pass verdicts), 1 a verification verdict failed,
2 usage errors, 3 numeric failures (quadrature not converging, a quadratic
form losing positivity, a warning raised under -W error) or I/O failures.

The argparse parser is built once per process, on the first main call, and
reused by every later call in the process: each parse fills a new
namespace, and no option has a default there (argparse.SUPPRESS), so
nothing carries over from one call to the next.
"""

import argparse
import configparser
import itertools
import sys
import time
import warnings
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path

from . import mc
from .actions import ModelParams
from .bounds import (BoundConstants, bose_upper_rate, verify_bose_bounds,
                     verify_full_model, verify_gauge_bounds)
from .errors import NumericError, UsageError
from .haar import haar_sample
from .lattice import GaugeFixing, Lattice, coupling
from .partition import (z_bose_exact, z_bose_exact_unscaled, z_single_bond,
                        z_wilson_d2_exact, z_wilson_mc)
from .records import (ResultRecord, default_output_dir, estimate_payload,
                      safe_value, utc_now_iso, write_csv)
from .rmt import sweep_cue_gue, sweep_d2_limit
from .su2 import su2_bounds_check

_BOOL_STRINGS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


@dataclass(frozen=True)
class Opt:
    flag: str
    kind: str            # int | float | str | bool | floats | ints
    default: object
    help: str
    choices: tuple = None

    @property
    def dest(self):
        return self.flag.lstrip("-").replace("-", "_")


def _comma_list(item):
    def parse(text):
        values = tuple(item(t) for t in text.split(",") if t.strip())
        if not values:
            raise UsageError(f"empty list {text!r}")
        return values
    parse.__name__ = f"{item.__name__} list"  # argparse names it on failure
    return parse


def _parse_bool(text):
    return _BOOL_STRINGS[text.lower()]


# One parser per Opt.kind, used as the argparse type= of a flag and on the
# raw string of a config-file value; each raises ValueError or KeyError.
_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "floats": _comma_list(float), "ints": _comma_list(int)}


COMMON_OPTS = (
    Opt("--config", "str", None, "INI file with [common] and per-command sections"),
    Opt("--output", "str", None,
        "result record path, overwritten (default: a new file "
        "$BOSELGT_OUTPUT_DIR/<command>-<utc>[-2, -3, ...].json)"),
)

MODEL_OPTS = (
    Opt("--d", "int", 2, "lattice dimension (2, 3 or 4)"),
    Opt("--L", "int", 3, "sites per side (>= 2)"),
    Opt("--n", "int", 1, "matrix size N of the gauge group"),
    Opt("--kind", "str", "U", "gauge group family", ("U", "SU")),
    Opt("--field-kind", "str", "real", "matter field type", ("real", "complex")),
    Opt("--a", "float", 1.0, "lattice spacing in (0, 1]"),
    Opt("--g-sq", "float", 1.0, "gauge coupling g^2"),
    Opt("--g0-sq", "float", 4.0, "reference coupling bound g0^2 >= g^2"),
    Opt("--kappa-u-sq", "float", 1.0, "unscaled hopping parameter squared"),
    Opt("--m-u", "float", 0.0, "unscaled mass"),
    Opt("--n-flavors", "int", 1, "number of matter flavors"),
)

MC_OPTS = (
    Opt("--samples", "int", 100_000, "Monte Carlo sample count"),
    Opt("--seed", "int", 0, "base seed of the counter RNG"),
    Opt("--workers", "int", 1, "worker threads (results identical for any count)"),
    Opt("--block-size", "int", mc.DEFAULT_BLOCK_SIZE,
        "Monte Carlo samples per RNG block (fixed block size keeps runs "
        "reproducible); the verify-bounds Bose check always draws 32 "
        "configurations per block"),
)

_MODEL_OPT = {o.dest: o for o in MODEL_OPTS}


def _model_opts(*dests):
    """The MODEL_OPTS entries with these dests, in the order given."""
    return tuple(_MODEL_OPT[dest] for dest in dests)


def _params_from_cfg(cfg):
    return ModelParams(**{dest: cfg[dest] for dest in _MODEL_OPT if dest in cfg})


# ------------------------------------------------------------ subcommands

def run_lattice_info(cfg):
    lat = Lattice(d=cfg["d"], L=cfg["L"])
    fixing = GaugeFixing.enhanced_temporal(lat)
    payload = {
        "n_sites": lat.n_sites,
        "n_bonds": lat.n_bonds,
        "n_plaquettes": lat.n_plaquettes,
        "n_tree_bonds": int(len(fixing.tree_bonds)),
        "n_retained_bonds": lat.n_retained,
        "spanning_tree": bool(fixing.is_spanning_tree()),
    }
    print(f"lattice d={lat.d} L={lat.L}")
    for key in ("n_sites", "n_bonds", "n_plaquettes", "n_retained_bonds"):
        print(f"  {key} = {payload[key]}")
    return payload, 0


def run_z_bond(cfg):
    if cfg["coupling"] is not None:
        c = cfg["coupling"]
    else:
        c = coupling(cfg["a"], cfg["g_sq"], cfg["d"])
    log_z = z_single_bond(c, cfg["n"], kind=cfg["kind"]).log_value
    payload = {"coupling": float(c), "n": cfg["n"], "kind": cfg["kind"],
               "value": safe_value(log_z), "log_value": log_z}
    print(f"log z({cfg['kind']}({cfg['n']}), c={c:g}) = {log_z:.12g}")
    return payload, 0


def run_bose_exact(cfg):
    params = _params_from_cfg(cfg)
    bonds = None  # the identity, summed in closed form
    if cfg["gauge"] == "random":
        bonds = haar_sample(mc.block_rng(cfg["seed"], 0), params.n,
                            kind=params.kind, size=params.lattice.n_bonds)
    scaled = z_bose_exact(params, bonds)
    unscaled = z_bose_exact_unscaled(params, scaled)
    payload = {"gauge": cfg["gauge"], "seed": cfg["seed"],
               "scaled": estimate_payload(scaled),
               "unscaled": estimate_payload(unscaled)}
    print(f"log Z_B (scaled)   = {scaled.log_value:.12g}")
    print(f"log Z_B (unscaled) = {unscaled.log_value:.12g}")
    return payload, 0


def run_wilson_mc(cfg):
    params = _params_from_cfg(cfg)
    est = z_wilson_mc(params, cfg["samples"], cfg["seed"],
                      n_workers=cfg["workers"], gauge_fixed=cfg["gauge_fixed"],
                      block_size=cfg["block_size"])
    payload = {"gauge_fixed": cfg["gauge_fixed"], **estimate_payload(est)}
    print(f"Z_w = {est.value:.10g} +/- {est.std_error:.3g} "
          f"({est.n_samples} samples, seed {est.seed})")
    return payload, 0


def run_verify_bounds(cfg):
    params = _params_from_cfg(cfg)
    # The gauge constants exist for fewer groups than the Bose check, and for
    # g^2 <= g0^2 only: they are built before any check runs, and a Bose
    # check without them records them as null.
    try:
        consts = BoundConstants.for_params(params)
        gauge_lower, gauge_upper = consts.gauge_lower, consts.gauge_upper
    except UsageError:
        if cfg["which"] != "bose":
            raise
        gauge_lower = gauge_upper = None
    mc_args = {"n_workers": cfg["workers"], "block_size": cfg["block_size"]}
    # The verifiers are looked up when a check runs, not when this table is
    # built, so a caller that rebinds a module name sees its calls.
    runs = {
        "bose": lambda: report_sampled_check(
            verify_bose_bounds(params, cfg["configs"], cfg["seed"],
                               n_workers=cfg["workers"]), unit="configs"),
        "gauge": lambda: report_bound(verify_gauge_bounds(
            params, n_samples=cfg["samples"], seed=cfg["seed"], **mc_args)),
        "full": lambda: report_bound(verify_full_model(
            params, cfg["samples"], cfg["seed"], **mc_args)),
    }
    checks = {name: run() for name, run in runs.items()
              if cfg["which"] in (name, "all")}
    all_pass = all(chk["verdict"] == "pass" for chk in checks.values())
    payload = {"checks": checks,
               "rates": {"bose_upper": bose_upper_rate(params.n, params.L,
                                                       params.field_kind),
                         "gauge_lower": gauge_lower, "gauge_upper": gauge_upper},
               "overall": "pass" if all_pass else "fail"}
    print(f"overall: {payload['overall']}")
    return payload, 0 if all_pass else 1


def report_sampled_check(chk, unit="draws"):
    """Print a SampledBoundCheck's verdict line and return its payload."""
    payload = {"violations": chk.violations, "n_samples": chk.n_samples,
               "worst_margin": chk.worst_margin,
               "verdict": "pass" if chk.passed else "fail"}
    print(f"{chk.name}: {payload['verdict']} ({chk.violations} violations "
          f"in {chk.n_samples} {unit}, worst margin {chk.worst_margin:.3g})")
    if chk.recounted is not None:
        payload["recounted"] = chk.recounted
        print(f"{chk.name} round-off recount: {chk.recounted} float slacks "
              "below 0 hold at 50 digits")
    return payload


def report_bound(rep):
    """Print a BoundReport's verdict line and return its payload."""
    print(f"{rep.name}: {rep.verdict} ({rep.method}, log value "
          f"{rep.log_value:.6g} in [{rep.log_lower:.6g}, {rep.log_upper:.6g}], "
          f"sigma_log {rep.std_error_log:.2g})")
    return {"log_value": rep.log_value, "log_lower": rep.log_lower,
            "log_upper": rep.log_upper, "std_error_log": rep.std_error_log,
            "n_samples": rep.n_samples, "method": rep.method,
            "verdict": rep.verdict}


def _limit_table(sweep, csv_path):
    """Write and print a LimitSweep's table; the payload's shared entries."""
    rows = sweep.rows()
    write_csv(csv_path, [sweep.parameter, "value", "target", "abs_err"], rows)
    for v, val, target, err in rows:
        print(f"{sweep.parameter}={v:<10g} value={val:.10g} "
              f"target={target:.10g} abs_err={err:.3g}")
    return {"results": list(sweep.results), "target": sweep.target,
            "csv": str(csv_path)}


def run_cue_gue(cfg):
    sweep = sweep_cue_gue(cfg["betas"], cfg["n"], action=cfg["action"])
    csv_path = cfg["csv"] or default_output_dir() / (
        f"cue-gue-n{cfg['n']}-{cfg['action']}.csv")
    return {"n": cfg["n"], "action": cfg["action"], "betas": list(sweep.values),
            **_limit_table(sweep, csv_path)}, 0


def run_d2_limit(cfg):
    sweep = sweep_d2_limit(cfg["a_values"], n=cfg["n"], g_sq=cfg["g_sq"])
    csv_path = cfg["csv"] or default_output_dir() / f"d2-limit-n{cfg['n']}.csv"
    return {"n": cfg["n"], "g_sq": cfg["g_sq"], "a_values": list(sweep.values),
            **_limit_table(sweep, csv_path)}, 0


def run_su2_check(cfg):
    chk = su2_bounds_check(cfg["a"], cfg["g_sq"], cfg["d"], g0_sq=cfg["g0_sq"])
    payload = {"scaled_value": chk.scaled_value, "lower": chk.lower,
               "upper": chk.upper, "verdict": "pass" if chk.passed else "fail"}
    print(f"SU(2) scaled one-bond value {chk.scaled_value:.10g} in "
          f"[{chk.lower:.6g}, {chk.upper:.6g}]: {payload['verdict']}")
    return payload, 0 if chk.passed else 1


def _name_float(x):
    """x as a file name part: :g when that reads back to x, else repr.

    :g keeps six significant digits, so two grid values that agree to six
    digits would otherwise share a record.
    """
    short = f"{x:g}"
    return short if float(short) == x else repr(x)


def run_sweep(cfg):
    out_dir = Path(cfg["out_dir"]) if cfg["out_dir"] else (
        default_output_dir() / "sweep")
    out_dir.mkdir(parents=True, exist_ok=True)
    computed = skipped = 0
    points = list(itertools.product(
        cfg["a_values"], cfg["g_sq_values"], cfg["L_values"], cfg["n_values"]))
    for a, g_sq, L, n in points:
        name = (f"point_a{_name_float(a)}_g{_name_float(g_sq)}_L{L}_n{n}_"
                f"{cfg['kind']}.json")
        path = out_dir / name
        if path.exists() and not cfg["force"]:
            skipped += 1
            print(f"skip {name} (record exists)")
            continue
        t0 = time.perf_counter()
        params = ModelParams(d=2, L=L, n=n, kind=cfg["kind"], a=a, g_sq=g_sq)
        gauge = z_wilson_d2_exact(params)
        bose = z_bose_exact(params)
        point_payload = {
            "gauge": estimate_payload(gauge),
            "bose_identity": estimate_payload(bose),
            "log_gauge_per_retained_bond":
                gauge.log_value / params.lattice.n_retained,
            "log_bose_per_site": bose.log_value / params.lattice.n_sites,
        }
        point_cfg = {"a": a, "g_sq": g_sq, "L": L, "n": n,
                     "kind": cfg["kind"], "d": 2}
        ResultRecord(command="sweep-point", config=point_cfg,
                     payload=point_payload,
                     wall_time_s=time.perf_counter() - t0).write(path)
        computed += 1
        print(f"done {name}")
    payload = {"n_points": len(points), "computed": computed,
               "skipped": skipped, "out_dir": str(out_dir)}
    print(f"sweep: {computed} computed, {skipped} skipped, "
          f"records in {out_dir}")
    return payload, 0


@dataclass(frozen=True)
class Command:
    help: str
    opts: tuple
    run: callable


COMMANDS = {
    "lattice-info": Command(
        "site, bond, plaquette and gauge-tree counts",
        _model_opts("d", "L"),
        run_lattice_info),
    "z-bond": Command(
        "one-bond gauge partition value by quadrature",
        (Opt("--coupling", "float", None,
             "coupling c directly (overrides --a/--g-sq/--d)"),)
        + _model_opts("n", "kind", "a", "g_sq", "d"),
        run_z_bond),
    "bose-exact": Command(
        "exact matter-sector determinant on a fixed gauge configuration",
        _model_opts("d", "L", "n", "kind", "field_kind", "a", "kappa_u_sq", "m_u",
                    "n_flavors") + (
            Opt("--gauge", "str", "identity", "gauge configuration",
                ("identity", "random")),
            Opt("--seed", "int", 0, "seed for --gauge random")),
        run_bose_exact),
    "wilson-mc": Command(
        "Monte Carlo estimate of the gauge partition value",
        _model_opts("d", "L", "n", "kind", "a", "g_sq") + MC_OPTS + (
            Opt("--gauge-fixed", "bool", False,
                "sample only bonds outside the gauge tree"),),
        run_wilson_mc),
    "verify-bounds": Command(
        "check partition values against their proved rate bounds",
        MODEL_OPTS + MC_OPTS + (
            Opt("--which", "str", "all", "which sector to verify",
                ("bose", "gauge", "full", "all")),
            Opt("--configs", "int", 100,
                "random gauge configurations for the matter-sector check")),
        run_verify_bounds),
    "cue-gue": Command(
        "sweep of the normalized one-bond value toward its Gaussian limit",
        _model_opts("n")
        + (Opt("--betas", "floats", (1e-1, 1e-2, 1e-3, 1e-4),
               "comma list of inverse couplings"),
           Opt("--action", "str", "cosine", "integrand family",
               ("cosine", "quadratic")),
           Opt("--csv", "str", None, "CSV output path")),
        run_cue_gue),
    "d2-limit": Command(
        "sweep of the d = 2 normalized free energy toward its limit",
        _model_opts("n")
        + (Opt("--a-values", "floats", (1.0, 1e-1, 1e-2, 1e-3),
               "comma list of lattice spacings"),)
        + _model_opts("g_sq")
        + (Opt("--csv", "str", None, "CSV output path"),),
        run_d2_limit),
    "su2-check": Command(
        "SU(2) scaled one-bond value against its uniform bounds",
        (replace(_MODEL_OPT["d"], default=3),)
        + _model_opts("a", "g_sq", "g0_sq"),
        run_su2_check),
    "sweep": Command(
        "grid of exact d = 2 values over (a, g^2, L, N), resumable",
        (Opt("--a-values", "floats", (1.0, 0.5), "lattice spacings"),
         Opt("--g-sq-values", "floats", (1.0,), "gauge couplings"),
         Opt("--L-values", "ints", (2, 3), "side lengths"),
         Opt("--n-values", "ints", (1,), "matrix sizes"))
        + _model_opts("kind")
        + (Opt("--out-dir", "str", None,
               "directory for per-point records (resume unit)"),
           Opt("--force", "bool", False, "recompute existing records")),
        run_sweep),
}


# ------------------------------------------------------- option resolution

def _add_opt(sp, opt):
    kw = {"help": opt.help, "default": argparse.SUPPRESS, "dest": opt.dest}
    if opt.kind == "bool":
        sp.add_argument(opt.flag, action="store_true", **kw)
    else:
        sp.add_argument(opt.flag, type=_PARSERS[opt.kind], choices=opt.choices,
                        **kw)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="boselgt",
        description="lattice gauge-matter partition values, bounds and limits")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, description=command.help)
        for opt in COMMON_OPTS + command.opts:
            _add_opt(sp, opt)
    return parser


@cache
def _parser():
    """The process's one parser, from build_parser looked up at first use."""
    return build_parser()


def _coerce(opt, raw, origin):
    raw = raw.strip()
    try:
        value = _PARSERS[opt.kind](raw)
    except (ValueError, KeyError):
        raise UsageError(f"{origin}: cannot parse {raw!r} for {opt.flag}") from None
    if opt.choices and value not in opt.choices:
        raise UsageError(
            f"{origin}: {opt.flag} must be one of {opt.choices}, got {raw!r}")
    return value


def read_config_file(path, command, opts):
    parser = configparser.ConfigParser(interpolation=None)  # plain key = value
    parser.optionxform = str  # keep case so keys match option names like --L
    try:
        found = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise UsageError(f"malformed config file {path}: {exc}") from None
    if not found:
        raise UsageError(f"config file not found or unreadable: {path}")
    by_dest = {o.dest: o for o in opts}
    declared = {o.dest for c in COMMANDS.values() for o in c.opts}
    out = {}
    for section in ("common", command):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            dest = key.replace("-", "_")
            if dest in ("config", "output"):
                continue
            if dest not in by_dest:
                if section == "common" and dest in declared:
                    continue  # shared key some other command uses
                raise UsageError(
                    f"unknown option {key!r} in section [{section}] of {path}")
            out[dest] = _coerce(by_dest[dest], raw, f"{path} [{section}]")
    return out


def resolve_config(command, given, opts):
    cfg = {o.dest: o.default for o in opts}
    config_file = given.get("config", cfg.get("config"))
    if config_file:
        cfg.update(read_config_file(config_file, command, opts))
    cfg.update(given)
    return cfg


def main(argv=None):
    args = _parser().parse_args(argv)
    given = vars(args)
    command = given.pop("command")
    spec = COMMANDS[command]
    opts = COMMON_OPTS + spec.opts
    with warnings.catch_warnings():   # the filters in force decide what prints
        warnings.showwarning = lambda msg, *_: print(f"warning: {msg}", file=sys.stderr)
        try:
            cfg = resolve_config(command, given, opts)
            if "seed" in cfg:  # echoed in the record even where nothing is drawn
                mc.check_seed(cfg["seed"])
            start = time.perf_counter()
            payload, code = spec.run(cfg)
            wall = time.perf_counter() - start
            echo = {k: (list(v) if isinstance(v, tuple) else v)
                    for k, v in cfg.items() if k not in ("config", "output")}
            record = ResultRecord(command=command, config=echo, payload=payload,
                                  wall_time_s=wall)
            if cfg.get("output"):
                path = record.write(cfg["output"])
            else:  # the name holds the second: runs within one must not collide
                stamp = utc_now_iso().replace(":", "").replace("+0000", "Z")
                path = record.write(default_output_dir() / f"{command}-{stamp}.json",
                                    exclusive=True)
            print(f"record: {path}")
            return code
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (NumericError, Warning) as exc:   # a Warning raised under -W error
            print(f"numeric error: {exc}", file=sys.stderr)
            return 3
        except OSError as exc:
            print(f"i/o error: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())
