"""The benchmark's workloads: fixed lists of boselgt CLI invocations.

Each op is one real ``boselgt`` command line plus an oracle that judges the
record the command wrote.  The workload seed goes to ``--seed`` of the
commands that take one (wilson-mc, verify-bounds, bose-exact); everything
else is seed-independent.

Oracles never trust the program's own verdicts alone:

* the d = 2 Monte Carlo op is checked against the exact d = 2 factorisation;
* bose-exact against the exact scaling identity
  log Z_unscaled - log Z_scaled = -(n_f / 2) M log s_B^2 and the Bose rate
  sandwich 0 <= log Z <= rate * n_sites;
* limit sweeps against their targets (errors shrink toward the limit);
* everything else against values stored in reference.json, computed at the
  seed commit: 1e-9 relative for deterministic results, four combined
  standard errors for Monte Carlo ones (the references are 1M-sample runs).

Monte Carlo ops are judged by their own error bar or the spread the
reference run measured, whichever is larger (see _mc_sigmas);
error_bar_missed() checks the op's own bar alone, and the traced run
counts its misses.
"""

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

MC_WORKERS = 2          # equals nproc on the 2-core box the baseline used
DET_RTOL = 1e-9         # deterministic results against stored values
MC_SIGMAS = 4.0         # Monte Carlo results against their references
IDENTITY_RTOL = 1e-10   # scaled/unscaled Bose identity, relative to |log Z|


@dataclass(frozen=True)
class Op:
    """One CLI invocation.

    label: stable name, the key into reference.json.
    argv: the command line after ``boselgt``, without --output.
    kind: selects the oracle and the numbers that identify the result.
    model: ModelParams keyword arguments of the op (oracles rebuild them).
    mc_samples: Haar configurations the op draws for its Monte Carlo
        estimate, 0 when it has none.
    """

    label: str
    argv: tuple
    kind: str
    model: dict = field(default_factory=dict)
    mc_samples: int = 0

    @property
    def is_mc(self):
        return self.mc_samples > 0

    def with_workers(self, n):
        argv = list(self.argv)
        argv[argv.index("--workers") + 1] = str(n)
        return replace(self, argv=tuple(argv))


def _model_argv(model):
    out = []
    for key, val in model.items():
        out += ["--" + key.replace("_", "-"), str(val)]
    return out


def _wilson(label, model, samples, seed):
    argv = ("wilson-mc", "--gauge-fixed", "--workers", str(MC_WORKERS),
            *_model_argv(model), "--samples", str(samples), "--seed", str(seed))
    return Op(label, argv, "wilson-mc", model, samples)


def _verify_full(label, model, samples, seed):
    argv = ("verify-bounds", "--workers", str(MC_WORKERS), *_model_argv(model),
            "--which", "full", "--samples", str(samples), "--seed", str(seed))
    return Op(label, argv, "verify-full", model, samples)


def _verify_bose(label, model, configs, seed):
    argv = ("verify-bounds", "--workers", str(MC_WORKERS), *_model_argv(model),
            "--which", "bose", "--configs", str(configs), "--seed", str(seed))
    return Op(label, argv, "verify-bose", model)


def _bose(label, model, seed):
    argv = ("bose-exact", "--gauge", "random", *_model_argv(model),
            "--seed", str(seed))
    return Op(label, argv, "bose-exact", model)


def _det(label, kind, *argv):
    return Op(label, (kind, *argv), kind)


def build_ops(workload, seed, scale=1.0):
    """Op list of one workload.  scale shrinks sample counts (self-tests)."""
    def n(samples):
        return max(64, int(samples * scale))

    su2 = {"d": 3, "L": 2, "n": 2, "kind": "SU"}
    if workload == "gauge-mc":
        return [
            _wilson("mc-d3L2-SU2", su2, n(100_000), seed),
            _wilson("mc-d3L2-U2", {"d": 3, "L": 2, "n": 2}, n(100_000), seed),
            _wilson("mc-d3L3-U1", {"d": 3, "L": 3, "n": 1}, n(50_000), seed),
            _wilson("mc-d2L4-U1", {"d": 2, "L": 4, "n": 1}, n(100_000), seed),
        ]
    if workload == "matter-exact":
        return [
            _bose("bose-d4L8-N1-real",
                  {"d": 4, "L": 8, "n": 1, "field_kind": "real"}, seed),
            _bose("bose-d3L8-N2-complex",
                  {"d": 3, "L": 8, "n": 2, "field_kind": "complex"}, seed),
        ]
    if workload == "bound-verify":
        return [
            _verify_full("full-d3L2-SU2", su2, n(50_000), seed),
            _verify_full("full-d2L3-U1", {"d": 2, "L": 3, "n": 1}, n(100_000), seed),
            _verify_bose("bose-bounds-d3L4-N2", {"d": 3, "L": 4, "n": 2},
                         max(2, int(200 * scale)), seed),
        ]
    if workload == "limits":
        return [
            _det("cue-gue-n1", "cue-gue", "--n", "1",
                 "--betas", "1,0.1,0.01,0.001,0.0001"),
            _det("cue-gue-n2", "cue-gue", "--n", "2",
                 "--betas", "1,0.1,0.01,0.001,0.0001"),
            _det("d2-limit-n1", "d2-limit", "--n", "1",
                 "--a-values", "1,0.1,0.01,0.001"),
            _det("d2-limit-n2", "d2-limit", "--n", "2",
                 "--a-values", "1,0.1,0.01,0.001"),
            _det("su2-check-d3", "su2-check", "--d", "3"),
            _det("z-bond-SU2-c2.5", "z-bond", "--kind", "SU", "--n", "2",
                 "--coupling", "2.5"),
            _det("z-bond-SU2-c50", "z-bond", "--kind", "SU", "--n", "2",
                 "--coupling", "50"),
            _det("sweep-d2", "sweep", "--a-values", "1,0.5,0.1",
                 "--L-values", "2,3,4", "--n-values", "1,2", "--force"),
        ]
    if workload == "defects":
        # Ops that fail at the seed commit; kept out of the timed workloads
        # (which must run clean) and run on their own to track the defects.
        return [
            _wilson("mc-d3L3-U1-a0.05", {"d": 3, "L": 3, "n": 1, "a": 0.05},
                    n(50_000), seed),
            _det("cue-gue-n3", "cue-gue", "--n", "3", "--betas", "1,0.1,0.01"),
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("gauge-mc", "matter-exact", "bound-verify", "limits")
ALL_WORKLOADS = WORKLOADS + ("defects",)


# ------------------------------------------------------------- results

def result_values(op, record, out_dir):
    """Numbers that identify an op's result, for bit-identity and references.

    For the sweep the per-point records it wrote are read too.
    """
    p = record["payload"]
    if op.kind == "wilson-mc":
        return {"log_value": p["log_value"], "std_error": p["std_error"]}
    if op.kind == "bose-exact":
        return {"scaled": p["scaled"]["log_value"],
                "unscaled": p["unscaled"]["log_value"]}
    if op.kind == "verify-full":
        full = p["checks"]["full"]
        return {"log_value": full["log_value"],
                "std_error_log": full["std_error_log"]}
    if op.kind == "verify-bose":
        bose = p["checks"]["bose"]
        return {"violations": bose["violations"],
                "worst_margin": bose["worst_margin"]}
    if op.kind in ("cue-gue", "d2-limit"):
        return {f"r{i}": r for i, r in enumerate(p["results"])}
    if op.kind == "su2-check":
        return {"scaled_value": p["scaled_value"]}
    if op.kind == "z-bond":
        return {"log_value": p["log_value"]}
    if op.kind == "sweep":
        out = {}
        for path in sorted(Path(p["out_dir"]).glob("point_*.json")):
            pay = json.loads(path.read_text())["payload"]
            out[path.stem + ":gauge"] = pay["gauge"]["log_value"]
            out[path.stem + ":bose"] = pay["bose_identity"]["log_value"]
        return out
    raise ValueError(op.kind)


def mc_rel_error(op, record):
    """Relative standard error of an op's Monte Carlo estimate.

    std_error / value for wilson-mc; for verify-bounds --which full the
    program's sigma_log, which is the same delta-method quantity.
    """
    value, err = _mc_estimate(op, record)
    return err / value if op.kind == "wilson-mc" else err


# --------------------------------------------------------------- oracles

def load_reference():
    return json.loads(REFERENCE_PATH.read_text())


def _rel_close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def _check_stored(values, stored, label):
    if stored is None:
        return [f"{label}: no stored reference"]
    problems = []
    if set(values) != set(stored):
        problems.append(f"{label}: result keys {sorted(values)} differ from "
                        f"the stored ones {sorted(stored)}")
    for key in values.keys() & stored.keys():
        if not _rel_close(values[key], stored[key], DET_RTOL):
            problems.append(f"{label}: {key} = {values[key]!r}, stored "
                            f"{stored[key]!r}")
    return problems


def _mc_estimate(op, record):
    """(value, the program's own standard error) on the reference's scale."""
    p = record["payload"]
    if op.kind == "wilson-mc":
        return p["value"], p["std_error"]
    full = p["checks"]["full"]
    return full["log_value"], full["std_error_log"]


def _d2_exact_log(model):
    from boselgt.actions import ModelParams
    from boselgt.partition import z_wilson_d2_exact

    return z_wilson_d2_exact(ModelParams(**model)).log_value


def _mc_reference(op, reference):
    """(centre, its error, the estimator's spread at the op's sample count).

    The centre is the exact factorisation for the d = 2 op and the stored
    reference["_meta"]["mc_samples"]-sample run for the others; the spread
    is that stored run's error scaled to op.mc_samples.
    """
    ref = reference.get(op.label)
    if ref is None:
        return None
    if op.kind == "wilson-mc":
        value, err = ref["value"], ref["std_error"]
    else:
        value, err = ref["log_value"], ref["std_error_log"]
    spread = err * math.sqrt(reference["_meta"]["mc_samples"] / op.mc_samples)
    if op.kind == "wilson-mc" and op.model.get("d") == 2:
        return math.exp(_d2_exact_log(op.model)), 0.0, spread
    return value, err, spread


def _mc_sigmas(op, record, reference, own_error_bar):
    """Distance of the estimate from its reference in combined errors.

    With own_error_bar the op's error is its own error bar.  Otherwise it is
    the larger of that bar and the estimator's spread at the op's sample
    count as the reference run measured it.  The weights are heavy-tailed:
    on some seeds a 1e5-sample run misses the rare large weights and
    reports too small an error bar, on others it catches one the 1e6-sample
    reference missed.  Either error estimate can then be too small, and
    neither case says the value is wrong.
    """
    value, own = _mc_estimate(op, record)
    centre, centre_err, spread = _mc_reference(op, reference)
    err = own if own_error_bar else max(own, spread)
    return abs(value - centre) / math.hypot(err, centre_err)


def error_bar_missed(op, record, reference):
    """True when an MC estimate lies beyond MC_SIGMAS of its own error bar
    combined with the reference's: the program's error bar is too small."""
    return _mc_sigmas(op, record, reference, own_error_bar=True) > MC_SIGMAS


def _check_sweep_convergence(label, payload):
    errs = [abs(r - payload["target"]) for r in payload["results"]]
    if any(b >= a for a, b in zip(errs, errs[1:])):
        return [f"{label}: errors {errs} do not shrink toward the limit"]
    if errs[-1] > 1e-3 * abs(payload["target"]):
        return [f"{label}: final error {errs[-1]:.3g} not within 1e-3 of the "
                f"target {payload['target']!r}"]
    return []


def _bose_exact_oracle(op, payload):
    from boselgt.actions import ModelParams
    from boselgt.bounds import bose_upper_rate

    params = ModelParams(**op.model)
    width = params.n if params.field_kind == "real" else 2 * params.n
    m = params.lattice.n_sites * width
    scaled = payload["scaled"]["log_value"]
    unscaled = payload["unscaled"]["log_value"]
    expect = -0.5 * params.n_flavors * m * math.log(params.scaling.bose_scale ** 2)
    problems = []
    if not abs((unscaled - scaled) - expect) <= IDENTITY_RTOL * max(
            abs(unscaled), abs(scaled), 1.0):
        problems.append(f"{op.label}: log Z_unscaled - log Z_scaled = "
                        f"{unscaled - scaled!r}, expected {expect!r}")
    cap = (params.n_flavors * bose_upper_rate(params.n, params.L, params.field_kind)
           * params.lattice.n_sites)
    if not 0.0 <= scaled <= cap:
        problems.append(f"{op.label}: log Z_B = {scaled!r} outside the rate "
                        f"sandwich [0, {cap!r}]")
    return problems


def check(op, code, record, values, reference):
    """Oracle for one op: a list of problems, empty when the op passed."""
    if code != 0:
        return [f"{op.label}: exit code {code}"]
    p = record["payload"]
    problems = []
    if op.kind == "verify-full":
        full = p["checks"]["full"]
        if full["verdict"] != "pass" or p["overall"] != "pass":
            problems.append(f"{op.label}: verdict {full['verdict']}")
    if op.is_mc:
        if _mc_reference(op, reference) is None:
            return problems + [f"{op.label}: no stored reference"]
        sigmas = _mc_sigmas(op, record, reference, own_error_bar=False)
        if not sigmas <= MC_SIGMAS:
            problems.append(f"{op.label}: estimate is {sigmas:.1f} combined "
                            "standard errors from its reference")
        return problems
    if op.kind == "bose-exact":
        return _bose_exact_oracle(op, p)
    if op.kind == "verify-bose":
        bose = p["checks"]["bose"]
        if bose["verdict"] != "pass" or bose["violations"] or p["overall"] != "pass":
            return [f"{op.label}: verdict {bose['verdict']} with "
                    f"{bose['violations']} violations"]
        return []
    problems = _check_stored(values, reference.get(op.label), op.label)
    if op.kind in ("cue-gue", "d2-limit"):
        problems += _check_sweep_convergence(op.label, p)
    if op.kind == "su2-check" and p["verdict"] != "pass":
        problems.append(f"{op.label}: verdict {p['verdict']}")
    return problems
