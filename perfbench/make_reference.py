"""Regenerate reference.json, the stored results the oracles compare against.

Deterministic ops store the numbers their records carry; Monte Carlo ops
store a 1M-sample estimate with its standard error at a seed no workload
run uses (for the d = 2 op only its spread is used: its value is exact).
bose-exact and the Bose bound check need no stored value and get none.  The file was made at the
seed commit and should be regenerated only when a change is meant to alter
results, never to make a run pass.

    python3 perfbench/make_reference.py
"""

import json
import os
import sys
import tempfile
import warnings

from run import ROOT, pin_blas_threads, run_op

pin_blas_threads()
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

REF_SEED = 987_654_321
REF_SAMPLES = 1_000_000


def main():
    from boselgt.actions import ModelParams
    from boselgt.bounds import verify_full_model
    from boselgt.partition import z_wilson_mc

    reference = {"_meta": {"mc_seed": REF_SEED, "mc_samples": REF_SAMPLES,
                           "workers": workloads.MC_WORKERS}}
    ops = {op.label: op for w in workloads.WORKLOADS
           for op in workloads.build_ops(w, seed=0)}
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        os.environ["BOSELGT_OUTPUT_DIR"] = tmp
        for label, op in ops.items():
            if op.kind == "wilson-mc":
                est = z_wilson_mc(ModelParams(**op.model), REF_SAMPLES, REF_SEED,
                                  n_workers=workloads.MC_WORKERS, gauge_fixed=True)
                reference[label] = {"value": est.value, "std_error": est.std_error}
            elif op.kind == "verify-full":
                rep = verify_full_model(ModelParams(**op.model), REF_SAMPLES,
                                        REF_SEED, n_workers=workloads.MC_WORKERS)
                reference[label] = {"log_value": rep.log_value,
                                    "std_error_log": rep.std_error_log}
            elif not op.is_mc and op.kind not in ("bose-exact", "verify-bose"):
                res = run_op(op, tmp)
                if res.code == 0:
                    reference[label] = res.values
            print(f"{label}: {reference.get(label, 'no reference')}")
    workloads.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
