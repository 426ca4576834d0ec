"""boselgt benchmark: fixed CLI workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload gauge-mc --seed 1 --seconds 20 --trace 0

Each workload (see workloads.py) is a fixed list of real ``boselgt``
invocations run in this process through ``boselgt.cli.main(argv)``, one op
after another, so interpreter start-up stays out of the pass time; setup_s
measures it on its own in fresh interpreters.  Every op's record is checked
by an oracle; a nonzero exit, an exception or a failed oracle is a failed
op, and a pass repeats the first pass's results bit for bit.

--trace 0 prints the end-to-end metrics:
  setup_s      median wall of fresh interpreters that import boselgt.cli and
               build its parser (what every CLI call pays first);
  wall_s       upper quartile of the warm pass times over the ops (not the
               median: see typical_wall);
  wall_tail_s  highest percentile of pass times with at least ten passes
               beyond it, or wall_s when that is higher (41 passes or fewer);
  peak_rss_mb  peak resident memory of this process.
--trace 1 alternates untraced and traced passes and prints per-layer busy
times, counts and ratios per pass (spans.py), the Monte Carlo figures of
merit, the --workers 1 against --workers 2 speed-up (with a bit-identity
check), the import-time split and the tracing overhead.

Fixed conditions: one process, ops in sequence; Monte Carlo ops use
--workers 2; BLAS is pinned to one thread so worker threads and BLAS threads
do not oversubscribe the cores.  All records and CSVs go to a temporary
directory under .bench_out/, spans to .bench_out/spans-*.jsonl.
The last stdout line is the JSON result; the line before it the provenance.

--workload defects runs the two ops that fail at the seed commit (the
a = 0.05 underflow and the N = 3 peaked quadrature); it is not one of the
benchmark's workloads, which run clean, and reports correct: false until
both defects are fixed.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from spans import LAYER_UNITS, Tracer, instrument, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 3
TAIL_BEYOND = 10
TARGET_REL_ERR = 0.01
SETUP_CODE = "import boselgt.cli; boselgt.cli.build_parser()"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "wall_tail_s": "s",
                    "peak_rss_mb": "MB"}


def pin_blas_threads():
    """Must run before numpy is imported anywhere in the process."""
    for key in BLAS_ENV:
        os.environ[key] = "1"


# -------------------------------------------------------------- formulas

def typical_wall(times):
    """Upper quartile of pass times (needs two or more).

    On a shared host pass times fall into a fast regime that comes and goes
    within seconds and a slower one that holds most of the time.  The median
    lands between the two whenever the fast regime held for about half of a
    run, so over ten runs of the same code its quartile spread reached 0.28
    of its median.  The upper quartile stays in the slower regime unless the
    fast one held for three quarters of the run.
    """
    return statistics.quantiles(times, n=4, method="inclusive")[2]


def tail_value(times, beyond=TAIL_BEYOND):
    """Highest percentile of times with at least `beyond` samples above it;
    typical_wall(times) when too few samples leave that percentile below it."""
    ordered = sorted(times)
    typical = typical_wall(ordered)
    if len(ordered) <= beyond:
        return typical
    return max(ordered[len(ordered) - 1 - beyond], typical)


def time_to_rel_err(wall, rel_err, target=TARGET_REL_ERR):
    """Wall time the same estimator needs for relative error `target`.

    Error falls like 1/sqrt(samples) and time grows like samples, so an op
    that took `wall` for `rel_err` needs wall * (rel_err / target)^2.
    """
    return wall * (rel_err / target) ** 2


def ess_fraction(n_samples, rel_err):
    """Kish effective sample size over n, 1 / (1 + n rel_err^2).

    With weights of mean mu and variance s^2, ESS = (sum w)^2 / sum w^2
    = n mu^2 / (mu^2 + s^2) and rel_err^2 = s^2 / (n mu^2).
    """
    return 1.0 / (1.0 + n_samples * rel_err * rel_err)


# ----------------------------------------------------------------- ops

@dataclass
class OpResult:
    op: object
    code: object
    wall: float
    record: dict = None
    values: dict = None
    problems: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.problems


def run_op(op, out_dir):
    """Run one CLI invocation in process and read back its record."""
    from boselgt.cli import main as cli_main

    out = Path(out_dir) / "record.json"
    out.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli_main([*op.argv, "--output", str(out)])
    except SystemExit as exc:  # argparse rejects a command line this way
        code = exc.code
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        code = f"{type(exc).__name__}: {exc}"
    res = OpResult(op, code, time.perf_counter() - start)
    if code not in (0, 1):  # both of these write a record
        res.problems.append(f"{op.label}: exit {code}: {sink.getvalue().strip()}")
        return res
    try:
        res.record = json.loads(out.read_text())
        res.values = workloads.result_values(op, res.record, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        res.problems.append(f"{op.label}: unreadable record: {exc!r}")
    return res


def run_pass(ops, out_dir, reference, first=None, tracer=None, workers=None):
    """One pass over ops: run, then judge every op (outside its timing).

    first: results of the first pass, which every later pass must repeat
    bit for bit.  tracer: when given, each op runs inside a bench.op span.
    """
    results = []
    for i, op in enumerate(ops):
        if workers is not None:
            op = op.with_workers(workers)
        if tracer is None:
            res = run_op(op, out_dir)
        else:
            with tracer.recording("bench.op"):
                res = run_op(op, out_dir)
        if not res.problems:
            try:
                res.problems = workloads.check(op, res.code, res.record,
                                               res.values, reference)
            except (KeyError, TypeError, ValueError) as exc:
                res.problems = [f"{op.label}: record does not fit its oracle: "
                                f"{exc!r}"]
        if first is not None and first[i].values is not None \
                and res.values != first[i].values:
            res.problems.append(f"{op.label}: result differs from the first "
                                f"pass: {res.values} != {first[i].values}")
        results.append(res)
    return results


def pass_wall(results):
    return sum(r.wall for r in results)


# ------------------------------------------------------------ set-up

def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def measure_setup(repeats=SETUP_REPEATS):
    """Median wall of fresh interpreters importing boselgt.cli."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(),
                       cwd=ROOT, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def import_split(repeats=3):
    """Self import time (s) by top-level package, median over children."""
    groups = ("numpy", "scipy", "boselgt")
    samples = {g: [] for g in groups + ("total",)}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               SETUP_CODE], env=child_env(), cwd=ROOT,
                              check=True, timeout=120, capture_output=True,
                              text=True)
        sums = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3:
                continue
            try:
                self_us = float(parts[0].split(":")[1])
            except ValueError:
                continue  # the header line
            top = parts[2].strip().split(".")[0]
            sums["total"] += self_us * 1e-6
            if top in groups:
                sums[top] += self_us * 1e-6
        for key, val in sums.items():
            samples[key].append(val)
    return {key: statistics.median(vals) for key, vals in samples.items()}


def provenance(workload, seed, seconds, trace):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_lib = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_lib = "unknown"
    try:
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        describe = ""
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "blas_library": blas_lib,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "git_describe": describe or "unavailable (not a git checkout)",
        "workers": workloads.MC_WORKERS,
        "process": "one process per run, ops in sequence",
    }


# ------------------------------------------------------------- modes

@dataclass
class Outcome:
    metrics: dict
    passes: list            # every judged pass, first (cold) one included
    info: dict = field(default_factory=dict)

    @property
    def attempted(self):
        return sum(len(p) for p in self.passes)

    @property
    def failed(self):
        return sum(not r.ok for p in self.passes for r in p)

    def problems(self):
        return [msg for p in self.passes for r in p for msg in r.problems]


def measure_end_to_end(ops, seconds, out_dir, reference,
                       setup_repeats=SETUP_REPEATS):
    setup = measure_setup(setup_repeats)
    deadline = time.perf_counter() + seconds
    first = run_pass(ops, out_dir, reference)  # cold pass, judged, untimed
    passes = []
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        passes.append(run_pass(ops, out_dir, reference, first))
    walls = [pass_wall(p) for p in passes]
    metrics = {
        "setup_s": setup,
        "wall_s": typical_wall(walls),
        "wall_tail_s": tail_value(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"timed_passes": len(walls), "wall_median_s": statistics.median(walls),
            "pass_walls_s": walls}
    return Outcome(metrics, [first] + passes, info)


def mc_figures(ops, untraced, reference):
    """Monte Carlo figures from untraced passes: samples/s, time to 1%, ESS,
    and how many estimates missed their reference by their own error bar."""
    mc = [i for i, op in enumerate(ops) if op.is_mc]
    op_wall = {i: statistics.median(p[i].wall for p in untraced) for i in mc}
    good = [i for i in mc if untraced[0][i].ok]
    t1 = sum(time_to_rel_err(op_wall[i],
                             workloads.mc_rel_error(ops[i], untraced[0][i].record))
             for i in good)
    ess = [ess_fraction(ops[i].mc_samples,
                        workloads.mc_rel_error(ops[i], untraced[0][i].record))
           for i in good]
    samples = sum(ops[i].mc_samples for i in good)
    wall = statistics.median(pass_wall(p) for p in untraced)
    misses = sum(workloads.error_bar_missed(ops[i], untraced[0][i].record,
                                            reference) for i in good)
    return {"mc.samples_per_s": samples / wall if good else 0.0,
            "mc.time_to_1pct_s": t1,
            "mc.ess_frac": min(ess) if ess else 0.0,
            "mc.error_bar_misses": misses}, op_wall


def measure_layers(ops, seconds, out_dir, reference, spans_path):
    """Alternate untraced and traced passes, then rerun the MC ops at one
    worker; the spans go to spans_path."""
    deadline = time.perf_counter() + seconds
    first = run_pass(ops, out_dir, reference)
    tracer = Tracer()
    instrument(tracer)
    untraced, traced = [], []
    try:
        while not traced or time.perf_counter() < deadline:
            untraced.append(run_pass(ops, out_dir, reference, first))
            traced.append(run_pass(ops, out_dir, reference, first, tracer))
    finally:
        tracer.restore()
    metrics = layer_metrics(tracer.spans, len(traced))
    figures, op_wall = mc_figures(ops, untraced, reference)
    metrics.update(figures)

    # --workers 1 rerun: same estimate bit for bit, and its wall for speed-up.
    mc_ops = [op for op in ops if op.is_mc]
    single = run_pass(mc_ops, out_dir, reference, workers=1)
    mc_first = [r for r in first if r.op.is_mc]
    speedups = {}
    for res, ref in zip(single, mc_first):
        if res.values != ref.values:
            res.problems.append(f"{res.op.label}: --workers 1 result "
                                f"{res.values} differs from --workers 2 "
                                f"{ref.values}")
        speedups[res.op.label] = res.wall / op_wall[ops.index(ref.op)]
    w1 = sum(r.wall for r in single)
    w2 = sum(op_wall[ops.index(r.op)] for r in mc_first)
    metrics["mc.speedup_2w"] = w1 / w2 if mc_ops else 0.0

    imports = import_split()
    metrics["cli.import_s"] = imports["total"]
    for group in ("numpy", "scipy", "boselgt"):
        metrics[f"cli.import_{group}_s"] = imports[group]
    untraced_wall = statistics.median(pass_wall(p) for p in untraced)
    traced_wall = statistics.median(pass_wall(p) for p in traced)
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    info = {"traced_passes": len(traced), "speedup_2w_per_op": speedups,
            "spans_file": str(tracer.write(spans_path))}
    return Outcome(metrics, [first] + untraced + traced + [single], info)


# -------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.ALL_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload, seed, seconds, trace, scale=1.0, setup_repeats=SETUP_REPEATS):
    """Run one workload and return (Outcome, provenance)."""
    ops = workloads.build_ops(workload, seed, scale)
    reference = workloads.load_reference()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    saved = os.environ.get("BOSELGT_OUTPUT_DIR")
    os.environ["BOSELGT_OUTPUT_DIR"] = tmp
    try:
        if trace:
            outcome = measure_layers(ops, seconds, tmp, reference,
                                     OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
        else:
            outcome = measure_end_to_end(ops, seconds, tmp, reference,
                                         setup_repeats)
    finally:
        if saved is None:
            os.environ.pop("BOSELGT_OUTPUT_DIR", None)
        else:
            os.environ["BOSELGT_OUTPUT_DIR"] = saved
        shutil.rmtree(tmp, ignore_errors=True)
    return outcome, provenance(workload, seed, seconds, trace)


def unit_of(name):
    return END_TO_END_UNITS.get(name) or LAYER_UNITS[name]


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "boselgt" / "cli.py").is_file():
        print(f"error: boselgt sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    outcome, prov = run(args.workload, args.seed, args.seconds, args.trace)
    for name, value in outcome.metrics.items():
        print(f"{name} = {value:.6g} {unit_of(name)}")
    for msg in outcome.problems():
        print(f"FAILED {msg}")
    print(json.dumps({"provenance": prov, **outcome.info}))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in outcome.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
