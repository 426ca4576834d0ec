"""The command-line scripts under scripts/, run end to end at small sizes.

Both scripts are batches of `boselgt` CLI runs, so these tests read back the
records the runs write as well as the lines they print.
"""

import csv
import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest

from boselgt.actions import ModelParams
from boselgt.bounds import (BoundConstants, verify_bose_bounds,
                            verify_full_model, verify_gauge_bounds)
from boselgt.records import ResultRecord, load_schema

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_record(path):
    jsonschema.validate(json.loads(path.read_text()), load_schema())
    return ResultRecord.load(path)


def test_limit_sweeps_write_their_tables(tmp_path, capsys):
    script = load_script("run_limit_sweeps")
    code = script.main(["--beta-min", "0.01", "--a-min", "0.01",
                        "--out-dir", str(tmp_path)])
    assert code == 0
    sweeps = {"cue_gue": ("cue-gue", "beta,value,target,abs_err", "betas"),
              "d2_limit": ("d2-limit", "a,value,target,abs_err", "a_values")}
    for stem, (command, header, key) in sweeps.items():
        for n in (1, 2):
            csv_path = tmp_path / f"{stem}_n{n}.csv"
            lines = csv_path.read_text().splitlines()
            assert lines[0] == header
            assert len(lines) == 4  # header + three decades
            rec = read_record(tmp_path / f"{stem}_n{n}.json")
            assert rec.command == command
            assert rec.config["n"] == n
            assert rec.payload["csv"] == str(csv_path)
            assert rec.payload[key] == [1.0, 0.1, 0.01]
            rows = list(csv.reader(lines[1:]))
            assert [float(r[1]) for r in rows] == rec.payload["results"]
    assert len(list(tmp_path.iterdir())) == 8
    assert f"CSV tables and records in {tmp_path}/" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_bound_suite_runs_to_its_summary(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    script = load_script("run_bound_suite")
    code = script.main(["--configs", "4", "--samples", "2000",
                        "--draws", "2000", "--workers", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip().endswith("all checks passed")
    points, suites = out.split("== group-level inequalities ==")
    tags = ("d=2 L=3 U(1)", "d=2 L=4 U(2)", "d=3 L=2 SU(2)")
    sections = points.split("\n== ")[1:]
    assert [s.split(" ==")[0] for s in sections] == list(tags)
    # Each point is one verify-bounds run: its check lines, with the Bose
    # worst margin and the error behind the other two verdicts.
    for section in sections:
        lines = section.splitlines()
        bose, = [l for l in lines if l.startswith("bose-sector bounds: ")]
        assert "pass (0 violations in 4 configs, worst margin " in bose
        for name in ("gauge-sector bounds", "full-model bounds"):
            line, = [l for l in lines if l.startswith(f"{name}: ")]
            assert ", sigma_log " in line, line
        assert "overall: pass" in lines
    # Every plaquette cell and suite key prints its count and worst margin.
    names = [f"plaquette quadratic bound {g} k={k}"
             for g in ("U(1)", "SU(2)") for k in (1, 2, 3, 4)]
    names += ["density-lower", "density-upper", "lower-quadratic",
              "su2-pointwise", "upper-quadratic"]
    lines = suites.splitlines()
    for name in names:
        line, = [l for l in lines if l.startswith(f"{name}: ")]
        assert "pass (0 violations in 2000 draws, worst margin " in line, line

    records = {(r.config["d"], r.config["L"], r.config["n"], r.config["kind"]): r
               for r in map(read_record, tmp_path.glob("verify-bounds-*.json"))}
    assert sorted(records) == [(2, 3, 1, "U"), (2, 4, 2, "U"), (3, 2, 2, "SU")]
    assert all(r.payload["overall"] == "pass" for r in records.values())
    # One point's record holds what the verifiers return for its arguments.
    params = ModelParams(d=2, L=3, n=1, kind="U")
    bose = verify_bose_bounds(params, 4, 0, n_workers=1)
    reports = {"gauge": verify_gauge_bounds(params, n_samples=2000, seed=0),
               "full": verify_full_model(params, 2000, 0)}
    consts = BoundConstants.for_params(params)
    checks = {"bose": {"violations": bose.violations,
                       "n_samples": bose.n_samples,
                       "worst_margin": bose.worst_margin, "verdict": "pass"}}
    for name, rep in reports.items():
        checks[name] = {"log_value": rep.log_value, "log_lower": rep.log_lower,
                        "log_upper": rep.log_upper,
                        "std_error_log": rep.std_error_log,
                        "n_samples": rep.n_samples, "method": rep.method,
                        "verdict": rep.verdict}
    assert records[(2, 3, 1, "U")].payload == {
        "checks": checks,
        "rates": {"bose_upper": consts.bose_upper,
                  "gauge_lower": consts.gauge_lower,
                  "gauge_upper": consts.gauge_upper},
        "overall": "pass"}
