"""End-to-end checks of the command line interface.

Each test drives main() in process and reads back the JSON record the
invocation writes, so option resolution, payload shape and exit codes are
exercised the way a shell user hits them.
"""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from scipy.special import ive, logsumexp

from boselgt import cli
from boselgt.actions import ModelParams, PlaquettePlan, ScalingFactors, plaquette_actions
from boselgt.bounds import group_dim, verify_full_model, verify_gauge_bounds
from boselgt.cli import main
from boselgt.haar import haar_sample
from boselgt.mc import block_rng
from boselgt.partition import (log_z_bose, log_z_bose_identity, z_bose_exact,
                               z_single_bond, z_wilson_mc)
from boselgt.records import ResultRecord, load_schema
from boselgt.rmt import d2_limit_target
from boselgt.su2 import su2_bound_constants, su2_haar, su2_to_matrix

SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def read_record(path):
    jsonschema.validate(json.loads(path.read_text()), load_schema())
    return ResultRecord.load(path)


def test_lattice_info_counts(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, stdout, _ = run_cli(
        ["lattice-info", "--d", 2, "--L", 3, "--output", out], capsys)
    assert code == 0
    assert stdout.startswith("lattice d=2 L=3\n")
    assert f"record: {out}" in stdout
    rec = read_record(out)
    assert rec.command == "lattice-info"
    assert rec.payload["n_sites"] == 9
    assert rec.payload["n_bonds"] == 12
    assert rec.payload["n_plaquettes"] == 4
    assert rec.payload["n_retained_bonds"] == 4
    assert rec.payload["spanning_tree"] is True
    assert rec.config == {"d": 2, "L": 3}


def test_default_record_path_uses_env_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    code, stdout, _ = run_cli(["lattice-info", "--L", 2], capsys)
    assert code == 0
    written = list(tmp_path.glob("lattice-info-*.json"))
    assert len(written) == 1
    assert stdout.rstrip().endswith(str(written[0]))
    read_record(written[0])


def test_default_record_names_never_collide(tmp_path, capsys, monkeypatch):
    # Default names hold the time to the second; freeze it so two runs clash.
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    monkeypatch.setattr(cli, "utc_now_iso", lambda: "2026-01-02T03:04:05+00:00")
    stem = tmp_path / "lattice-info-2026-01-02T030405Z"
    for L, path in ((2, Path(f"{stem}.json")), (3, Path(f"{stem}-2.json"))):
        code, stdout, _ = run_cli(["lattice-info", "--L", L], capsys)
        assert code == 0
        assert stdout.rstrip().endswith(f"record: {path}")
    assert sorted(tmp_path.iterdir()) == [Path(f"{stem}-2.json"),
                                          Path(f"{stem}.json")]
    assert read_record(Path(f"{stem}.json")).payload["n_sites"] == 4
    assert read_record(Path(f"{stem}-2.json")).payload["n_sites"] == 9


def test_explicit_output_is_overwritten(tmp_path, capsys):
    out = tmp_path / "rec.json"
    for L in (2, 3):
        assert run_cli(["lattice-info", "--L", L, "--output", out], capsys)[0] == 0
    assert list(tmp_path.iterdir()) == [out]
    assert read_record(out).payload["n_sites"] == 9


def test_z_bond_matches_library_value(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["z-bond", "--coupling", 1.0, "--n", 1, "--output", out], capsys)
    assert code == 0
    payload = read_record(out).payload
    assert payload["log_value"] == z_single_bond(1.0, 1).log_value
    assert payload["value"] == math.exp(payload["log_value"])


def test_z_bond_u4_matches_the_toeplitz_determinant(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["z-bond", "--n", 4, "--coupling", 4, "--output", out], capsys)
    assert code == 0
    j = np.arange(4)
    expected = np.linalg.det(ive(j[:, None] - j[None, :], 8.0))
    assert read_record(out).payload["value"] == pytest.approx(expected, rel=1e-10)


def test_z_bond_u20_at_weak_coupling_matches_library_value(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, stdout, _ = run_cli(
        ["z-bond", "--n", 20, "--coupling", 50, "--output", out], capsys)
    assert code == 0
    assert "log z(U(20), c=50) = -622.274764537" in stdout
    assert read_record(out).payload["log_value"] == z_single_bond(50.0, 20).log_value


def test_z_bond_derives_coupling_from_model(tmp_path, capsys):
    out = tmp_path / "rec.json"
    # c = a^{d-4} / g^2 = 0.5^{-1} / 2 = 1
    code, _, _ = run_cli(
        ["z-bond", "--a", 0.5, "--g-sq", 2.0, "--d", 3, "--output", out],
        capsys)
    assert code == 0
    assert read_record(out).payload["coupling"] == 1.0


def test_flags_beat_config_beats_defaults(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[z-bond]\ncoupling = 3\nn = 2\n")
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["z-bond", "--config", ini, "--n", 1, "--output", out], capsys)
    assert code == 0
    rec = read_record(out)
    assert rec.payload["coupling"] == 3.0   # from the file
    assert rec.payload["n"] == 1            # flag wins over the file
    assert rec.payload["kind"] == "U"       # untouched default


def test_common_section_skips_commands_without_the_key(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text(
        "[common]\nseed = 7\nsamples = 512\n"
        "[wilson-mc]\ngauge-fixed = true\nblock-size = 128\nL = 2\n")
    out = tmp_path / "mc.json"
    code, _, _ = run_cli(
        ["wilson-mc", "--config", ini, "--output", out], capsys)
    assert code == 0
    cfg = read_record(out).config
    assert cfg["seed"] == 7
    assert cfg["samples"] == 512
    assert cfg["gauge_fixed"] is True
    # z-bond has no seed/samples options; the [common] keys must not trip it
    out2 = tmp_path / "zb.json"
    code, _, _ = run_cli(
        ["z-bond", "--config", ini, "--coupling", 1, "--output", out2], capsys)
    assert code == 0


def test_unknown_key_in_command_section_is_a_usage_error(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[z-bond]\nbogus = 1\n")
    code, _, stderr = run_cli(["z-bond", "--config", ini], capsys)
    assert code == 2
    assert "unknown option" in stderr


def test_missing_config_file_is_a_usage_error(tmp_path, capsys):
    code, _, stderr = run_cli(
        ["z-bond", "--config", tmp_path / "nope.ini"], capsys)
    assert code == 2
    assert "config file" in stderr


def test_unparseable_config_value_is_a_usage_error(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[wilson-mc]\ngauge-fixed = maybe\n")
    code, _, stderr = run_cli(["wilson-mc", "--config", ini], capsys)
    assert code == 2
    assert "cannot parse" in stderr


@pytest.mark.parametrize("section,line,message", [
    ("wilson-mc", "kind = SO", "must be one of"),
    ("wilson-mc", "samples = 1.5", "cannot parse"),
    ("cue-gue", "betas = 0.1,x", "cannot parse"),
    ("sweep", "L-values = 2,3.5", "cannot parse"),
    ("d2-limit", "a-values =", "cannot parse"),
])
def test_bad_config_values_are_usage_errors(tmp_path, capsys, section, line,
                                            message):
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{section}]\n{line}\n")
    code, _, stderr = run_cli([section, "--config", ini], capsys)
    assert code == 2
    assert message in stderr


@pytest.mark.parametrize("text", [
    b"seed = 7\n",                          # no section header
    b"[bose-exact]\nseed = 7\nseed = 8\n",  # a duplicate key
    b"[bose-exact]\nseed\n",                # a line without =
    b"[bose-exact]\nseed = %(x)s\n",        # read as it stands: not an int
    b"[bose-exact]\nseed = \xff\n",         # not UTF-8
], ids=["no-section", "duplicate", "no-equals", "percent", "not-utf8"])
def test_malformed_config_file_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                                 text):
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    ini = tmp_path / "cfg.ini"
    ini.write_bytes(text)
    code, _, stderr = run_cli(["bose-exact", *SMALL, "--config", ini], capsys)
    assert code == 2
    assert str(ini) in stderr and "Traceback" not in stderr
    assert not list(tmp_path.glob("*.json"))


def test_config_values_are_taken_as_written(tmp_path, capsys):
    csv_path = tmp_path / "100%(n)s.csv"
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[cue-gue]\ncsv = {csv_path}\nbetas = 0.1\n")
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(["cue-gue", "--config", ini, "--output", out], capsys)
    assert code == 0
    rec = read_record(out)
    assert rec.config["csv"] == rec.payload["csv"] == str(csv_path)
    assert csv_path.exists()


def test_common_key_no_command_declares_is_a_usage_error(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    ini = tmp_path / "cfg.ini"
    ini.write_text("[common]\nsede = 7\n")
    code, _, stderr = run_cli(["bose-exact", *SMALL, "--config", ini], capsys)
    assert code == 2
    assert f"unknown option 'sede' in section [common] of {ini}" in stderr
    # g0-sq is declared by verify-bounds and su2-check, so others skip it.
    ini.write_text("[common]\ng0-sq = 9\n")
    assert run_cli(["bose-exact", *SMALL, "--config", ini], capsys)[0] == 0


# Model options that no mode of their command reads.
UNREAD_OPTIONS = [
    ("wilson-mc", "field-kind", "complex"), ("wilson-mc", "kappa-u-sq", "2"),
    ("wilson-mc", "m-u", "1"), ("wilson-mc", "n-flavors", "2"),
    ("wilson-mc", "g0-sq", "9"), ("bose-exact", "g-sq", "2"),
    ("bose-exact", "g0-sq", "9"), ("sweep", "g0-sq", "9"),
    ("lattice-info", "a", "0.5"),
]


@pytest.mark.parametrize("command,key,value", UNREAD_OPTIONS)
def test_options_a_command_never_reads_are_refused(tmp_path, capsys, monkeypatch,
                                                   command, key, value):
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    with pytest.raises(SystemExit) as excinfo:
        main([command, f"--{key}", value])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: --{key} {value}" in capsys.readouterr().err
    ini = tmp_path / "cfg.ini"
    ini.write_text(f"[{command}]\n{key} = {value}\n")
    code, _, stderr = run_cli([command, "--config", ini], capsys)
    assert code == 2
    assert f"unknown option {key!r} in section [{command}]" in stderr
    assert not list(tmp_path.rglob("*.json"))


def test_commands_without_the_bounds_take_any_positive_coupling(tmp_path, capsys):
    # g^2 <= g0^2 is a hypothesis of the bounds, not of the model.
    out = tmp_path / "mc.json"
    code, _, _ = run_cli(["wilson-mc", "--d", 2, "--L", 2, "--g-sq", 5,
                          "--samples", 4096, "--output", out], capsys)
    assert code == 0
    est = z_wilson_mc(ModelParams(d=2, L=2, g_sq=5.0), 4096, 0)
    assert read_record(out).payload["log_value"] == est.log_value
    # The Bose sector never reads c = a^{d-4} / g^2, which overflows here.
    out = tmp_path / "bose.json"
    code, _, _ = run_cli(["bose-exact", "--d", 2, "--L", 3, "--a", 1e-160,
                          "--output", out], capsys)
    assert code == 0
    expect = log_z_bose_identity(ModelParams(d=2, L=3, a=1e-160))
    assert read_record(out).payload["scaled"]["log_value"] == expect
    # The Bose check does not depend on g: it records null gauge rates.
    out = tmp_path / "verify.json"
    code, stdout, _ = run_cli(["verify-bounds", "--which", "bose", *SMALL,
                               "--g-sq", 5, "--configs", 4, "--output", out],
                              capsys)
    assert code == 0 and "overall: pass" in stdout
    rates = read_record(out).payload["rates"]
    assert rates["gauge_lower"] is None and rates["gauge_upper"] is None


@pytest.mark.parametrize("which", ["gauge", "full", "all"])
def test_bound_checks_refuse_a_coupling_above_g0(tmp_path, capsys, which):
    out = tmp_path / "rec.json"
    code, stdout, stderr = run_cli(["verify-bounds", "--which", which, *SMALL,
                                    "--g-sq", 5, "--output", out], capsys)
    assert code == 2
    assert "g^2 must lie in (0, g0^2] = (0, 4.0], got 5.0" in stderr
    assert stdout == "" and not out.exists()


def test_config_lists_and_bools_parse_like_flags(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[sweep]\na-values = 1, 0.5\nL-values = 2,\n"
                   "force = Yes\n")
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(["sweep", "--config", ini, "--out-dir",
                          tmp_path / "pts", "--output", out], capsys)
    assert code == 0
    cfg = read_record(out).config
    assert cfg["a_values"] == [1.0, 0.5]
    assert cfg["L_values"] == [2]
    assert cfg["force"] is True


def test_sweep_rejects_other_dimensions(tmp_path, capsys):
    # The sweep is the exact d = 2 factorization; it has no --d option.
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--d", "3", "--out-dir", str(tmp_path)])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --d 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["z-bond", "--n", 0, "--coupling", 10],
    ["cue-gue", "--n", 0],
    ["d2-limit", "--n", 0],
])
def test_empty_matrix_size_exits_2(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    code, _, stderr = run_cli(argv, capsys)
    assert code == 2
    assert "error:" in stderr


def test_unwritable_output_path_exits_3(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory\n")
    code, _, stderr = run_cli(
        ["lattice-info", "--output", blocker / "rec.json"], capsys)
    assert code == 3
    assert "i/o error" in stderr


def test_bad_choice_flag_exits_2_via_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["z-bond", "--kind", "SO"])
    assert excinfo.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["cue-gue", "--betas", "0.1,x"],
    ["sweep", "--L-values", "2,3.5"],
    ["wilson-mc", "--samples", "many"],
    ["cue-gue", "--betas", ","],
])
def test_bad_flag_value_exits_2_naming_the_option(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"argument {argv[1]}" in capsys.readouterr().err


SMALL = ["--d", 2, "--L", 2]


@pytest.mark.parametrize("argv,message", [
    (["wilson-mc", "--samples", 0, *SMALL],
     "sample count must be at least 1, got 0"),
    (["verify-bounds", "--which", "bose", "--configs", 0, *SMALL],
     "sample count must be at least 1, got 0"),
    (["wilson-mc", "--block-size", 0, *SMALL],
     "block size must be at least 1, got 0"),
    (["wilson-mc", "--block-size", -5, *SMALL],
     "block size must be at least 1, got -5"),
    (["wilson-mc", "--workers", -1, *SMALL],
     "worker count must be at least 1, got -1"),
    # z-bond derives c = a^{d-4} / g^2 and refuses inputs outside the model.
    (["z-bond", "--a", 0], "lattice spacing must be in (0, 1], got 0.0"),
    (["z-bond", "--a", 2], "lattice spacing must be in (0, 1], got 2.0"),
    (["z-bond", "--g-sq", 0], "coupling g^2 must be positive, got 0.0"),
    (["z-bond", "--d", 7], "dimension must be 2, 3 or 4, got 7"),
    # NaN fails every range check; so do infinite couplings and g0^2.
    (["z-bond", "--coupling", "nan"], "coupling must be positive, got nan"),
    (["z-bond", "--coupling", "inf"], "coupling must be positive, got inf"),
    (["z-bond", "--g-sq", "nan"], "coupling g^2 must be positive, got nan"),
    (["z-bond", "--kind", "SU", "--n", 2, "--coupling", "nan"],
     "coupling must be positive, got nan"),
    (["z-bond", "--kind", "SU", "--n", 2, "--coupling", "inf"],
     "coupling must be positive, got inf"),
    (["cue-gue", "--n", 1, "--betas", "nan"], "beta must be positive, got nan"),
    (["d2-limit", "--n", 1, "--g-sq", "nan"],
     "coupling g^2 must be positive, got nan"),
    (["su2-check", "--g-sq", "nan"], "coupling g^2 must be positive, got nan"),
    (["su2-check", "--g0-sq", "inf"], "g0^2 must be positive, got inf"),
    (["su2-check", "--g0-sq", "nan"], "g0^2 must be positive, got nan"),
    (["verify-bounds", "--which", "gauge", "--g0-sq", "inf", *SMALL],
     "g0^2 must be positive, got inf"),
    # The bare mass and hopping must be finite; NaN fails the range too.
    *[(["bose-exact", *SMALL, f"--{flag}", value],
       f"{what} must be finite and >= 0, got {value}")
      for flag, what in (("m-u", "bare mass"), ("kappa-u-sq", "bare hopping"))
      for value in ("nan", "inf")],
    # Every seeded command keys Philox with the seed: [0, 2^128) only.
    *[(argv + ["--seed", seed, *SMALL], f"seed must lie in [0, 2^128), got {seed}")
      for argv in (["wilson-mc", "--samples", 10],
                   ["bose-exact", "--gauge", "random"])
      for seed in (-1, 2**128)],
    # The seed is echoed in the record, so it is checked where nothing is drawn.
    (["verify-bounds", "--which", "gauge", "--seed", -1, *SMALL],
     "seed must lie in [0, 2^128), got -1"),
    (["bose-exact", "--seed", -5, *SMALL], "seed must lie in [0, 2^128), got -5"),
    # A Monte Carlo mean and its error bar need two samples; one used to
    # give "+/- 0" and a "pass" on sigma_log 0.
    *[(argv + ["--d", 3, "--L", 2, "--samples", 1], "needs at least 2 samples, got 1")
      for argv in (["wilson-mc"], ["verify-bounds", "--which", "gauge"],
                   ["verify-bounds", "--which", "full"])],
    (["verify-bounds", "--which", "gauge", "--g0-sq", "nan", *SMALL],
     "g0^2 must be positive, got nan"),
])
def test_bad_monte_carlo_counts_exit_2_naming_the_value(tmp_path, capsys,
                                                        monkeypatch, argv,
                                                        message):
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    code, _, stderr = run_cli(argv + ["--output", tmp_path / "rec.json"], capsys)
    assert code == 2
    assert message in stderr
    assert not (tmp_path / "rec.json").exists()
    assert_no_bare_non_finite(tmp_path)


def assert_no_bare_non_finite(directory):
    for path in directory.rglob("*.json"):
        text = path.read_text()
        assert "NaN" not in text and "Infinity" not in text, path


@pytest.mark.parametrize("argv,message", [
    # c = a^{d-4}/g^2 overflows.
    (["z-bond", "--a", 1e-160], "at a = 1e-160, g^2 = 1.0"),
    (["d2-limit", "--n", 1, "--a-values", 1e-160], "at a = 1e-160, g^2 = 1.0"),
    (["sweep", "--a-values", 1e-160, "--L-values", 2, "--force"],
     "at a = 1e-160, g^2 = 1.0"),
    # The ratio w / beta^{n^2/2} is below the normal range.
    (["cue-gue", "--n", 2, "--betas", 1e300],
     "exp(-1381.55) is not a normal double at beta = 1e+300"),
    (["cue-gue", "--n", 3, "--betas", 1e200],
     "exp(-2072.33) is not a normal double at beta = 1e+200"),
    # 1/beta overflows: the message names beta, not the derived coupling.
    (["cue-gue", "--n", 1, "--betas", 5e-324], "overflows at beta = 5e-324"),
    # Weights in e^{-493}..e^{-380}: their squared deviations underflow, and
    # the error bar read a false 0 with a "pass".
    (["verify-bounds", "--d", 3, "--L", 4, "--n", 2, "--which", "full",
      "--samples", 5000, "--seed", 3],
     "came out 2.127427e-170, below 1.492e-154"),
    # Weights near e^{-856}: the mean is named by its log, not as 0.
    (["wilson-mc", "--d", 3, "--L", 3, "--a", 0.05, "--gauge-fixed",
      "--samples", 4096], "came out exp(-856.271), below 1.492e-154"),
    (["wilson-mc", "--d", 2, "--L", 3, "--a", 1e-160],
     "coupling c = a^-2/g^2 overflows at a = 1e-160, g^2 = 1.0"),
])
def test_out_of_range_numbers_exit_3_naming_the_value(tmp_path, capsys,
                                                      monkeypatch, argv,
                                                      message):
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    code, _, stderr = run_cli(argv + ["--output", tmp_path / "rec.json"], capsys)
    assert code == 3
    assert "numeric error" in stderr and message in stderr
    assert "Traceback" not in stderr
    assert not (tmp_path / "rec.json").exists()
    assert_no_bare_non_finite(tmp_path)


def test_the_exact_d2_gauge_check_takes_one_sample(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(["verify-bounds", "--which", "gauge", *SMALL,
                          "--samples", 1, "--output", out], capsys)
    assert code == 0
    assert read_record(out).payload["checks"]["gauge"]["method"] == "quadrature"


@pytest.mark.parametrize("L", [100, 150])
def test_full_model_with_bose_factors_past_the_double_range(tmp_path, capsys, L):
    # log Z_B is about 355 at L = 100 and 800 at L = 150 on these draws:
    # linear weights overflowed m2 at L = 100 (sigma_log inf) and the
    # weights themselves at L = 150 (exit 3).
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(["verify-bounds", "--which", "full", "--d", 2, "--L", L,
                          "--g-sq", 1e6, "--g0-sq", 1e6, "--samples", 64,
                          "--block-size", 32, "--output", out], capsys)
    assert code == 0
    full = read_record(out).payload["checks"]["full"]
    assert full["verdict"] == "pass" and math.isfinite(full["std_error_log"])
    p = ModelParams(d=2, L=L, g_sq=1e6, g0_sq=1e6)
    plan = PlaquettePlan.for_bonds(p.lattice)
    log_weights = []
    for i in range(2):
        bonds = haar_sample(block_rng(0, i), p.n, kind=p.kind,
                            size=(32, p.lattice.n_bonds))
        actions = p.coupling * np.sum(plaquette_actions(plan, bonds), axis=-1)
        log_weights.append(log_z_bose(p, bonds) - actions)
    log_mean = logsumexp(np.concatenate(log_weights)) - np.log(64)
    log_scale = (group_dim(p.kind, p.n) * p.lattice.n_retained
                 * 0.5 * np.log(p.coupling))
    assert full["log_value"] == pytest.approx(log_mean + log_scale, rel=1e-12)


@pytest.mark.parametrize("argv,n", [
    (["d2-limit", "--n", 8, "--a-values", "1e-5,1e-8"], 8),
    (["d2-limit", "--n", 4, "--a-values", 1e-75], 4),
    (["z-bond", "--n", 10, "--coupling", 1e10], 10),
    (["z-bond", "--n", 2, "--coupling", 1e300], 2),
    (["z-bond", "--n", 8, "--coupling", 1e10], 8),
])
def test_one_bond_values_below_the_double_range_meet_the_d2_target(
        tmp_path, capsys, monkeypatch, argv, n):
    # z ~ c^{-n^2/2} is far below the smallest normal double here (e^{-1146}
    # at n = 10, c = 1e10), and log z + (n^2/2) log c still meets the
    # a -> 0 target.
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(argv + ["--output", out], capsys)
    assert code == 0
    payload = read_record(out).payload
    if argv[0] == "z-bond":
        assert payload["value"] is None
        results = [payload["log_value"] + n * n / 2.0 * np.log(payload["coupling"])]
    else:
        results = payload["results"]
    for f in results:
        assert abs(f - d2_limit_target(n)) < 1e-9


def test_su2_check_at_a_coupling_whose_cube_overflows(tmp_path, capsys):
    # c = 1e210: c^{3/2} is past the double range and z below it; the scaled
    # value c^{3/2} ive(1, 4c) / (2c) in mpmath.
    import mpmath
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(["su2-check", "--d", 3, "--a", 1e-210, "--output", out],
                         capsys)
    assert code == 0
    c = mpmath.mpf(10) ** 210
    with mpmath.workdps(30):
        expected = c ** 1.5 * mpmath.besseli(1, 4 * c) * mpmath.exp(-4 * c) / (2 * c)
    payload = read_record(out).payload
    assert payload["verdict"] == "pass"
    assert payload["scaled_value"] == pytest.approx(float(expected), rel=1e-12)


@pytest.mark.filterwarnings("error::UserWarning")
def test_a_warning_raised_as_an_error_exits_3(tmp_path, capsys, monkeypatch):
    # 50 samples give a relative error far above 10%, whose warning -W error
    # turns into an exception.
    monkeypatch.setenv("BOSELGT_OUTPUT_DIR", str(tmp_path))
    code, _, stderr = run_cli(["wilson-mc", "--d", 3, "--L", 2, "--n", 2,
                               "--kind", "SU", "--samples", 50], capsys)
    assert code == 3
    assert "numeric error: gauge Monte Carlo relative error" in stderr
    assert "Traceback" not in stderr
    assert not list(tmp_path.rglob("*.json"))


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 2
    capsys.readouterr()


def test_wilson_mc_worker_count_leaves_the_record_unchanged(tmp_path, capsys):
    payloads = []
    for workers in (1, 4):
        out = tmp_path / f"mc-{workers}.json"
        code, _, _ = run_cli(
            ["wilson-mc", "--d", 2, "--L", 2, "--samples", 4096,
             "--seed", 3, "--block-size", 512, "--workers", workers,
             "--output", out], capsys)
        assert code == 0
        payloads.append(read_record(out).payload)
    assert payloads[0]["value"] == payloads[1]["value"]
    assert payloads[0]["std_error"] == payloads[1]["std_error"]
    assert payloads[0]["n_samples"] == 4096


@pytest.mark.parametrize("which,count,L", [
    pytest.param("bose", "--configs", 3, id="bose---configs"),
    pytest.param("full", "--samples", 3, id="full---samples"),
    # kd = 33: LAPACK's blocked path, whose updates call the BLAS.
    pytest.param("bose", "--configs", 4, id="bose---configs-L4")])
def test_verify_bounds_records_equal_at_one_two_and_four_workers(tmp_path, capsys,
                                                                 which, count, L):
    # The Bose check factorises in the workers, at 3 blocks of 32 forms.
    payloads = []
    for workers in (1, 2, 4):
        out = tmp_path / f"{which}-{workers}.json"
        code, _, _ = run_cli(
            ["verify-bounds", "--which", which, "--d", 3, "--L", L, "--n", 2,
             count, 96, "--block-size", 32, "--seed", 3, "--workers", workers,
             "--output", out], capsys)
        assert code == 0
        payloads.append(read_record(out).payload)
    assert payloads[0] == payloads[1] == payloads[2]


def test_bose_exact_random_su2_bonds_have_det_one(tmp_path, capsys,
                                                  monkeypatch):
    # The bonds never reach the record, so catch them on their way in.
    seen = []
    monkeypatch.setattr(cli, "z_bose_exact",
                        lambda params, bonds: seen.append(bonds)
                        or z_bose_exact(params, bonds))
    code, _, _ = run_cli(
        ["bose-exact", "--d", 3, "--L", 2, "--n", 2, "--kind", "SU",
         "--gauge", "random", "--seed", 7, "--output", tmp_path / "rec.json"],
        capsys)
    assert code == 0
    (bonds,) = seen
    n_bonds = ModelParams(d=3, L=2).lattice.n_bonds
    assert bonds.shape == (n_bonds, 2, 2)
    assert np.max(np.abs(np.linalg.det(bonds) - 1.0)) < 1e-14
    # SU(2) bonds are the quaternion draw of the record's seed.
    expect = su2_to_matrix(su2_haar(block_rng(7, 0), n_bonds))
    assert np.array_equal(bonds, expect)


def test_bose_exact_reports_both_scalings(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["bose-exact", "--d", 2, "--L", 2, "--gauge", "random",
         "--seed", 5, "--output", out], capsys)
    assert code == 0
    payload = read_record(out).payload
    assert np.isfinite(payload["scaled"]["log_value"])
    assert np.isfinite(payload["unscaled"]["log_value"])
    assert payload["scaled"]["std_error"] == 0.0
    # a random U(1) gauge shifts the hopping term away from the identity value
    out_id = tmp_path / "rec-id.json"
    run_cli(["bose-exact", "--d", 2, "--L", 2, "--output", out_id], capsys)
    identity = read_record(out_id).payload
    assert identity["scaled"]["log_value"] != payload["scaled"]["log_value"]


@pytest.fixture
def indefinite_hopping(monkeypatch):
    # kappa^2 = 0.6 > 1/(2d) puts the Bose form outside the positive range.
    original = ScalingFactors.from_params
    monkeypatch.setattr(ScalingFactors, "from_params", classmethod(
        lambda cls, p: replace(original(p), kappa_sq=0.6)))


@pytest.mark.parametrize("argv", [
    ["bose-exact", "--d", 2, "--L", 2],
    ["verify-bounds", "--d", 2, "--L", 3, "--which", "full", "--samples", 2000],
])
def test_indefinite_bose_form_exits_3(argv, tmp_path, capsys,
                                      indefinite_hopping):
    code, _, err = run_cli(argv + ["--output", tmp_path / "rec.json"], capsys)
    assert code == 3
    assert "not positive definite" in err
    assert not (tmp_path / "rec.json").exists()


def test_verify_bounds_small_model_passes(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, stdout, _ = run_cli(
        ["verify-bounds", "--d", 2, "--L", 2, "--configs", 20,
         "--samples", 2000, "--output", out], capsys)
    assert code == 0
    payload = read_record(out).payload
    assert payload["overall"] == "pass"
    assert payload["checks"]["bose"]["verdict"] == "pass"
    assert payload["checks"]["gauge"]["method"] == "quadrature"
    assert payload["checks"]["full"]["verdict"] == "pass"
    assert payload["rates"]["gauge_lower"] < payload["rates"]["gauge_upper"]
    assert "overall: pass" in stdout


def test_verify_bounds_gauge_passes_at_u20(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, stdout, _ = run_cli(
        ["verify-bounds", "--which", "gauge", "--d", 2, "--L", 2, "--n", 20,
         "--output", out], capsys)
    assert code == 0
    assert read_record(out).payload["checks"]["gauge"]["verdict"] == "pass"
    assert "overall: pass" in stdout


def test_verify_bounds_bose_line_shows_the_worst_margin(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, stdout, _ = run_cli(
        ["verify-bounds", "--which", "bose", "--d", 2, "--L", 3,
         "--configs", 20, "--output", out], capsys)
    assert code == 0
    bose = read_record(out).payload["checks"]["bose"]
    assert bose["worst_margin"] > 0.0
    assert (f"bose-sector bounds: pass (0 violations in 20 configs, "
            f"worst margin {bose['worst_margin']:.3g})") in stdout


def test_verify_bounds_without_gauge_constants(tmp_path, capsys):
    # SU(3) has Bose bounds but no gauge constants: a Bose check writes its
    # record with null gauge rates, and a check that needs them exits 2
    # before any check runs.
    su3 = ["--kind", "SU", "--n", 3, "--d", 2, "--L", 3]
    out = tmp_path / "rec.json"
    code, stdout, _ = run_cli(["verify-bounds", "--which", "bose", *su3,
                               "--configs", 4, "--output", out], capsys)
    assert code == 0
    payload = read_record(out).payload
    assert payload["checks"]["bose"]["verdict"] == payload["overall"] == "pass"
    assert payload["rates"]["gauge_lower"] is None
    assert payload["rates"]["gauge_upper"] is None
    assert payload["rates"]["bose_upper"] > 0.0
    assert "bose-sector bounds: pass" in stdout
    for which in ("gauge", "full", "all"):
        out = tmp_path / f"{which}.json"
        code, stdout, stderr = run_cli(["verify-bounds", "--which", which, *su3,
                                        "--samples", 100, "--output", out], capsys)
        assert code == 2
        assert "gauge bound constants for SU(N) exist only for N = 2" in stderr
        assert stdout == "" and not out.exists()


@pytest.mark.parametrize("which,d,verify", [
    ("full", 2, verify_full_model),
    ("gauge", 3, verify_gauge_bounds),
])
def test_verify_bounds_block_size_reaches_the_estimator(which, d, verify,
                                                        tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["verify-bounds", "--d", d, "--L", 2, "--which", which,
         "--samples", 20_000, "--seed", 1, "--block-size", 64,
         "--output", out], capsys)
    assert code in (0, 1)
    rec = read_record(out)
    assert rec.config["block_size"] == 64
    direct = verify(ModelParams(d=d, L=2), n_samples=20_000, seed=1,
                    block_size=64)
    assert rec.payload["checks"][which]["log_value"] == direct.log_value


def test_su2_check_pins_the_frozen_constants(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(["su2-check", "--output", out], capsys)
    assert code == 0
    payload = read_record(out).payload
    lower, upper = su2_bound_constants(3, g0_sq=4.0)
    assert payload["verdict"] == "pass"
    assert payload["lower"] == lower
    assert payload["upper"] == upper
    assert payload["lower"] < payload["scaled_value"] < payload["upper"]


def test_sweep_writes_then_resumes_then_forces(tmp_path, capsys):
    argv = ["sweep", "--a-values", "1.0", "--g-sq-values", "1.0",
            "--L-values", "2", "--n-values", "1", "--out-dir",
            tmp_path / "grid", "--output", tmp_path / "s1.json"]
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert "done point_a1_g1_L2_n1_U.json" in stdout
    point = tmp_path / "grid" / "point_a1_g1_L2_n1_U.json"
    rec = read_record(point)
    assert rec.command == "sweep-point"
    assert np.isfinite(rec.payload["log_gauge_per_retained_bond"])
    first = read_record(tmp_path / "s1.json").payload
    assert first == {"n_points": 1, "computed": 1, "skipped": 0,
                     "out_dir": str(tmp_path / "grid")}

    argv[-1] = tmp_path / "s2.json"
    code, stdout, _ = run_cli(argv, capsys)
    assert code == 0
    assert "skip point_a1_g1_L2_n1_U.json" in stdout
    assert read_record(tmp_path / "s2.json").payload["skipped"] == 1

    argv[-1] = tmp_path / "s3.json"
    code, stdout, _ = run_cli(argv + ["--force"], capsys)
    assert code == 0
    assert read_record(tmp_path / "s3.json").payload["computed"] == 1


def test_sweep_names_values_that_agree_to_six_digits_apart(tmp_path, capsys):
    grid = tmp_path / "grid"
    code, stdout, _ = run_cli(
        ["sweep", "--a-values", "0.5,0.5000001", "--L-values", 2, "--out-dir",
         grid, "--output", tmp_path / "s.json"], capsys)
    assert code == 0
    assert "2 computed, 0 skipped" in stdout
    names = sorted(p.name for p in grid.iterdir())
    assert names == ["point_a0.5000001_g1_L2_n1_U.json",
                     "point_a0.5_g1_L2_n1_U.json"]
    assert sorted(read_record(grid / n).config["a"] for n in names) == [
        0.5, 0.5000001]


def test_warnings_print_as_one_line_each(tmp_path, capsys):
    # 50 SU(2) samples miss the 10% error target; stderr gets the message
    # alone, not Python's "file:line: UserWarning:" and the source line.
    argv = ["wilson-mc", "--d", 3, "--L", 2, "--n", 2, "--kind", "SU",
            "--samples", 50, "--seed", 0, "--output", tmp_path / "w.json"]
    code, _, err = run_cli(argv, capsys)
    assert code == 0
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("warning: gauge Monte Carlo relative error ")
    assert lines[0].endswith("exceeds 10%; increase n_samples")


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_ignored_warnings_stay_silent(tmp_path, capsys):
    # The filters in force still decide which warnings print.
    argv = ["wilson-mc", "--d", 3, "--L", 2, "--n", 2, "--kind", "SU",
            "--samples", 50, "--seed", 0, "--output", tmp_path / "w.json"]
    assert run_cli(argv, capsys)[::2] == (0, "")


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_one_parser_per_process_leaks_nothing_between_calls(tmp_path, capsys,
                                                             monkeypatch):
    # Each pair runs with and then without a flag (or after a command line
    # that exits 2 part way through its options); every record must echo
    # the config a fresh interpreter gives for the same argv.
    grid = tmp_path / "grid"
    sweep = ["sweep", "--a-values", 1, "--L-values", 2, "--out-dir", grid]
    wilson = ["wilson-mc", "--d", 2, "--L", 2, "--samples", 512,
              "--block-size", 256]
    runs = [sweep + ["--force"], sweep, wilson + ["--gauge-fixed"], wilson,
            ["z-bond", "--n", 2, "--bogus"], ["z-bond", "--coupling", 2.5]]
    built = []
    original = cli.build_parser
    monkeypatch.setattr(cli, "build_parser",
                        lambda: built.append(1) or original())
    cli._parser.cache_clear()
    try:
        in_process = {}
        for i, argv in enumerate(runs):
            out = tmp_path / f"in-{i}.json"
            if "--bogus" in argv:
                with pytest.raises(SystemExit) as excinfo:
                    run_cli(argv + ["--output", out], capsys)
                assert excinfo.value.code == 2
                continue
            assert run_cli(argv + ["--output", out], capsys)[0] == 0
            in_process[i] = read_record(out).config
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1

    env = dict(os.environ, BOSELGT_OUTPUT_DIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for i, config in in_process.items():
        out = tmp_path / f"fresh-{i}.json"
        subprocess.run([sys.executable, "-m", "boselgt.cli",
                        *map(str, runs[i]), "--output", str(out)],
                       env=env, cwd=tmp_path, check=True, capture_output=True,
                       timeout=120)
        assert read_record(out).config == config, runs[i]
    assert in_process[0]["force"] and not in_process[1]["force"]
    assert in_process[2]["gauge_fixed"] and not in_process[3]["gauge_fixed"]
    assert in_process[5]["n"] == 1


def test_cue_gue_writes_csv(tmp_path, capsys):
    csv_path = tmp_path / "ratios.csv"
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["cue-gue", "--betas", "0.5,0.1,1e300", "--n", 1, "--csv", csv_path,
         "--output", out], capsys)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "beta,value,target,abs_err"
    assert len(lines) == 4
    payload = read_record(out).payload
    assert payload["csv"] == str(csv_path)
    assert payload["betas"] == [0.5, 0.1, 1e300]
    assert all(np.isfinite(r) for r in payload["results"])
    # w -> 1 as beta -> inf: the U(1) ratio at beta = 1e300 is 1e-150.
    assert payload["results"][2] == pytest.approx(1e-150, rel=1e-15)


def test_cue_gue_u3_reaches_small_beta(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["cue-gue", "--n", 3, "--betas", "1,0.1,0.01",
         "--csv", tmp_path / "u3.csv", "--output", out], capsys)
    assert code == 0
    payload = read_record(out).payload
    errs = [abs(r - payload["target"]) for r in payload["results"]]
    assert errs[2] < errs[1] < errs[0]


def test_d2_limit_sweep_converges_toward_its_target(tmp_path, capsys):
    csv_path = tmp_path / "limit.csv"
    out = tmp_path / "rec.json"
    code, _, _ = run_cli(
        ["d2-limit", "--a-values", "1.0,0.1", "--n", 1, "--csv", csv_path,
         "--output", out], capsys)
    assert code == 0
    payload = read_record(out).payload
    errs = [abs(r - payload["target"]) for r in payload["results"]]
    assert errs[1] < errs[0]
    assert csv_path.read_text().startswith("a,value,target,abs_err")
