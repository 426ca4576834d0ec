"""The command-line scripts under scripts/, run end to end at small sizes."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_limit_sweeps_write_their_tables(tmp_path, capsys):
    script = load_script("run_limit_sweeps")
    code = script.main(["--beta-min", "0.01", "--a-min", "0.01",
                        "--out-dir", str(tmp_path)])
    assert code == 0
    headers = {"cue_gue": "beta,value,target,abs_err",
               "d2_limit": "a,value,target,abs_err"}
    for stem, header in headers.items():
        for n in (1, 2):
            lines = (tmp_path / f"{stem}_n{n}.csv").read_text().splitlines()
            assert lines[0] == header
            assert len(lines) == 4  # header + three decades
    assert f"CSV tables in {tmp_path}/" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:gauge Monte Carlo relative error")
def test_bound_suite_runs_to_its_summary(capsys):
    script = load_script("run_bound_suite")
    code = script.main(["--configs", "4", "--samples", "2000",
                        "--draws", "2000", "--workers", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.rstrip().endswith("all checks passed")
    for tag in ("d=2 L=3 U(1)", "d=2 L=4 U(2)", "d=3 L=2 SU(2)"):
        assert f"== {tag} ==" in out
    # The error behind every gauge and full-model verdict is printed.
    verdicts = [line for line in out.splitlines()
                if line.lstrip().startswith(("gauge rates", "full model"))]
    assert len(verdicts) == 6
    assert all(", sigma_log " in line for line in verdicts)
