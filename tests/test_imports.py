"""scipy stays off the start-up path: each case runs in a fresh interpreter.

pytest has already imported scipy in this process, so sys.modules is only
meaningful in a child.  The child prints one JSON line last: the exit code
of the command and whether scipy was loaded by then.

The last test reads the import graph statically: every public function,
class, method and property of the package needs a caller outside the tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def run_fresh(code, tmp_path):
    env = dict(os.environ, BOSELGT_OUTPUT_DIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_command(argv, tmp_path):
    return run_fresh(
        "import json, sys\n"
        "from boselgt.cli import main\n"
        f"code = main({argv!r})\n"
        "print(json.dumps({'code': code, 'scipy': 'scipy' in sys.modules}))\n",
        tmp_path)


def test_building_the_parser_leaves_scipy_unloaded(tmp_path):
    out = run_fresh(
        "import json, sys\n"
        "import boselgt.cli\n"
        "boselgt.cli.build_parser()\n"
        "print(json.dumps({'scipy': 'scipy' in sys.modules}))\n", tmp_path)
    assert out == {"scipy": False}


@pytest.mark.parametrize("argv,loads_scipy", [
    (["wilson-mc", "--d", "2", "--L", "2", "--samples", "512",
      "--block-size", "256"], False),
    (["cue-gue", "--n", "1"], False),
    (["d2-limit", "--n", "1"], False),
    (["z-bond", "--kind", "U"], False),
    (["bose-exact", "--d", "2", "--L", "2", "--gauge", "random"], True),
    (["z-bond", "--kind", "SU", "--n", "2", "--coupling", "2.5"], False),
    (["su2-check", "--d", "3"], False),
    # Identity-bond Bose values come from the closed form, not a factorisation.
    (["bose-exact", "--d", "2", "--L", "2"], False),
    (["sweep", "--L-values", "2"], False),
    (["verify-bounds", "--which", "bose", "--d", "2", "--L", "2",
      "--configs", "4"], True),
])
def test_only_the_commands_that_need_scipy_load_it(tmp_path, argv,
                                                   loads_scipy):
    assert run_command(argv, tmp_path) == {"code": 0, "scipy": loads_scipy}


def scipy_import_sites(node, where):
    """Dotted names of the scopes in `node` that import scipy."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        else:
            modules = []
        if any(m == "scipy" or m.startswith("scipy.") for m in modules):
            yield inner
        yield from scipy_import_sites(child, inner)


def test_only_the_bose_log_determinant_imports_scipy():
    sites = [site for path in sorted((SRC / "boselgt").glob("*.py"))
             for site in scipy_import_sites(ast.parse(path.read_text()),
                                            path.stem)]
    assert sites == ["partition.logdet_posdef"]


def test_first_scipy_import_in_worker_threads_keeps_results(tmp_path):
    # The spy records which thread asks for scipy first; U(1) at d = 2 has
    # no quadrature before the Monte Carlo, so it is a worker's logdet.
    spy = (
        "import json, sys, threading\n"
        "first = []\n"
        "class Spy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy':\n"
        "            first.append(threading.current_thread().name)\n"
        "sys.meta_path.insert(0, Spy())\n"
        "from boselgt.cli import main\n")
    reports = {}
    for workers in (1, 2):
        out = tmp_path / f"full-{workers}.json"
        argv = ["verify-bounds", "--which", "full", "--d", "2", "--L", "2",
                "--samples", "256", "--block-size", "64", "--seed", "5",
                "--workers", str(workers), "--output", str(out)]
        result = run_fresh(
            spy + f"code = main({argv!r})\n"
            "print(json.dumps({'code': code, 'first': first[:1]}))\n",
            tmp_path)
        assert result["code"] == 0
        if workers == 2:
            assert result["first"] and result["first"][0] != "MainThread"
        reports[workers] = json.loads(out.read_text())["payload"]["checks"]["full"]
    for key in ("log_value", "std_error_log"):
        assert reports[2][key] == reports[1][key]


# Public definitions no command, script or benchmark calls that stay in the
# package: the reader of the record schema the tests validate against, and
# the reader of the record format itself.
UNCALLED_KEPT = ("load_schema", "ResultRecord.load")


def references(path):
    """(enclosing top-level definition, name) for each name a file uses.

    Names, attribute names and imported names count; in perfbench/spans.py
    so does every string, since Tracer.rebind takes attribute names as text.
    """
    for top in ast.parse(path.read_text()).body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield owner, node.id
            elif isinstance(node, ast.Attribute):
                yield owner, node.attr
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from ((owner, a.name.rpartition(".")[2]) for a in node.names)
            elif (path.name == "spans.py" and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                yield owner, node.value


def public_definitions(path):
    """(qualified name, name, own scope) per public definition of a module.

    Module-level functions and classes, and the methods and properties of
    those classes.  The own scope is the top-level definition whose uses of
    the name do not count as callers: a function or class itself, and none
    for a method, which its own class may call.
    """
    for top in ast.parse(path.read_text()).body:
        if not isinstance(top, (ast.FunctionDef, ast.ClassDef)) or top.name.startswith("_"):
            continue
        yield top.name, top.name, top.name
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    yield f"{top.name}.{node.name}", node.name, ()


def test_every_public_definition_has_a_caller_outside_the_tests():
    users = {}
    for path in sorted(p for top in ("src", "scripts", "perfbench")
                       for p in (SRC.parent / top).rglob("*.py")
                       if "tests" not in p.parts):
        for owner, name in references(path):
            users.setdefault(name, set()).add((path, owner))
    uncalled = [f"{path.stem}.{qualified}"
                for path in sorted((SRC / "boselgt").glob("*.py"))
                for qualified, name, own in public_definitions(path)
                if qualified not in UNCALLED_KEPT
                and not users.get(name, set()) - {(path, own)}]
    assert uncalled == []
