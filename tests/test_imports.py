"""scipy stays off the start-up path: each case runs in a fresh interpreter.

pytest has already imported scipy in this process, so sys.modules is only
meaningful in a child.  The child prints one JSON line last: the exit code
of the command and whether scipy, and scipy.linalg, were loaded by then.
The commands that factorise a Bose form load scipy's Cython LAPACK module,
never scipy.linalg, and leave its BLAS on one thread.

The last test reads the import graph statically: every public function,
class, method and property of the package needs a caller outside the tests.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
        "print(json.dumps({'code': code, 'scipy': 'scipy' in sys.modules,\n"
        "                  'scipy.linalg': 'scipy.linalg' in sys.modules}))\n",
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
    assert run_command(argv, tmp_path) == {"code": 0, "scipy": loads_scipy,
                                           "scipy.linalg": False}


def test_scipy_linalg_imported_after_a_factorisation_binds_the_same_module(tmp_path):
    # The LAPACK module the factorisation loaded stays out of sys.modules,
    # and scipy.linalg imported later binds it, at the same dpbtrf.
    out = run_fresh(
        "import ctypes, json, sys\n"
        "from boselgt.cli import main\n"
        "from boselgt import partition\n"
        "code = main(['bose-exact', '--d', '2', '--L', '2', '--gauge', 'random'])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy.linalg'))\n"
        "import scipy.linalg\n"
        "capsule = scipy.linalg.cython_lapack.__pyx_capi__['dpbtrf']\n"
        "address = [ctypes.cast(f, ctypes.c_void_p).value for f in\n"
        "           (partition._capsule_function(capsule), partition._LAPACK)]\n"
        "print(json.dumps({'code': code, 'loaded': loaded,\n"
        "                  'same': address[0] == address[1]}))\n", tmp_path)
    assert out == {"code": 0, "loaded": [], "same": True}


IMPORT_CALLS = ("__import__", "import_module", "find_spec", "spec_from_file_location")


def is_scipy(name):
    return isinstance(name, str) and (name == "scipy" or name.startswith("scipy."))


def scipy_import_sites(node, where):
    """Dotted names of the scopes in `node` that import scipy.

    An import statement counts, and so does a call of one of IMPORT_CALLS
    (by plain or attribute name) whose first argument is a literal name in
    scipy.
    """
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}"
        if isinstance(child, ast.Import):
            modules = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            modules = [child.module or ""]
        elif (isinstance(child, ast.Call) and child.args
              and isinstance(child.args[0], ast.Constant)
              and getattr(child.func, "id", getattr(child.func, "attr", None))
              in IMPORT_CALLS):
            modules = [child.args[0].value]
        else:
            modules = []
        if any(is_scipy(m) for m in modules):
            yield inner
        yield from scipy_import_sites(child, inner)


def test_scipy_import_sites_sees_statements_and_calls():
    code = ("import importlib\n"
            "def a():\n    import scipy.linalg\n"
            "def b():\n    importlib.import_module('scipy.special')\n"
            "def c():\n    importlib.util.find_spec('scipy')\n"
            "def d():\n    __import__('numpy')\n    find_spec('scipyx')\n")
    assert list(scipy_import_sites(ast.parse(code), "m")) == ["m.a", "m.b", "m.c"]


def test_only_the_bose_log_determinant_imports_scipy():
    sites = [site for path in sorted((SRC / "boselgt").glob("*.py"))
             for site in scipy_import_sites(ast.parse(path.read_text()),
                                            path.stem)]
    # The loader's import of scipy and its find_spec of the Cython LAPACK
    # module, both in the one function; no path imports scipy.linalg.
    assert sites == ["partition.logdet_posdef"] * 2


def test_a_failed_bose_factorisation_leaves_scipy_linalg_unloaded(tmp_path):
    out = run_fresh(
        "import json, sys\n"
        "from boselgt.actions import ModelParams\n"
        "from boselgt.errors import NotPositiveDefiniteError\n"
        "from boselgt.partition import log_z_bose\n"
        "import numpy as np\n"
        "p = ModelParams(d=2, L=3, n=1)\n"
        "bonds = 2.0 * np.ones((p.lattice.n_bonds, 1, 1))\n"
        "try:\n"
        "    log_z_bose(p, bonds)\n"
        "    pivot = None\n"
        "except NotPositiveDefiniteError as err:\n"
        "    pivot = err.smallest_pivot\n"
        "print(json.dumps({'pivot': pivot,\n"
        "                  'scipy.linalg': 'scipy.linalg' in sys.modules}))\n",
        tmp_path)
    assert out["pivot"] is not None and out["pivot"] < 0.0
    assert out["scipy.linalg"] is False


# The spy records which thread asks for scipy first; U(1) at d = 2 has no
# quadrature before the Monte Carlo, so it is a worker's logdet.
FIRST_SCIPY_IMPORT_SPY = (
    "import json, sys, threading\n"
    "first = []\n"
    "class Spy:\n"
    "    def find_spec(self, name, path=None, target=None):\n"
    "        if name == 'scipy':\n"
    "            first.append(threading.current_thread().name)\n"
    "sys.meta_path.insert(0, Spy())\n"
    "from boselgt.cli import main\n")


def full_model_argv(workers, out):
    return ["verify-bounds", "--which", "full", "--d", "2", "--L", "2",
            "--samples", "256", "--block-size", "64", "--seed", "5",
            "--workers", str(workers), "--output", str(out)]


def test_first_scipy_import_in_worker_threads_keeps_results(tmp_path):
    reports = {}
    for workers in (1, 2):
        out = tmp_path / f"full-{workers}.json"
        argv = full_model_argv(workers, out)
        result = run_fresh(
            FIRST_SCIPY_IMPORT_SPY + f"code = main({argv!r})\n"
            "print(json.dumps({'code': code, 'first': first[:1]}))\n",
            tmp_path)
        assert result["code"] == 0
        if workers == 2:
            assert result["first"] and result["first"][0] != "MainThread"
        reports[workers] = json.loads(out.read_text())["payload"]["checks"]["full"]
    for key in ("log_value", "std_error_log"):
        assert reports[2][key] == reports[1][key]


# The child reads the thread count of the BLAS behind scipy's Cython LAPACK
# module through its own handle, as json 'threads' (None when that BLAS
# exports no OpenBLAS getter), without importing scipy.linalg.
READ_BLAS_THREADS = (
    "import ctypes, importlib.machinery, os, scipy\n"
    "spec = importlib.machinery.PathFinder.find_spec(\n"
    "    'scipy.linalg.cython_lapack', [os.path.join(scipy.__path__[0], 'linalg')])\n"
    "lib = ctypes.CDLL(spec.origin)\n"
    "getters = [getattr(lib, name) for name in\n"
    "           ('scipy_openblas_get_num_threads', 'openblas_get_num_threads')\n"
    "           if hasattr(lib, name)]\n"
    "threads = getters[0]() if getters else None\n")


def run_at_default_blas_threads(code, tmp_path, monkeypatch):
    # Without these the BLAS would start at one thread and the check would
    # read the environment, not the loader.
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(key, raising=False)
    out = run_fresh(code + READ_BLAS_THREADS +
                    "print(json.dumps({'result': result, 'threads': threads}))\n",
                    tmp_path)
    if out["threads"] is None:
        pytest.skip("this BLAS exports no OpenBLAS thread-count functions")
    return out


def test_a_first_load_in_a_worker_leaves_the_blas_on_one_thread(tmp_path, monkeypatch):
    argv = full_model_argv(2, tmp_path / "full.json")
    out = run_at_default_blas_threads(
        FIRST_SCIPY_IMPORT_SPY + f"code = main({argv!r})\n"
        "result = [code, first[0] != 'MainThread']\n", tmp_path, monkeypatch)
    assert out == {"result": [0, True], "threads": 1}


def test_a_load_from_a_loaded_scipy_linalg_leaves_the_blas_on_one_thread(tmp_path,
                                                                        monkeypatch):
    out = run_at_default_blas_threads(
        "import json\n"
        "import numpy as np\n"
        "import scipy.linalg\n"
        "from boselgt.partition import logdet_posdef\n"
        "result = float(logdet_posdef(np.full((1, 1, 3), 4.0))[0])\n",
        tmp_path, monkeypatch)
    assert out == {"result": pytest.approx(3 * np.log(4.0)), "threads": 1}


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
