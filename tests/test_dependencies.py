"""The import surface: the runtime needs NumPy only, importing the package
loads no SciPy, and each CLI command loads only the modules it runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dfobounds
from dfobounds.cli import main

BOUNDS_ARGV = ["bounds", "--kind", "mfn", "--L", "12", "--lam", "3.5", "--n", "3",
               "--p", "6", "--delta", "0.5"]


def run_fresh(code: str, *argv: str) -> str:
    """Stdout of ``code`` in a fresh interpreter that imports this checkout."""
    src = str(Path(dfobounds.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# Runs cli.main(sys.argv[1:]) and prints, after its JSON, the loaded
# dfobounds modules and whether NumPy is loaded.
LOADED_AFTER_MAIN = (
    "import json, sys\n"
    "from dfobounds import cli\n"
    "assert cli.main(sys.argv[1:]) == 0\n"
    "print(json.dumps([sorted(m for m in sys.modules if m.startswith('dfobounds.')),"
    " sys.modules.get('numpy') is not None]))\n"
)


def loaded_after(*argv: str) -> tuple:
    *_, last = run_fresh(LOADED_AFTER_MAIN, *argv).splitlines()
    modules, numpy = json.loads(last)
    return {m.rpartition(".")[2] for m in modules}, numpy


def test_import_loads_no_scipy():
    # Every public name is resolved first: the package loads its submodules
    # on first use, so a bare import would prove nothing about them.
    code = (
        "import json, sys, dfobounds, dfobounds.cli, dfobounds.fileio; "
        "[getattr(dfobounds, name) for name in dfobounds.__all__]; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))"
    )
    assert json.loads(run_fresh(code)) == []


def test_bare_import_loads_no_submodule_and_no_numpy():
    code = (
        "import json, sys, dfobounds; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m.startswith(('dfobounds.', 'numpy')))))"
    )
    assert json.loads(run_fresh(code)) == []


def test_bounds_runs_without_numpy(capsys):
    assert main(BOUNDS_ARGV) == 0
    expected = capsys.readouterr().out
    # A None entry in sys.modules makes any import of NumPy raise.
    code = "import sys\nsys.modules['numpy'] = None\n" + LOADED_AFTER_MAIN
    stdout = run_fresh(code, *BOUNDS_ARGV)
    assert stdout.startswith(expected)
    modules, numpy = json.loads(stdout[len(expected):])
    assert modules == ["dfobounds.bounds", "dfobounds.cli"] and not numpy


@pytest.fixture
def inputs(tmp_path):
    points = tmp_path / "points.csv"
    points.write_text("y1,y2,f\n0.0,0.0,1.0\n0.1,0.0,2.0\n0.0,0.1,3.0\n")
    (tmp_path / "points.json").write_text('{"delta": 0.1}\n')
    model = tmp_path / "model.json"
    model.write_text('{"n": 2, "c": 0.0, "g": [1.0, 0.0], "H": [[1.0, 0.0], [0.0, 2.0]]}')
    return str(points), str(model)


def test_poisedness_and_fit_load_no_verify(inputs):
    points, _ = inputs
    loaded, _ = loaded_after("poisedness", points, "--kind", "linear")
    assert "geometry" in loaded and "verify" not in loaded and "models" not in loaded
    loaded, _ = loaded_after("fit", points, "--kind", "lin_det")
    assert "models" in loaded and "verify" not in loaded


def test_oracle_loads_no_geometry(inputs):
    _, model = inputs
    loaded, numpy = loaded_after(
        "oracle", "--poly", model, "--radius", "1", "--resolution", "0.1"
    )
    assert loaded == {"ball", "bounds", "cli", "fileio", "poly"} and numpy


def test_every_public_name_resolves():
    namespace = {}
    exec("from dfobounds import *", namespace)
    for name in dfobounds.__all__:
        assert namespace[name] is getattr(dfobounds, name)
    assert set(dfobounds.__all__) <= set(dir(dfobounds))
    assert dfobounds.verify.run_campaign is dfobounds.run_campaign


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="'dfobounds' has no attribute 'nope'"):
        dfobounds.nope
