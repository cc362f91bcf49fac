"""The runtime needs NumPy only: importing the package loads no SciPy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import dfobounds


def test_import_loads_no_scipy():
    src = str(Path(dfobounds.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    code = (
        "import json, sys, dfobounds, dfobounds.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(done.stdout) == []
