"""The README's quick start runs as written, with every warning an error."""

import os
import re
import subprocess
import sys

from conftest import ROOT


def test_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    # The first print is the certificate, as its comment in the README says.
    lam, satisfied = done.stdout.splitlines()[0].split()
    assert lam.startswith("1.5912") and satisfied == "True"
