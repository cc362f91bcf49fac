"""Child-process probes: set-up time, import time, interpreter start.

Each probe runs a fresh interpreter against the checkout's ``src/``, so it
sees the same cold start a user's shell does.  Run as a script, this file
is the set-up probe itself:

    python3 benchmarks/probes.py setup <workload> <seed> <out_dir>

prints the seconds from before ``import dfobounds`` to warm inputs, at
reference host speed (see ``hostspeed``).
"""

from __future__ import annotations

import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("campaign_n2", "campaign_highdim", "cli_oneshot")
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not old else f"{SRC}{os.pathsep}{old}"
    return env


def timed_child(argv, timeout: float, **popen) -> tuple:
    """Run a child to its end: (exit code, wall seconds, its rusage).

    The parent sleeps on a pidfd until the child exits, so it neither polls
    beside the timed child (``subprocess`` waits with a timeout poll at up
    to 50 ms steps) nor needs a helper thread to kill a hung one.  The
    child is reaped with ``wait4`` for its own resource usage.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, **popen)
    pidfd = os.pidfd_open(proc.pid)
    try:
        if not select.select([pidfd], [], [], timeout)[0]:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        os.close(pidfd)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage


def _run(argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        argv,
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def setup_probe(workload: str, seed: int, out_dir: Path) -> float:
    done = _run([sys.executable, str(Path(__file__).resolve()), "setup", workload, str(seed), str(out_dir)])
    return float(done.stdout.strip().splitlines()[-1])


_IMPORT_CODE = (
    "import time\n"
    "import dfobounds\n"
    "t = time.perf_counter()\n"
    "dfobounds.rosenbrock_function(2)\n"
    "print(time.perf_counter() - t)\n"
)


def parse_importtime(stderr: str) -> tuple:
    """(dfobounds cumulative s, SciPy cumulative s) from ``-X importtime``.

    SciPy time sums the cumulative time of every scipy module whose
    importer is not itself a scipy module, so nested subpackages count once.
    """
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total_us, scipy_us = 0, 0
    stack = []  # importer chain; parents are printed after their children
    for depth, cumulative, name in reversed(rows):
        del stack[depth:]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(parent.startswith("scipy") for parent in stack):
            scipy_us += cumulative
        if name == "dfobounds" and depth == 0:
            total_us = cumulative
        stack.append(name)
    return total_us * 1e-6, scipy_us * 1e-6


def import_probe(repeats: int) -> dict:
    """Medians of import time, its SciPy share and the Rosenbrock scan."""
    totals, scipys, scans = [], [], []
    for _ in range(repeats):
        done = _run([sys.executable, "-X", "importtime", "-c", _IMPORT_CODE])
        total, scipy_s = parse_importtime(done.stderr)
        totals.append(total)
        scipys.append(scipy_s)
        scans.append(float(done.stdout.strip().splitlines()[-1]))
    return {
        "import.total_s": statistics.median(totals),
        "import.scipy_s": statistics.median(scipys),
        "verify.lipschitz_setup_s": statistics.median(scans),
    }


def python_start_probe(repeats: int) -> float:
    times = []
    for _ in range(repeats):
        code, seconds, _ = timed_child(
            [sys.executable, "-c", "pass"], CHILD_TIMEOUT_S, cwd=ROOT, env=child_env()
        )
        if code != 0:
            raise RuntimeError(f"bare interpreter exited with code {code}")
        times.append(seconds)
    return statistics.median(times)


def _setup_main(workload: str, seed: int, out_dir: str) -> None:
    start = time.perf_counter()
    import workloads  # this directory is sys.path[0] when run as a script

    workloads.prepare(workload, seed, Path(out_dir))
    print(workloads.hostspeed.scaled_setup(time.perf_counter() - start))


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] != "setup":
        sys.exit("usage: probes.py setup <workload> <seed> <out_dir>")
    _setup_main(sys.argv[2], int(sys.argv[3]), sys.argv[4])
