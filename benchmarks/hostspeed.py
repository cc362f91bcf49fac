"""Host-speed reference: a fixed piece of work timed next to the program.

The benchmark host is a few vCPUs of a shared machine whose speed drifts by
tens of percent within a run and between runs, with the load of its other
tenants.  So every timed stretch of the program is paired with reference
work timed next to it, and is reported as

    wall time * REF_S / reference time,

that is, in seconds at the host speed at which the reference work takes
REF_S.  A change of the program moves these figures; a change of host speed
moves program and reference alike and cancels out.  The per-layer metric
``host.reference_s`` gives the host speed a traced run saw, so wall times can
be recovered roughly as ``scaled * host.reference_s / REF_S``.

The work mirrors the program's mix, small dense NumPy linear algebra called
from Python loops plus plain float arithmetic, and uses nothing from
``dfobounds``, so no change of the program can move it.  Cold CLI processes
follow the speed of process start and module loading instead, which this
warm in-process work tracks badly; their reference is a fresh interpreter
importing NumPy (``child_reference_s``).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from probes import timed_child

# Seconds the reference work takes on the 2-vCPU host of the first figures
# in trajectory.json; scaled times there read close to wall seconds.
REF_S = 0.015
# Seconds a fresh interpreter takes to import NumPy on that host.
CHILD_REF_S = 0.2
CHILD_TIMEOUT_S = 60
SETUP_REFERENCES = 3

_A = np.random.default_rng(0).standard_normal((6, 6))
_A = _A + _A.T


def reference_work() -> float:
    a = _A
    for _ in range(300):
        np.linalg.eigh(a)
        np.linalg.solve(a, a[0])
        a @ a
    total = 0.0
    for i in range(30_000):
        total += i * 0.5
    return total


def reference_s() -> float:
    """Wall seconds of one run of the reference work."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start


def child_reference_s(env: dict) -> float:
    """Wall seconds of a fresh interpreter that imports NumPy."""
    code, seconds, _ = timed_child(
        [sys.executable, "-c", "import numpy"], CHILD_TIMEOUT_S,
        env=env, stdout=subprocess.DEVNULL,
    )
    if code != 0:
        raise RuntimeError(f"reference interpreter exited with code {code}")
    return seconds


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` at reference speed, from the reference times around it."""
    return wall * REF_S * 2.0 / (before + after)


def scaled_setup(wall: float) -> float:
    """A set-up time at reference speed, timing the reference right after.

    Set-up imports NumPy itself, so the reference cannot run before it; the
    first reference run warms NumPy's linear algebra and is not counted.
    """
    reference_work()
    reference = statistics.median(reference_s() for _ in range(SETUP_REFERENCES))
    return wall * REF_S / reference
