#!/usr/bin/env python3
"""dfobounds benchmark: one command for every workload and metric.

    python3 benchmarks/run.py --workload campaign_n2 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (see ``BENCHMARK.json``).  End-to-end times are scaled to a reference
host speed, which cancels the drift of the shared host (see ``hostspeed``).
Outputs are checked before any number is printed; a failed check makes the
exit code 1.  The last stdout line is the
result object; the line before it records the environment.  Run artefacts
(campaign CSVs, spans, a result file) go to ``.bench_out/`` in the checkout.

Tests of the benchmark itself: ``python3 -m pytest benchmarks``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

# One BLAS thread, set before NumPy loads; child processes inherit it.  With
# the default of one per CPU, OpenBLAS's idle worker spins on the second of
# the host's two CPUs and the timings follow the scheduler.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import probes  # noqa: E402
from probes import ROOT, SRC, WORKLOADS  # noqa: E402

OUT = ROOT / ".bench_out"
# Set-up is timed once in this process and in SETUP_PROBES fresh processes;
# the reported set-up time is the median.
SETUP_PROBES = 3
IMPORT_PROBES = 3
START_PROBES = 5


def environment() -> dict:
    import numpy
    import scipy

    commit = "unknown"  # a benchmark checkout is usually not a git repository
    if (ROOT / ".git").exists():
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or commit
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dfobounds" / "__init__.py").is_file():
        print(f"benchmark: no program source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit_of = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)

    start = time.perf_counter()
    import workloads  # imports dfobounds: part of the timed set-up

    state = workloads.prepare(args.workload, args.seed, out_dir / "run")
    setup = [workloads.hostspeed.scaled_setup(time.perf_counter() - start)]
    info = {"setup_samples": setup}
    if args.trace:
        metrics, measured, tracers = workloads.trace(state, args.seconds)
        metrics.update(probes.import_probe(IMPORT_PROBES))
        metrics["cli.python_start_s"] = probes.python_start_probe(START_PROBES)
        absent = set()
        for name, tracer in tracers.items():
            absent.update(tracer.absent_layers())
            tracer.write(
                out_dir / f"spans-{name}.jsonl",
                {"workload": args.workload, "seed": args.seed, "missing": tracer.missing},
            )
        info["absent_layers"] = sorted(absent)
    else:
        for index in range(SETUP_PROBES):
            setup.append(probes.setup_probe(args.workload, args.seed, out_dir / f"probe{index}"))
        metrics, measured = workloads.measure(state, args.seconds)
        metrics["setup_s"] = statistics.median(setup)
    info["samples"] = len(measured.latencies)

    correct = not measured.problems
    for problem in measured.problems:
        print(f"benchmark: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": measured.attempted,
        "failed": max(measured.failed, 0 if correct else 1),
        "metrics": {
            name: {"value": value, "unit": unit_of[name]}
            for name, value in sorted(metrics.items())
        },
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), "info": info,
              "problems": measured.problems, "result": result}
    (out_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"environment": record["environment"], "info": info}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
