#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 scripts/ab_pairs.py PARENT_DIR CHANGE_DIR --workload campaign_n2 --pairs 10 --seconds 30

Pair k runs ``python3 benchmarks/run.py --workload W --seed k --seconds S
--trace 0`` once in each checkout, for k = 1..N.  The parent runs first in
odd pairs and the change first in even pairs, so neither side always gets
the warmer or the quieter host.  Make both directories the same way, for
example ``git worktree add --detach DIR REV`` or a fresh ``git clone`` for
each revision: a copy made otherwise (``cp -a`` of a working tree) can read
several percent apart on the same code.

Prints the end-to-end metrics of every run and its minor page faults,
then each side's median and quartiles per metric and of the faults (linear
interpolation between order statistics), the
change's wins on ``ops_per_s``, the median and IQR of the paired relative
differences of ``ops_per_s`` (change / parent - 1 in each pair), and
whether the gain rule holds: the change wins at least nine pairs in ten
and its median beats the parent's by more than the parent's interquartile
range.  Then, for every end-to-end metric, the no-regression verdict
against that metric's ``bound``, a share of the parent's median: "worse"
if the change's median is worse than the parent's by more than the bound,
else "unresolved" if the parent's IQR exceeds the bound, else "holds".
With fewer than 10 pairs the gain rule and every verdict read
"unresolved": a handful of runs has no spread to judge by (one pair has
an IQR of zero).  The better direction and the bound of each metric are
read from the change's ``BENCHMARK.json``.  Exits 1 if any run exits
nonzero or reports ``"correct": false``, 0 otherwise, whatever the gain
rule and the verdicts say.

A run's minor page faults are read with ``wait4`` of ``run.py``, so they
count the faults of the probe processes it runs and waits for too.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

FAULTS = "minor_faults"  # the column of each run's minor page faults
GAIN_METRIC = "ops_per_s"
GAIN_WINS = 0.9  # the share of pairs the change must win
MIN_PAIRS = 10  # fewer pairs leave every verdict unresolved


def run(checkout: Path, workload: str, seed: int, seconds: float):
    """The metrics of one untraced run and its minor page faults, or None if it failed."""
    command = [
        sys.executable, "benchmarks/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        proc = subprocess.Popen(command, cwd=checkout, stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr)
        return None
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.stderr.write(stderr)
        return None
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    metrics[FAULTS] = usage.ru_minflt
    return metrics


def quartiles(values):
    """(q1, median, q3) by linear interpolation, as np.quantile's default."""
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def share(amount: float, median: float) -> float:
    """amount as a share of |median|; a nonzero amount of a zero median is infinite."""
    if median:
        return amount / abs(median)
    return math.copysign(math.inf, amount) if amount else 0.0


def verdict(parent, change, direction: str, bound: float) -> str:
    """The no-regression verdict on one metric from each side's (q1, median, q3)."""
    q1, median, q3 = parent
    loss = median - change[1] if direction == "higher" else change[1] - median
    if share(loss, median) > bound:
        return "worse"
    if share(q3 - q1, median) > bound:
        return "unresolved"
    return "holds"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent revision")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("--pairs must be at least 1 and --seconds positive")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    direction = {entry["name"]: entry["better"] for entry in spec["end_to_end"]}
    bound = {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}
    names = list(direction)
    columns = names + [FAULTS]
    direction[FAULTS] = "lower"

    runs = {"parent": [], "change": []}
    failed = False
    print(f"{'pair':>4} {'side':<6} " + " ".join(f"{name:>14}" for name in columns))
    for k in range(1, args.pairs + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        for side in order:
            metrics = run(getattr(args, side), args.workload, k, args.seconds)
            if metrics is None:
                print(f"{k:>4} {side:<6} run failed")
                failed = True
                continue
            runs[side].append(metrics)
            cells = " ".join(f"{metrics.get(name, math.nan):>14.6g}" for name in columns)
            print(f"{k:>4} {side:<6} {cells}", flush=True)
    if failed:
        return 1

    print(f"\n{'metric':<15} {'better':<7} {'side':<6} {'q1':>11} {'median':>11} {'q3':>11}")
    summary = {}
    for name in columns:
        for side in ("parent", "change"):
            values = [m[name] for m in runs[side] if name in m]
            if not values:
                continue
            summary[side, name] = quartiles(values)
            q1, q2, q3 = summary[side, name]
            print(f"{name:<15} {direction[name]:<7} {side:<6} {q1:>11.6g} {q2:>11.6g} {q3:>11.6g}")

    way = direction[GAIN_METRIC]
    wins = sum(
        better(c[GAIN_METRIC], p[GAIN_METRIC], way)
        for p, c in zip(runs["parent"], runs["change"])
    )
    q1, parent_median, q3 = summary["parent", GAIN_METRIC]
    change_median = summary["change", GAIN_METRIC][1]
    gap = change_median - parent_median if way == "higher" else parent_median - change_median
    enough_wins = wins >= math.ceil(GAIN_WINS * args.pairs)
    print(
        f"\n{GAIN_METRIC}: change wins {wins} of {args.pairs} pairs; median "
        f"{parent_median:.6g} -> {change_median:.6g} "
        f"({100.0 * (change_median / parent_median - 1.0):+.2f}%), "
        f"gap {gap:.6g} against the parent's IQR {q3 - q1:.6g}"
    )
    d1, d2, d3 = quartiles([
        c[GAIN_METRIC] / p[GAIN_METRIC] - 1.0 for p, c in zip(runs["parent"], runs["change"])
    ])
    print(
        f"paired relative differences (change / parent - 1): median {100.0 * d2:+.2f}%, "
        f"IQR {100.0 * (d3 - d1):.2f}%"
    )
    short = args.pairs < MIN_PAIRS
    if short:
        print(
            f"{args.pairs} of the {MIN_PAIRS} pairs a verdict needs: the IQRs are too coarse "
            f"to judge by (one pair's is zero), so the gain rule and every verdict read unresolved"
        )
    holds = enough_wins and gap > q3 - q1
    rule = "unresolved" if short else "holds" if holds else "fails"
    print(f"gain rule (>= {GAIN_WINS:.0%} wins and gap > IQR): {rule}")

    print("\nno regression (worse by more than the bound, or a parent IQR above it):")
    for name in names:
        if ("parent", name) not in summary or ("change", name) not in summary:
            continue
        parent, change = summary["parent", name], summary["change", name]
        q1, parent_median, q3 = parent
        print(
            f"{name:<15} bound {bound[name]:.0%}: median {parent_median:.6g} -> "
            f"{change[1]:.6g} ({100.0 * share(change[1] - parent_median, parent_median):+.2f}%), "
            f"parent IQR {100.0 * share(q3 - q1, parent_median):.2f}% of its median: "
            f"{'unresolved' if short else verdict(parent, change, direction[name], bound[name])}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
