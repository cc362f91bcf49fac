"""Correctness gates, checked before any number is reported.

Each check returns a list of human-readable problems; an empty list passes.
"""

from __future__ import annotations

import json
import math

MARGIN_CAP = 1.0
FIT_RESIDUAL_CAP = 1e-8


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def strict_json(text: str):
    """Parse JSON, refusing the NaN / Infinity tokens Python emits by default."""
    return json.loads(text, parse_constant=_reject_constant)


def campaign_problems(report, lambda_max: float) -> tuple:
    """(failed trials, problems) for one ``run_campaign`` report.

    A trial fails when it raised, when any margin exceeds 1, or when its
    certified lambda exceeds ``lambda_max``.
    """
    problems = [
        f"trial {f['trial_id']} raised: {f['error']}" for f in report.failures
    ]
    if report.summary.get("n_failed", 0) != len(report.failures):
        problems.append("summary n_failed disagrees with the failure list")
    failed = len(report.failures)
    for row in report.rows:
        if row["lambda"] == "":
            continue
        bad = [
            f"{key}={row[key]!r}"
            for key in ("margin_f", "margin_g", "margin_H")
            if not row[key] <= MARGIN_CAP
        ]
        if not row["lambda"] <= lambda_max:
            bad.append(f"lambda={row['lambda']!r} > {lambda_max}")
        if bad:
            failed += 1
            problems.append(f"trial {row['trial_id']}: " + ", ".join(bad))
    return failed, problems


def csv_problems(untraced: bytes, traced: bytes, label: str) -> list:
    if untraced == traced:
        return []
    return [f"{label}: traced CSV differs from the untraced CSV of the same trials"]


def cli_problems(command: str, exit_code: int, stdout: str) -> tuple:
    """(problems, parsed payload or None) for one CLI call."""
    if exit_code != 0:
        return [f"{command}: exit code {exit_code}"], None
    try:
        payload = strict_json(stdout)
    except ValueError as exc:
        return [f"{command}: stdout is not strict JSON: {exc}"], None
    if not isinstance(payload, dict):
        return [f"{command}: stdout is not a JSON object"], None
    problems = []
    if command == "poisedness" and payload.get("satisfied") is not True:
        problems.append("poisedness: certificate not satisfied")
    if command == "fit" and not payload.get("residual", math.inf) <= FIT_RESIDUAL_CAP:
        problems.append(f"fit: residual {payload.get('residual')!r} > {FIT_RESIDUAL_CAP}")
    if command == "bounds":
        for key in ("C_f", "C_g", "C_H"):
            value = payload.get(key)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value >= 0):
                problems.append(f"bounds: {key}={value!r} is not a finite nonnegative number")
    if command == "verify" and not (
        payload.get("n_failed") == 0 and payload.get("all_passed") is True
    ):
        problems.append("verify: campaign reported failures")
    return problems, payload


def oracle_problems(value: float, exact: float, lipschitz: float, resolution: float) -> list:
    """The grid value may not beat the exact maximum, nor trail it by more
    than the Lipschitz constant times the lattice spacing."""
    slack = 1e-9 * max(1.0, abs(exact))
    if exact - lipschitz * resolution - slack <= value <= exact + slack:
        return []
    return [f"oracle: grid max {value!r} inconsistent with exact max {exact!r}"]
