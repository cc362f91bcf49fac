"""File formats: point-set CSV, model JSON, gamma JSON, config JSON.

Point sets travel as CSV with header ``y1,...,yn`` and an optional trailing
``f`` column; the first data row is the ball center.  The radius comes from
the caller or from a JSON sidecar next to the file.  Models are JSON
objects with keys n, c, g, H.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .poly import QuadraticPolynomial

if TYPE_CHECKING:
    from .geometry import SampleSet

__all__ = [
    "sidecar_path",
    "read_points",
    "write_points",
    "model_to_dict",
    "model_from_dict",
    "read_model",
    "write_model",
    "read_gamma",
    "read_config",
]


def sidecar_path(path) -> Path:
    """The JSON metadata file that accompanies a points CSV."""
    return Path(path).with_suffix(".json")


def _read_json(path, what: str):
    """The JSON document in the file at path; ValueError naming it if invalid."""
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON {what}: {exc}") from exc


def _sidecar_delta(path) -> Optional[float]:
    side = sidecar_path(path)
    if not side.exists():
        return None
    payload = _read_json(side, "sidecar")
    if not isinstance(payload, dict) or "delta" not in payload:
        raise ValueError(f'{side}: sidecar must be an object with a "delta" key')
    if not _nests_numbers(payload["delta"], 0):
        raise ValueError(f'{side}: sidecar "delta" must be a number')
    try:
        delta = float(payload["delta"])
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f'{side}: sidecar "delta" must be finite') from None
    if not 0.0 < delta < float("inf"):
        raise ValueError(
            f'{side}: sidecar "delta" must be a positive finite number, got {delta}'
        )
    return delta


def read_points(path, delta: Optional[float] = None) -> Tuple[SampleSet, Optional[np.ndarray]]:
    """Read a point-set CSV; returns the sample set and values if present.

    The radius is taken from ``delta`` when given, otherwise from the JSON
    sidecar ``<stem>.json``.  Parse errors name the offending data row.
    """
    # Imported here so that reading a model or a config loads no geometry.
    from .geometry import SampleSet

    path = Path(path)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [cell.strip() for cell in header]
        has_values = bool(header) and header[-1] == "f"
        coord_names = header[:-1] if has_values else header
        n = len(coord_names)
        expected = [f"y{i}" for i in range(1, n + 1)]
        if n == 0 or coord_names != expected:
            raise ValueError(
                f"{path}: header must be y1,...,yn with an optional trailing f "
                f"column, got {','.join(header)}"
            )
        rows = []
        values = []
        for index, row in enumerate(reader, start=1):
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: data row {index} has {len(row)} fields, expected "
                    f"{len(header)}"
                )
            try:
                numbers = [float(cell) for cell in row]
            except ValueError:
                raise ValueError(
                    f"{path}: data row {index} contains a non-numeric field"
                ) from None
            if has_values:
                rows.append(numbers[:-1])
                values.append(numbers[-1])
            else:
                rows.append(numbers)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 points, got {len(rows)}")
    if delta is None:
        delta = _sidecar_delta(path)
    if delta is None:
        raise ValueError(
            f"{path}: no radius given and no JSON sidecar {sidecar_path(path).name} "
            "found"
        )
    sample_set = SampleSet(np.asarray(rows, dtype=float), float(delta))
    return sample_set, (np.asarray(values, dtype=float) if has_values else None)


def write_points(path, points, values=None, delta: Optional[float] = None) -> None:
    """Write a point-set CSV; when delta is given, also write the sidecar."""
    points = np.asarray(points, dtype=float)
    header = [f"y{i}" for i in range(1, points.shape[1] + 1)]
    if values is not None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size != points.shape[0]:
            raise ValueError(
                f"got {values.size} values for {points.shape[0]} points"
            )
        header.append("f")
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for index, point in enumerate(points):
            row = [str(float(x)) for x in point]
            if values is not None:
                row.append(str(float(values[index])))
            writer.writerow(row)
    if delta is not None:
        sidecar_path(path).write_text(
            json.dumps({"delta": float(delta)}) + "\n"
        )


def model_to_dict(model: QuadraticPolynomial) -> dict:
    return {
        "n": model.dim,
        "c": float(model.constant),
        "g": [float(x) for x in model.gradient],
        "H": [[float(x) for x in row] for row in model.hessian],
    }


def _nests_numbers(value, depth: int) -> bool:
    """Whether value is depth levels of JSON arrays around numbers only."""
    if depth:
        return isinstance(value, list) and all(
            _nests_numbers(item, depth - 1) for item in value
        )
    # JSON true and false load as bool, an int subclass; they are not numbers.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _model_array(payload: dict, key: str, depth: int) -> np.ndarray:
    if not _nests_numbers(payload[key], depth):
        what = ("a number", "a list of numbers", "a list of lists of numbers")[depth]
        raise ValueError(f'model JSON key "{key}" must be {what}')
    try:
        return np.asarray(payload[key], dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f'model JSON key "{key}" must be finite') from None
    except ValueError:  # NumPy rejects rows of different lengths
        raise ValueError(
            f'model JSON key "{key}" has rows of different lengths'
        ) from None


def model_from_dict(payload: dict) -> QuadraticPolynomial:
    for key in ("n", "c", "g", "H"):
        if key not in payload:
            raise ValueError(f'model JSON is missing key "{key}"')
    n = payload["n"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ValueError(f'model JSON key "n" must be an integer, got {n!r}')
    c = float(_model_array(payload, "c", 0))
    g = _model_array(payload, "g", 1)
    H = _model_array(payload, "H", 2)
    if g.shape != (n,):
        raise ValueError(f"model gradient has shape {g.shape}, expected ({n},)")
    if H.shape != (n, n):
        raise ValueError(f"model Hessian has shape {H.shape}, expected ({n}, {n})")
    for key, value in (("c", c), ("g", g), ("H", H)):
        if not np.all(np.isfinite(value)):
            raise ValueError(f'model JSON key "{key}" must be finite')
    return QuadraticPolynomial(n, c, g, H)


def read_model(path) -> QuadraticPolynomial:
    payload = _read_json(path, "model")
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: model JSON must be an object")
    return model_from_dict(payload)


def write_model(path, model: QuadraticPolynomial, extra: Optional[dict] = None) -> dict:
    """Serialize a model to strict JSON; extra keys are merged into the object."""
    payload = model_to_dict(model)
    if extra:
        payload.update(extra)
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if path is not None:
        Path(path).write_text(text + "\n")
    return payload


def read_gamma(path) -> np.ndarray:
    payload = _read_json(path, "gamma file")
    if not _nests_numbers(payload, 1):
        raise ValueError(f"{path}: gamma file must be a JSON array of numbers")
    try:
        return np.asarray(payload, dtype=float)
    except OverflowError:  # an integer beyond the float range
        raise ValueError(f"{path}: gamma values must be finite") from None


def read_config(path) -> dict:
    payload = _read_json(path, "config")
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return payload
