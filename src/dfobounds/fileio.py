"""File formats: point-set CSV, model JSON, gamma JSON, config JSON.

Point sets travel as CSV with header ``y1,...,yn`` and an optional trailing
``f`` column; the first data row is the ball center.  The radius comes from
the caller or from a JSON sidecar next to the file.  Models are JSON
objects with keys n, c, g, H.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from .bounds import _integer, _number
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
    return _number(f'{side}: sidecar "delta"', payload["delta"], 0.0, strict=True)


def read_points(path, delta: Optional[float] = None) -> Tuple[SampleSet, Optional[np.ndarray]]:
    """Read a point-set CSV; returns the sample set and values if present.

    The radius is taken from ``delta`` when given, otherwise from the JSON
    sidecar ``<stem>.json``.  Errors in its content name the file; parse
    errors, cells that are not finite numbers and a point outside the ball
    name the data row too.
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
            # float() takes "nan" and "inf", which no point or value may be.
            try:
                numbers = [float(cell) for cell in row]
            except ValueError:
                numbers = [math.nan]
            if not all(map(math.isfinite, numbers)):
                raise ValueError(
                    f"{path}: data row {index} contains a field that is not a "
                    "finite number"
                )
            if has_values:
                rows.append(numbers[:-1])
                values.append(numbers[-1])
            else:
                rows.append(numbers)
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 points, got {len(rows)}")
    delta = _sidecar_delta(path) if delta is None else _number("delta", delta, 0.0, strict=True)
    if delta is None:
        raise ValueError(
            f"{path}: no radius given and no JSON sidecar {sidecar_path(path).name} "
            "found"
        )
    try:
        sample_set = SampleSet(np.asarray(rows, dtype=float), delta)
    except ValueError as exc:
        message = str(exc)
        if hasattr(exc, "index"):
            # The set numbers its points from 0, the file its data rows from 1.
            message = message.replace(f"point {exc.index}", f"data row {exc.index + 1}", 1)
        raise ValueError(f"{path}: {message}") from None
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


def _finite_array(value, depth: int, name: str) -> np.ndarray:
    """value, depth levels of JSON arrays around numbers, as a finite array.

    ValueError naming ``name``, the file or the key, if it is anything else,
    has rows of different lengths, or holds NaN, an infinity or an integer
    beyond the float range.
    """
    if not _nests_numbers(value, depth):
        what = ("a number", "a list of numbers", "a list of lists of numbers")[depth]
        raise ValueError(f"{name} must be {what}")
    try:
        array = np.asarray(value, dtype=float)
    except ValueError:  # NumPy rejects rows of different lengths
        raise ValueError(f"{name} has rows of different lengths") from None
    except OverflowError:  # an integer beyond the float range
        array = None
    if array is None or not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


def model_from_dict(payload: dict, name: str = "model JSON") -> QuadraticPolynomial:
    """The model a JSON object describes; ValueError naming the bad key.

    ``name`` opens each message; ``read_model`` puts the file in it.
    """
    for key in ("n", "c", "g", "H"):
        if key not in payload:
            raise ValueError(f'{name} is missing key "{key}"')
    n = _integer(f'{name} key "n"', payload["n"], 1)
    c, g, H = (
        _finite_array(payload[key], depth, f'{name} key "{key}"')
        for depth, key in enumerate("cgH")
    )
    for key, what, array, shape in (("g", "gradient", g, (n,)), ("H", "Hessian", H, (n, n))):
        if array.shape != shape:
            raise ValueError(
                f'{name} key "{key}" (the {what}) must have shape {shape}, got {array.shape}'
            )
    return QuadraticPolynomial(n, c, g, H)


def read_model(path) -> QuadraticPolynomial:
    payload = _read_json(path, "model")
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: model JSON must be an object")
    return model_from_dict(payload, f"{path}: model JSON")


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
    return _finite_array(_read_json(path, "gamma file"), 1, f"{path}: gamma values")


def read_config(path) -> dict:
    payload = _read_json(path, "config")
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return payload
