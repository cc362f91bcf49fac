import json

import numpy as np
import pytest

from dfobounds import QuadraticPolynomial, generate_poised_set
from dfobounds.fileio import (
    model_from_dict,
    model_to_dict,
    read_config,
    read_gamma,
    read_model,
    read_points,
    sidecar_path,
    write_model,
    write_points,
)

from conftest import random_quadratic


def test_points_roundtrip(tmp_path, rng):
    ss = generate_poised_set(3, 5, 0.4, 20.0, seed=1)
    values = rng.standard_normal(6)
    path = tmp_path / "pts.csv"
    write_points(path, ss.points, values=values, delta=ss.radius)
    loaded, loaded_values = read_points(path)
    assert np.allclose(loaded.points, ss.points)
    assert np.isclose(loaded.radius, ss.radius)
    assert np.allclose(loaded_values, values)


def test_points_without_values(tmp_path):
    path = tmp_path / "pts.csv"
    write_points(path, np.array([[0.0, 0.0], [1.0, 0.0]]))
    ss, values = read_points(path, delta=1.0)
    assert values is None
    assert ss.p == 1


def test_flag_overrides_sidecar(tmp_path):
    path = tmp_path / "pts.csv"
    write_points(path, np.array([[0.0], [1.0]]), delta=5.0)
    assert json.loads(sidecar_path(path).read_text()) == {"delta": 5.0}
    ss, _ = read_points(path, delta=2.0)
    assert ss.radius == 2.0


def test_missing_delta_everywhere(tmp_path):
    path = tmp_path / "pts.csv"
    write_points(path, np.array([[0.0], [1.0]]))
    with pytest.raises(ValueError, match="sidecar"):
        read_points(path)


def test_bad_header(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("a,b\n0,0\n1,0\n")
    with pytest.raises(ValueError, match="header"):
        read_points(path, delta=1.0)


def test_error_names_offending_row(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("y1,y2\n0.0,0.0\n1.0,oops\n")
    with pytest.raises(ValueError, match="row 2"):
        read_points(path, delta=1.0)
    path.write_text("y1,y2\n0.0,0.0\n1.0\n")
    with pytest.raises(ValueError, match="row 2"):
        read_points(path, delta=1.0)
    # float() takes these cells; the row loop refuses them.
    path.write_text("y1,y2\n0.0,0.0\n1.0,nan\n")
    with pytest.raises(ValueError, match="pts.csv: data row 2 contains a field that is not"):
        read_points(path, delta=1.0)
    path.write_text("y1,y2,f\n0.0,0.0,1.0\n1.0,0.0,2.0\n0.0,1.0,inf\n")
    with pytest.raises(ValueError, match="pts.csv: data row 3 contains a field that is not"):
        read_points(path, delta=1.0)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0.0,0.0\n1.0,0.0\n1.0,0.0\n", "sample points must be pairwise distinct"),
        ("0.0,0.0\n3.0,4.0\n0.0,1.0\n",
         "data row 2 lies at distance 5 from the base point, outside the ball of radius 1"),
    ],
)
def test_set_errors_name_the_file(tmp_path, rows, message):
    # The sample set's own checks run after parsing; their errors name the
    # file as the reader's do.
    path = tmp_path / "pts.csv"
    path.write_text("y1,y2\n" + rows)
    with pytest.raises(ValueError) as exc:
        read_points(path, delta=1.0)
    assert str(exc.value) == f"{path}: {message}"


def test_too_few_points(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("y1\n0.0\n")
    with pytest.raises(ValueError, match="at least 2"):
        read_points(path, delta=1.0)


def test_model_roundtrip(tmp_path, rng):
    model = random_quadratic(rng, 3)
    path = tmp_path / "model.json"
    write_model(path, model, extra={"residual": 0.0})
    loaded = read_model(path)
    assert np.allclose(loaded.coeffs(), model.coeffs())
    payload = model_to_dict(model)
    again = model_from_dict(payload)
    assert np.allclose(again.hessian, model.hessian)


def test_model_shape_validation():
    with pytest.raises(ValueError, match="gradient"):
        model_from_dict({"n": 2, "c": 0.0, "g": [1.0], "H": [[0.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ValueError, match="missing"):
        model_from_dict({"n": 2, "c": 0.0, "g": [1.0, 0.0]})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("g", [1.0], '"g" (the gradient) must have shape (2,), got (1,)'),
        ("g", [1.0, 0.0, 0.0], '"g" (the gradient) must have shape (2,), got (3,)'),
        ("H", [[0.0]], '"H" (the Hessian) must have shape (2, 2), got (1, 1)'),
        ("H", [[0.0, 0.0, 0.0]] * 3, '"H" (the Hessian) must have shape (2, 2), got (3, 3)'),
    ],
)
def test_model_wrong_shape_names_file_and_key(tmp_path, key, value, message):
    payload = {"n": 2, "c": 0.0, "g": [1.0, 0.0], "H": [[0.0, 0.0], [0.0, 0.0]]}
    payload[key] = value
    with pytest.raises(ValueError) as info:
        model_from_dict(payload)
    assert str(info.value) == f"model JSON key {message}"
    path = tmp_path / "m.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as info:
        read_model(path)
    assert str(info.value) == f"{path}: model JSON key {message}"


@pytest.mark.parametrize(
    "key, value",
    [("c", float("nan")), ("g", [0.0, float("inf")]), ("H", [[0.0, 0.0], [float("nan"), 0.0]])],
)
def test_model_rejects_non_finite(key, value):
    payload = {"n": 2, "c": 0.0, "g": [1.0, 0.0], "H": [[0.0, 0.0], [0.0, 0.0]]}
    payload[key] = value
    with pytest.raises(ValueError, match=f'"{key}"'):
        model_from_dict(payload)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("n", 2.5, '"n" must be an integer'),
        ("n", 2.0, '"n" must be an integer'),
        ("n", True, '"n" must be an integer'),
        ("n", "2", '"n" must be an integer'),
        ("c", "1.5", '"c" must be a number'),
        ("c", True, '"c" must be a number'),
        ("c", [0.0], '"c" must be a number'),
        pytest.param("c", 10**400, '"c" must be finite', id="c-int-beyond-float"),
        ("g", ["1.0", 0.0], '"g" must be a list of numbers'),
        ("g", [False, 0.0], '"g" must be a list of numbers'),
        ("g", {"0": 1.0}, '"g" must be a list of numbers'),
        ("H", [[0.0, None], [0.0, 0.0]], '"H" must be a list of lists of numbers'),
        ("H", [[0.0, 0.0], [True, 0.0]], '"H" must be a list of lists of numbers'),
        ("H", [0.0, 0.0], '"H" must be a list of lists of numbers'),
        ("H", [[0.0, 0.0], [0.0]], '"H" has rows of different lengths'),
        ("n", 0, '"n" must be an integer of at least 1, got 0'),
        ("n", -1, '"n" must be an integer of at least 1, got -1'),
    ],
)
def test_model_rejects_non_numbers(key, value, message):
    payload = {"n": 2, "c": 0.0, "g": [1.0, 0.0], "H": [[0.0, 0.0], [0.0, 0.0]]}
    payload[key] = value
    with pytest.raises(ValueError, match=message):
        model_from_dict(payload)


def test_model_accepts_integer_entries():
    model = model_from_dict({"n": 2, "c": 1, "g": [1, 0.5], "H": [[2, 0], [0, 2]]})
    assert model.constant == 1.0 and model.hessian[0, 0] == 2.0


def test_write_model_rejects_non_finite_before_opening(tmp_path):
    model = QuadraticPolynomial(2, float("nan"), np.zeros(2), np.zeros((2, 2)))
    path = tmp_path / "model.json"
    with pytest.raises(ValueError):
        write_model(path, model)
    assert not path.exists()


def test_gamma_and_config(tmp_path):
    gpath = tmp_path / "gamma.json"
    gpath.write_text("[1.0, 2.0, 3.0]")
    assert np.allclose(read_gamma(gpath), [1.0, 2.0, 3.0])
    gpath.write_text('{"not": "a list"}')
    with pytest.raises(ValueError, match="gamma.json: gamma values must be a list of numbers"):
        read_gamma(gpath)
    cpath = tmp_path / "cfg.json"
    cpath.write_text('{"function": "quartic"}')
    assert read_config(cpath) == {"function": "quartic"}
    cpath.write_text("[1, 2]")
    with pytest.raises(ValueError, match="object"):
        read_config(cpath)


def test_integers_beyond_float_range_rejected(tmp_path):
    huge = "1" + "0" * 400
    gpath = tmp_path / "gamma.json"
    gpath.write_text(f"[{huge}, 0, 0]")
    with pytest.raises(ValueError, match="gamma.json: gamma values must be finite"):
        read_gamma(gpath)
    ppath = tmp_path / "pts.csv"
    write_points(ppath, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    (tmp_path / "pts.json").write_text(f'{{"delta": {huge}}}')
    with pytest.raises(ValueError, match='pts.json: sidecar "delta" must be a finite number'):
        read_points(ppath)


def test_invalid_json_reports_path(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(ValueError, match="broken.json"):
        read_model(path)
