import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dfobounds
from dfobounds.bounds import BoundInputs
from dfobounds.cli import build_parser, main
from dfobounds.fileio import write_points


@pytest.fixture
def simplex_csv(tmp_path):
    path = tmp_path / "simplex.csv"
    write_points(path, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    return str(path)


@pytest.fixture
def cross_csv(tmp_path):
    # the x1*x2 dataset, radius sqrt(2), values in the f column
    path = tmp_path / "cross.csv"
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    write_points(path, pts, values=pts[:, 0] * pts[:, 1], delta=float(np.sqrt(2.0)))
    return str(path)


# A 3-D minimum-norm set (3 < p = 6 < q = 9) with its sidecar, the model
# that fit writes for it, and each command's stdout on them.
GOLDEN = Path(__file__).resolve().parent / "data" / "cli"


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestPoisedness:
    def test_simplex_certificate(self, capsys, simplex_csv):
        code, payload = run_json(
            capsys, ["poisedness", simplex_csv, "--delta", "1", "--kind", "linear"]
        )
        assert code == 0
        assert np.isclose(payload["lambda"], 2.414214, atol=1e-6)
        assert payload["satisfied"] is True

    def test_collinear_exits_2(self, tmp_path, capsys):
        path = tmp_path / "collinear.csv"
        write_points(path, np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]))
        code = main(["poisedness", str(path), "--delta", "1", "--kind", "linear"])
        assert code == 2
        assert "not poised" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, kind, points, system",
        [
            ("poisedness", "linear", [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], "interpolation"),
            ("fit", "lin_det", [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], "interpolation"),
            ("poisedness", "mfn", [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [1.0, 0.0]], "saddle"),
            ("fit", "mfn", [[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [1.0, 0.0]], "saddle"),
        ],
    )
    def test_singular_set_exits_2(self, tmp_path, capsys, command, kind, points, system):
        # An exactly singular system is reported with its exact cond, inf.
        path = tmp_path / "singular.csv"
        pts = np.array(points)
        write_points(path, pts, values=pts[:, 0], delta=1.0)
        assert main([command, str(path), "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"dfobounds: not poised: {system} system condition inf exceeds 1.0e+12\n"
        )

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(
            ["poisedness", str(tmp_path / "nope.csv"), "--delta", "1", "--kind", "linear"]
        )
        assert code == 1

    def test_sidecar_delta(self, tmp_path, capsys):
        path = tmp_path / "pts.csv"
        write_points(path, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), delta=1.0)
        code, payload = run_json(capsys, ["poisedness", str(path), "--kind", "linear"])
        assert code == 0
        assert np.isclose(payload["lambda"], 1.0 + np.sqrt(2.0), atol=1e-9)

    @pytest.mark.parametrize("delta", ["null", "true", '"0.5"', "[0.5]"])
    def test_sidecar_delta_not_a_number_exits_1(self, tmp_path, capsys, delta):
        path = tmp_path / "pts.csv"
        write_points(path, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        (tmp_path / "pts.json").write_text(f'{{"delta": {delta}}}')
        code = main(["poisedness", str(path), "--kind", "linear"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "pts.json" in captured.err
        assert 'sidecar "delta" must be a finite number > 0, got' in captured.err

    @pytest.mark.parametrize("delta", ["1e999", "-1", "0", "-0.0"])
    def test_sidecar_delta_not_a_radius_exits_1(self, tmp_path, capsys, delta):
        path = tmp_path / "pts.csv"
        write_points(path, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        (tmp_path / "pts.json").write_text(f'{{"delta": {delta}}}')
        code = main(["poisedness", str(path), "--kind", "linear"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "pts.json" in captured.err
        assert 'sidecar "delta" must be a finite number > 0, got' in captured.err

    @pytest.mark.parametrize("delta", ["0", "-1"])
    def test_delta_flag_not_a_radius_exits_1(self, capsys, simplex_csv, delta):
        code = main(["poisedness", simplex_csv, "--delta", delta, "--kind", "linear"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"dfobounds: error: delta must be a finite number > 0, got {float(delta)}\n"
        )

    def test_out_file(self, capsys, simplex_csv, tmp_path):
        out = tmp_path / "cert.json"
        code, payload = run_json(
            capsys,
            ["poisedness", simplex_csv, "--delta", "1", "--kind", "linear", "--out", str(out)],
        )
        assert code == 0
        assert json.loads(out.read_text()) == payload


class TestFit:
    def test_mfn_cross_model(self, capsys, cross_csv):
        code, payload = run_json(capsys, ["fit", cross_csv, "--kind", "mfn"])
        assert code == 0
        assert np.allclose(payload["H"], [[0.0, 1.0], [1.0, 0.0]], atol=1e-9)
        assert payload["residual"] <= 1e-9

    def test_kappa_zero_bit_for_bit(self, capsys, cross_csv):
        code_a = main(["fit", cross_csv, "--kind", "mfn", "--kappa", "0"])
        out_a = capsys.readouterr().out
        code_b = main(["fit", cross_csv, "--kind", "mfn"])
        out_b = capsys.readouterr().out
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_gamma_violation_exits_2(self, capsys, cross_csv, tmp_path):
        gamma = tmp_path / "gamma.json"
        gamma.write_text("[0.0, 0.0, 0.0, 9.0]")
        code = main(
            ["fit", cross_csv, "--kind", "mfn", "--kappa", "0.01", "--gamma-file", str(gamma)]
        )
        assert code == 2
        assert "3" in capsys.readouterr().err  # offending index named

    @pytest.mark.parametrize(
        "gamma",
        [
            "[null, 0.0, 0.0, 1.0]", '["0", true, 0.0, 1.0]', "[[0.0], 0, 0, 1]",
            # Python's JSON reader loads these as NaN or an infinity.
            "[NaN, 0.0, 0.0, 1.0]", "[Infinity, 0.0, 0.0, 1.0]", "[1e999, 0.0, 0.0, 1.0]",
        ],
    )
    def test_gamma_not_numbers_exits_1(self, capsys, cross_csv, tmp_path, gamma):
        path = tmp_path / "gamma.json"
        path.write_text(gamma)
        code = main(
            ["fit", cross_csv, "--kind", "mfn", "--kappa", "0.01", "--gamma-file", str(path)]
        )
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        what = "finite" if gamma.startswith(("[NaN", "[Inf", "[1e999")) else "a list of numbers"
        assert captured.err.startswith("dfobounds: error: ")
        assert captured.err.endswith(f"gamma.json: gamma values must be {what}\n")

    def test_requires_values(self, capsys, simplex_csv):
        code = main(["fit", simplex_csv, "--delta", "1", "--kind", "lin_det"])
        assert code == 1
        assert "f column" in capsys.readouterr().err

    def test_relaxed_fit_runs(self, capsys, cross_csv):
        code, payload = run_json(
            capsys, ["fit", cross_csv, "--kind", "mfn", "--kappa", "0.05"]
        )
        assert code == 0
        envelope = 0.05 * 2.0  # kappa * delta^2
        assert payload["residual"] <= envelope * (1 + 1e-9)

    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_negative_noise_seed_exits_1(self, capsys, cross_csv, seed):
        # Refused by the exact fit, which draws no noise, as by the relaxed one.
        for kappa in ("0", "1"):
            argv = ["fit", cross_csv, "--kind", "mfn", "--kappa", kappa, "--noise-seed", seed]
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"dfobounds: error: noise_seed must be an integer of at least 0, got {seed}\n"
            )

    def test_overflowing_values_exit_1_without_out_file(self, capsys, tmp_path):
        path = tmp_path / "huge.csv"
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        write_points(path, pts, values=[1e308, -1e308, 1e308])
        out = tmp_path / "model.json"
        code = main(["fit", str(path), "--delta", "1", "--kind", "lin_det", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "values overflow the fit" in captured.err
        assert not out.exists()


class TestBounds:
    def test_lin_det_worked_example(self, capsys):
        code, payload = run_json(
            capsys,
            ["bounds", "--kind", "lin_det", "--L", "2", "--kappa", "0", "--lam", "1", "--n", "4"],
        )
        assert code == 0
        assert np.isclose(payload["C_g"], 6.0)
        assert payload["C_H"] == 0.0

    def test_under_with_supplied_constants(self, capsys):
        code, payload = run_json(
            capsys,
            ["bounds", "--kind", "under", "--L", "1", "--kappa-s", "1",
             "--kappa-H", "2", "--p", "4"],
        )
        assert code == 0
        assert np.isclose(payload["C_g"], 10.0)

    def test_every_input_is_a_flag(self):
        # _cmd_bounds reads each BoundInputs field from the flag of that dest.
        args = build_parser().parse_args(["bounds", "--kind", "mfn", "--L", "1"])
        assert {f.name for f in dataclasses.fields(BoundInputs)} <= set(vars(args))

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--kind", "lin_det", "--lam", "1", "--n", "2", "--kappa-Q", "5"], "--kappa-Q"),
            (["--kind", "quad_det", "--lam", "1", "--n", "2", "--kappa-L", "5"], "--kappa-L"),
            (["--kind", "mfn", "--lam", "1", "--n", "2", "--p", "4", "--delta", "0.5",
              "--kappa-L", "5"], "--kappa-L"),
            (["--kind", "under", "--p", "4", "--kappa-s", "1", "--kappa-H", "2",
              "--kappa-Q", "5"], "--kappa-Q"),
            # Scalar inputs: no kind but mfn reads the radii, and under
            # derives nothing from lam.
            (["--kind", "lin_det", "--lam", "1", "--n", "2", "--delta", "0.5",
              "--delta-max", "0.7"], "--delta"),
            (["--kind", "quad_det", "--lam", "1", "--n", "2", "--delta-max", "0.7"],
             "--delta-max"),
            (["--kind", "under", "--lam", "50", "--p", "4", "--kappa-s", "1",
              "--kappa-H", "2"], "--lam"),
            # A constant supplied in place of its lambda-derived value.
            (["--kind", "lin_det", "--kappa-L", "2", "--lam", "1", "--n", "2"], "--lam"),
            (["--kind", "mfn", "--lam", "1", "--n", "2", "--p", "4", "--kappa-H", "3",
              "--delta", "0.5"], "--delta"),
        ],
    )
    def test_unread_constant_exits_1(self, capsys, argv, flag):
        code = main(["bounds", "--L", "1"] + argv)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dfobounds: error: --kind {argv[1]} does not read {flag}\n"

    def test_missing_constants_exit_1(self, capsys):
        code = main(["bounds", "--kind", "lin_det", "--L", "2"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "lin_det", "--n", "-3"], "n must be an integer of at least 1"),
            (["--kind", "quad_det", "--n", "0"], "n must be an integer of at least 1"),
            (["--kind", "mfn", "--n", "3", "--p", "2", "--delta", "0.1"],
             "p must be at least n"),
            # Shapes that no kind admits, or another kind than the one asked for.
            (["--kind", "mfn", "--n", "2", "--p", "7", "--delta", "0.1"],
             "MFN interpolation needs n < p < q, got n=2, p=7, q=5"),
            (["--kind", "quad_det", "--n", "2", "--p", "3"],
             "QUADRATIC interpolation needs p = q = 5, got n=2, p=3, q=5"),
            (["--kind", "lin_det", "--n", "2", "--p", "4"],
             "LINEAR interpolation needs p = n, got n=2, p=4, q=5"),
            (["--kind", "under", "--kappa-s", "1", "--kappa-H", "2", "--n", "2", "--p", "2"],
             "MFN interpolation needs n < p < q, got n=2, p=2, q=5"),
        ],
    )
    def test_bad_dimension_exits_1(self, capsys, argv, message):
        code = main(["bounds", "--L", "2", "--lam", "1"] + argv)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("flag", ["--L", "--lam", "--delta", "--kappa"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_flag_exits_1(self, capsys, flag, value):
        # stdout carries strict JSON, which cannot hold the resulting constants
        argv = ["bounds", "--kind", "lin_det", "--L", "2", "--lam", "1", "--n", "4"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [f"{flag}={value}"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be a finite number" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--kind", "lin_det", "--kappa-L", "-5", "--n", "2"], "kappa_L must be"),
            (["--kind", "under", "--kappa-s", "-1", "--kappa-H", "2", "--p", "4"],
             "kappa_s must be"),
            (["--kind", "under", "--kappa-s", "1", "--kappa-H", "-2", "--p", "4"],
             "kappa_H must be"),
            (["--kind", "mfn", "--lam", "1", "--n", "2", "--p", "4", "--delta", "-0.5",
              "--delta-max", "1"], "delta must be a finite number > 0, got -0.5"),
            (["--kind", "mfn", "--lam", "1", "--n", "2", "--p", "4", "--delta", "0"],
             "delta must be a finite number > 0, got 0.0"),
            (["--kind", "quad_det", "--lam", "1"], "bound computation needs n"),
        ],
    )
    def test_meaningless_inputs_exit_1(self, capsys, argv, message):
        code = main(["bounds", "--L", "1"] + argv)
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"dfobounds: error: {message}" in captured.err

    def test_q_contradicting_n_exits_1(self, capsys):
        # bounds has no --q: q is (n^2 + 3n)/2 of --n.
        with pytest.raises(SystemExit) as exc:
            main(
                ["bounds", "--kind", "quad_det", "--L", "2", "--lam", "1", "--n", "2", "--q", "9"]
            )
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --q 9" in captured.err


class TestOracle:
    def test_witness_value(self, capsys, tmp_path):
        poly = tmp_path / "lin.json"
        poly.write_text(json.dumps(
            {"n": 2, "c": 1.0, "g": [-1.0, -1.0], "H": [[0.0, 0.0], [0.0, 0.0]]}
        ))
        code, payload = run_json(
            capsys,
            ["oracle", "--poly", str(poly), "--radius", "1", "--resolution", "0.001"],
        )
        assert code == 0
        assert abs(payload["max_abs"] - (1.0 + np.sqrt(2.0))) <= 1e-3

    def test_center_flag(self, capsys, tmp_path):
        poly = tmp_path / "m.json"
        poly.write_text(json.dumps(
            {"n": 1, "c": 0.0, "g": [1.0], "H": [[0.0]]}
        ))
        code, payload = run_json(
            capsys,
            ["oracle", "--poly", str(poly), "--center", "3.0", "--radius", "1",
             "--resolution", "0.01"],
        )
        assert code == 0
        assert np.isclose(payload["max_abs"], 4.0, atol=1e-2)

    def test_bad_center_exits_1(self, capsys, tmp_path):
        poly = tmp_path / "m.json"
        poly.write_text(json.dumps({"n": 1, "c": 0.0, "g": [1.0], "H": [[0.0]]}))
        code = main(
            ["oracle", "--poly", str(poly), "--center", "x", "--radius", "1",
             "--resolution", "0.01"]
        )
        assert code == 1

    @pytest.mark.parametrize("center", ["nan,0", "0,inf"])
    def test_non_finite_center_exits_1(self, capsys, tmp_path, center):
        poly = tmp_path / "m.json"
        poly.write_text(json.dumps(
            {"n": 2, "c": 0.0, "g": [1.0, 0.0], "H": [[0.0, 0.0], [0.0, 0.0]]}
        ))
        code = main(
            ["oracle", "--poly", str(poly), f"--center={center}", "--radius", "1",
             "--resolution", "0.01"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "argument --center: must be a finite number" in captured.err

    def test_non_finite_model_exits_1(self, capsys, tmp_path):
        poly = tmp_path / "m.json"
        poly.write_text(
            '{"n": 2, "c": 0.0, "g": [NaN, 0.0], "H": [[0.0, 0.0], [0.0, 0.0]]}'
        )
        code = main(
            ["oracle", "--poly", str(poly), "--radius", "1", "--resolution", "0.01"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert '"g"' in captured.err

    def test_string_entry_in_model_exits_1(self, capsys, tmp_path):
        poly = tmp_path / "m.json"
        poly.write_text(
            '{"n": 2, "c": "1.5", "g": [0.0, 0.0], "H": [[0.0, 0.0], [0.0, 0.0]]}'
        )
        code = main(
            ["oracle", "--poly", str(poly), "--radius", "1", "--resolution", "0.01"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f'dfobounds: error: {poly}: model JSON key "c" must be a number\n'

    def test_wrong_length_gradient_names_file_and_key(self, capsys, tmp_path):
        poly = tmp_path / "m.json"
        poly.write_text('{"n": 2, "c": 0.0, "g": [1.0], "H": [[0.0, 0.0], [0.0, 0.0]]}')
        code = main(
            ["oracle", "--poly", str(poly), "--radius", "1", "--resolution", "0.01"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            f'dfobounds: error: {poly}: model JSON key "g" (the gradient) must have '
            "shape (2,), got (1,)\n"
        )

    def test_fit_model_round_trips_through_oracle(self, capsys, cross_csv, tmp_path):
        model = tmp_path / "m.json"
        argv = ["fit", cross_csv, "--kind", "mfn", "--out", str(model)]
        code, fitted = run_json(capsys, argv)
        assert code == 0
        argv = ["oracle", "--poly", str(model), "--radius", "1", "--resolution", "0.01"]
        code, payload = run_json(capsys, argv)
        assert code == 0 and payload["max_abs"] >= abs(fitted["c"])


class TestVerify:
    def test_three_trial_campaign(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2,
             "delta": [0.4, 0.2, 0.1], "seed": 0}
        ))
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = main(
            ["verify", "--config", str(cfg), "--csv", str(csv_path),
             "--json", str(json_path), "--quiet"]
        )
        assert code == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 4  # header + 3 data rows
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_trials"] == 3

    def test_progress_on_stderr(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2, "delta": 0.1}
        ))
        code = main(
            ["verify", "--config", str(cfg), "--csv", str(tmp_path / "o.csv"),
             "--json", str(tmp_path / "o.json")]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "trial 1/1" in captured.err
        json.loads(captured.out)  # stdout stays machine-parseable

    def test_bad_config_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"function": "quartic", "bogus": 1}))
        code = main(
            ["verify", "--config", str(cfg), "--csv", str(tmp_path / "o.csv"),
             "--json", str(tmp_path / "o.json"), "--quiet"]
        )
        assert code == 1

    def test_string_field_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"function": "quartic", "kind": "lin_det", "n": "2", "p": 2, "delta": 0.1}
        ))
        code = main(
            ["verify", "--config", str(cfg), "--csv", str(tmp_path / "o.csv"),
             "--json", str(tmp_path / "o.json"), "--quiet"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "n must be an integer" in captured.err

    @pytest.mark.parametrize("function", [{"x": 1}, [["quartic"]], 3, None])
    def test_function_not_a_string_exits_1(self, capsys, tmp_path, function):
        # A dict or a list in a sweep used to escape as a TypeError traceback,
        # and a number or null ran as a trial of an unknown function.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"function": function, "kind": "lin_det", "n": 2, "p": 2, "delta": 0.1}
        ))
        code = main(
            ["verify", "--config", str(cfg), "--csv", str(tmp_path / "o.csv"),
             "--json", str(tmp_path / "o.json"), "--quiet"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("dfobounds: error: function must be a string, got ")
        assert "Traceback" not in captured.err

    def test_missing_key_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"function": "quartic", "kind": "mfn", "n": 2}))
        code = main(
            ["verify", "--config", str(cfg), "--csv", str(tmp_path / "o.csv"),
             "--json", str(tmp_path / "o.json"), "--quiet"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "dfobounds: error: config is missing keys: delta, p\n"

    def test_failing_trial_exits_2(self, capsys, tmp_path):
        # radius larger than the quartic domain can host
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2, "delta": 1.5}
        ))
        code = main(
            ["verify", "--config", str(cfg), "--csv", str(tmp_path / "o.csv"),
             "--json", str(tmp_path / "o.json"), "--quiet"]
        )
        assert code == 2


class TestUsageErrors:
    def test_no_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_kind_exits_1(self, capsys, simplex_csv):
        with pytest.raises(SystemExit) as exc:
            main(["poisedness", simplex_csv, "--delta", "1", "--kind", "cubic"])
        assert exc.value.code == 1


@pytest.mark.parametrize(
    "name, argv",
    [
        ("poisedness", ["poisedness", "points.csv", "--kind", "mfn"]),
        ("fit", ["fit", "points.csv", "--kind", "mfn"]),
        ("fit_relaxed", ["fit", "points.csv", "--kind", "mfn", "--kappa", "0.5",
                         "--noise-seed", "3"]),
        # --lam is the poisedness golden's lambda.
        ("bounds", ["bounds", "--kind", "mfn", "--L", "12.0", "--lam", "3.1206662436382553",
                    "--n", "3", "--p", "6", "--delta", "0.5"]),
        ("oracle", ["oracle", "--poly", "model.json", "--center=0.1,-0.2,0.3",
                    "--radius", "0.5", "--resolution", "0.05"]),
    ],
)
def test_stdout_matches_golden(capsys, name, argv):
    argv = [str(GOLDEN / a) if a.endswith((".csv", ".json")) else a for a in argv]
    assert main(argv) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.stdout").read_text()


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_exits_1_silently(unbuffered):
    # A reader that closes the pipe before the JSON arrives, as `| head -c 1`
    # may: the CLI exits 1 and writes nothing to stderr, not even at the
    # interpreter's final flush of a block-buffered stdout.
    src = str(Path(dfobounds.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "dfobounds.cli",
             "poisedness", str(GOLDEN / "points.csv"), "--kind", "mfn"],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
        )
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 1


@pytest.mark.parametrize(
    "module, name", [("geometry", "NotPoisedError"), ("models", "RelaxationError")]
)
def test_math_errors_live_in_bounds_and_exit_2(monkeypatch, capsys, simplex_csv, module, name):
    # Each error is defined once, in the NumPy-free bounds, and re-exported
    # unchanged; main catches it by name and exits 2.
    import importlib

    import dfobounds
    from dfobounds import bounds, cli

    error = getattr(bounds, name)
    home = importlib.import_module(f"dfobounds.{module}")
    assert getattr(dfobounds, name) is getattr(home, name) is error

    def fail(*args, **kwargs):
        raise error("injected failure", 0)

    monkeypatch.setattr(cli, "lambda_poisedness", fail)
    assert main(["poisedness", simplex_csv, "--delta", "1", "--kind", "linear"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "injected failure" in captured.err
