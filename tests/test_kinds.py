"""One kind vocabulary: every entry point takes a kind in any spelling, and
every label a user sees stays as it is."""

import argparse
import csv
import json

import numpy as np
import pytest

from dfobounds import (
    BoundInputs,
    BoundKind,
    ModelKind,
    PoisednessKind,
    RelaxationSpec,
    TrialConfig,
    check_theory,
    closed_form_bounds,
    constants_from_lambda,
    design_matrix,
    error_bounds,
    expand_config,
    fit_model,
    fit_relaxed,
    generate_poised_set,
    lambda_poisedness,
    run_campaign,
)
from dfobounds.cli import build_parser, main
from dfobounds.fileio import write_points

SHAPES = {ModelKind.LIN_DET: 2, ModelKind.QUAD_DET: 5, ModelKind.MFN: 4}

# Every spelling of each kind: its aliases and the names the CLI accepts,
# in any case.
SPELLINGS = {
    ModelKind.LIN_DET: [
        PoisednessKind.LINEAR, BoundKind.LIN_DET, "lin_det", "LIN_DET", "linear",
        "Linear",
    ],
    ModelKind.QUAD_DET: [
        PoisednessKind.QUADRATIC, BoundKind.QUAD_DET, "quad_det", "QUAD_DET",
        "quadratic", "QUADRATIC",
    ],
    ModelKind.MFN: [
        PoisednessKind.MFN, BoundKind.MFN, BoundKind.UNDER, "mfn", "MFN", "under",
    ],
}


def _sample_set(kind):
    return generate_poised_set(2, SHAPES[kind], 0.1, 20.0, seed=3)


def _values(ss):
    return np.sin(ss.points[:, 0]) + ss.points[:, 1] ** 2


def _model(fit):
    m = fit.model
    return m.constant, m.gradient.tolist(), m.hessian.tolist(), fit.residual


def _inputs(ss):
    return BoundInputs(L=1.5, kappa=0.01, lam=2.0, n=ss.n, p=ss.p, delta=ss.radius)


ENTRY_POINTS = {
    "lambda_poisedness": lambda kind, ss: lambda_poisedness(ss, kind).to_dict(),
    "check_theory": lambda kind, ss: check_theory(ss, kind, floor_samples=5),
    "design_matrix": lambda kind, ss: design_matrix(kind, ss).tolist(),
    "fit_model": lambda kind, ss: _model(fit_model(kind, ss, _values(ss))),
    "fit_relaxed": lambda kind, ss: _model(
        fit_relaxed(kind, ss, _values(ss), RelaxationSpec(0.5, noise_seed=1))
    ),
    "constants_from_lambda": lambda kind, ss: constants_from_lambda(kind, 2.0, n=ss.n, p=ss.p),
    "error_bounds": lambda kind, ss: error_bounds(kind, _inputs(ss)).to_dict(),
    "closed_form_bounds": lambda kind, ss: closed_form_bounds(kind, _inputs(ss)).to_dict(),
    "TrialConfig": lambda kind, ss: TrialConfig(
        function="quartic", kind=kind, n=ss.n, p=ss.p, delta=0.1
    ),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_every_spelling_is_the_kind(entry):
    call = ENTRY_POINTS[entry]
    for kind, spellings in SPELLINGS.items():
        ss = _sample_set(kind)
        expected = call(kind, ss)
        for spelling in spellings:
            assert call(spelling, ss) == expected, spelling


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("kind", ["cubic", 3, None])
def test_unknown_kind_is_a_value_error_naming_it(entry, kind):
    ss = _sample_set(ModelKind.MFN)
    with pytest.raises(ValueError, match=f"unknown model kind {kind!r}"):
        ENTRY_POINTS[entry](kind, ss)


def test_aliases_are_the_members():
    assert list(ModelKind) == [ModelKind.LIN_DET, ModelKind.QUAD_DET, ModelKind.MFN]
    assert PoisednessKind is ModelKind and BoundKind is ModelKind
    assert PoisednessKind.LINEAR is ModelKind.LIN_DET
    assert PoisednessKind.QUADRATIC is ModelKind.QUAD_DET
    assert BoundKind.UNDER is ModelKind.MFN
    assert [k.value for k in ModelKind] == ["lin_det", "quad_det", "mfn"]


def _kind_choices(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == "kind")


@pytest.mark.parametrize(
    "command, choices",
    [
        ("poisedness", ["linear", "mfn", "quadratic"]),
        ("fit", ["lin_det", "mfn", "quad_det"]),
        ("bounds", ["lin_det", "mfn", "quad_det", "under"]),
    ],
)
def test_cli_kind_choices(command, choices):
    assert list(_kind_choices(command)) == choices


@pytest.mark.parametrize(
    "spelling, label, p",
    [("linear", "LINEAR", 2), ("quadratic", "QUADRATIC", 5), ("mfn", "MFN", 4)],
)
def test_poisedness_label(tmp_path, capsys, spelling, label, p):
    ss = generate_poised_set(2, p, 0.1, 20.0, seed=3)
    path = tmp_path / "points.csv"
    write_points(path, ss.points, delta=ss.radius)
    assert main(["poisedness", str(path), "--kind", spelling]) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == label


@pytest.mark.parametrize(
    "spelling, label, argv",
    [
        ("lin_det", "LIN_DET", ["--lam", "2", "--n", "2"]),
        ("quad_det", "QUAD_DET", ["--lam", "2", "--n", "2"]),
        ("under", "UNDER", ["--kappa-s", "1", "--kappa-H", "2", "--p", "4"]),
        ("mfn", "MFN", ["--lam", "2", "--n", "2", "--p", "4", "--delta", "0.1"]),
    ],
)
def test_bounds_label(capsys, spelling, label, argv):
    assert main(["bounds", "--kind", spelling, "--L", "1"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["kind"] == label


@pytest.mark.parametrize("missing", ["kappa_s", "kappa_H"])
def test_under_needs_both_matrix_constants(capsys, missing):
    given = {"kappa_s": "--kappa-s", "kappa_H": "--kappa-H"}
    argv = ["bounds", "--kind", "under", "--L", "1", "--p", "4", "--lam", "2",
            "--n", "2", "--delta", "0.1"]
    for name, flag in given.items():
        if name != missing:
            argv += [flag, "1"]
    assert main(argv) == 1
    assert f"bound computation needs {missing}" in capsys.readouterr().err


def test_campaign_kind_labels(tmp_path):
    trials = []
    for kind, p in SHAPES.items():
        trials += expand_config(
            {"function": "quartic", "kind": kind.value, "n": 2, "p": p,
             "delta": 0.1}
        )
    report = run_campaign(
        trials, csv_path=tmp_path / "c.csv", json_path=tmp_path / "s.json"
    )
    with open(tmp_path / "c.csv", newline="") as handle:
        kinds = [row["kind"] for row in csv.DictReader(handle)]
    assert kinds == ["LIN_DET", "QUAD_DET", "MFN"]
    summary = json.loads((tmp_path / "s.json").read_text())
    assert sorted(summary["per_kind"]) == ["LIN_DET", "MFN", "QUAD_DET"]
    assert summary == report.summary
