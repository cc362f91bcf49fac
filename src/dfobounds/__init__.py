"""Interpolation models for derivative-free optimization.

Construction and certification of linear, quadratic, and minimum-norm
interpolation models on sample sets in a ball, the error-bound constants
that govern their accuracy, and empirical verification of those bounds on
test functions.

Each public name and each submodule is imported on first use (PEP 562), so
``import dfobounds`` loads no submodule and the NumPy-free ``bounds`` module
can be used without loading NumPy.
"""

import importlib

__version__ = "0.1.0"

# Each submodule and the public names it defines.  The two errors live in
# the NumPy-free bounds; geometry and models raise them.
_EXPORTS = {
    "ball": (
        "BallExtremum", "BallSolution", "extremize_batch", "extremize_on_ball",
        "grid_oracle", "lipschitz_on_ball", "max_abs_on_ball",
    ),
    "bounds": (
        "BoundInputs", "BoundKind", "BoundReport", "ModelKind", "NotPoisedError",
        "RelaxationError", "c_delta_max", "closed_form_bounds", "constants_from_lambda",
        "error_bounds", "hessian_bound_mfn",
    ),
    "cli": (),
    "fileio": (),
    "geometry": (
        "PoisednessCertificate", "PoisednessKind", "SampleSet", "design_matrix",
        "generate_poised_set", "lagrange_determined", "lagrange_mfn",
        "lambda_poisedness", "normalized_points",
    ),
    "models": ("FitResult", "RelaxationSpec", "fit_model", "fit_relaxed"),
    "poly": ("QuadraticPolynomial", "basis_matrix", "space_dim"),
    "verify": (
        "CSV_COLUMNS", "CampaignReport", "InequalityCheck", "TestFunction",
        "TrialConfig", "TrialResult", "basis_floor_checks", "builtin_functions",
        "check_theory", "expand_config", "quadratic_function", "quartic_function",
        "resolve_function", "rosenbrock_function", "run_campaign", "run_trial",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
