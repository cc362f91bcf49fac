import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfobounds import (
    BoundInputs,
    BoundKind,
    PoisednessKind,
    QuadraticPolynomial,
    RelaxationSpec,
    SampleSet,
    TrialConfig,
    basis_floor_checks,
    c_delta_max,
    check_theory,
    closed_form_bounds,
    constants_from_lambda,
    error_bounds,
    expand_config,
    generate_poised_set,
    grid_oracle,
    hessian_bound_mfn,
    lagrange_determined,
    lipschitz_on_ball,
    max_abs_on_ball,
    quadratic_function,
    quartic_function,
    resolve_function,
    rosenbrock_function,
    space_dim,
)
from dfobounds.bounds import _kind_for_shape


@pytest.mark.parametrize("dm,expected", [(1.0, 1.0), (0.5, 1.0), (2.0, 0.25), (1.5, 1.0 / 2.25)])
def test_c_delta_max(dm, expected):
    assert np.isclose(c_delta_max(dm), expected)


def test_c_delta_max_guard():
    with pytest.raises(ValueError):
        c_delta_max(0.0)
    with pytest.raises(ValueError):
        c_delta_max(-1.0)


class TestConstantsFromLambda:
    def test_linear(self):
        assert np.isclose(constants_from_lambda(PoisednessKind.LINEAR, 2.0, n=9), 6.0)

    def test_quadratic(self):
        value = constants_from_lambda(PoisednessKind.QUADRATIC, 1.0, n=2)
        assert np.isclose(value, 4.0 * np.sqrt(216.0))

    def test_mfn(self):
        value = constants_from_lambda(PoisednessKind.MFN, 1.0, n=2, p=4)
        assert np.isclose(value, 5.0 * np.sqrt(6.0))

    def test_lambda_floor(self):
        with pytest.raises(ValueError):
            constants_from_lambda(PoisednessKind.LINEAR, 0.5, n=2)
        # tiny numerical undershoot of 1 is tolerated
        constants_from_lambda(PoisednessKind.LINEAR, 1.0 - 1e-12, n=2)

    def test_missing_shape(self):
        # n is required; MFN needs p as well.
        with pytest.raises(TypeError, match="'n'"):
            constants_from_lambda(PoisednessKind.QUADRATIC, 2.0)
        with pytest.raises(ValueError, match="^MFN needs p$"):
            constants_from_lambda(PoisednessKind.MFN, 2.0, n=2)


class TestHessianBound:
    def test_worked_example(self):
        value = hessian_bound_mfn(L=2.0, kappa=0.0, lam=1.0, n=2, p=4, delta_max=1.0)
        assert np.isclose(value, 20.0 * np.sqrt(12.0))

    def test_zero_numerator(self):
        assert hessian_bound_mfn(L=0.0, kappa=0.0, lam=1.0, n=2, p=4, delta_max=1.0) == 0.0

    def test_large_radius_inflation(self):
        base = hessian_bound_mfn(L=2.0, kappa=0.0, lam=1.0, n=2, p=4, delta_max=1.0)
        big = hessian_bound_mfn(L=2.0, kappa=0.0, lam=1.0, n=2, p=4, delta_max=2.0)
        assert np.isclose(big, 16.0 * base)
        assert np.isclose(big, 320.0 * np.sqrt(12.0))


class TestErrorBounds:
    def test_lin_det_worked_example(self):
        report = error_bounds(BoundKind.LIN_DET, BoundInputs(L=2.0, kappa=0.0, lam=1.0, n=4))
        assert np.isclose(report.C_g, 6.0)
        assert np.isclose(report.C_f, 5.0)
        assert report.C_H == 0.0

    def test_lin_det_hessian_always_zero(self, rng):
        for _ in range(10):
            inputs = BoundInputs(
                L=float(rng.uniform(0, 5)),
                kappa=float(rng.uniform(0, 1)),
                lam=float(rng.uniform(1, 9)),
                n=int(rng.integers(1, 6)),
            )
            assert error_bounds(BoundKind.LIN_DET, inputs).C_H == 0.0

    def test_under_worked_example(self):
        inputs = BoundInputs(L=1.0, kappa=0.0, kappa_s=1.0, kappa_H=2.0, p=4)
        report = error_bounds(BoundKind.UNDER, inputs)
        assert np.isclose(report.C_g, 10.0)
        assert np.isclose(report.C_H, 2.0)
        # value constant stacks the gradient constant on the direct terms
        assert np.isclose(report.C_f, 0.5 * (1.0 + 2.0) + 0.0 + 10.0)

    def test_quad_det_formulas(self):
        L, kappa, lam, n = 3.0, 0.2, 2.0, 2
        q = 5
        kq = 4.0 * lam * np.sqrt((q + 1.0) ** 3)
        inputs = BoundInputs(L=L, kappa=kappa, lam=lam, n=n)
        report = error_bounds(BoundKind.QUAD_DET, inputs)
        assert np.isclose(report.C_H, 2.0 * kq * np.sqrt(2.0 * q) * (kappa + L))
        assert np.isclose(report.C_g, 2.0 * kq * np.sqrt(q) * (1.0 + np.sqrt(2.0)) * (kappa + L))
        assert np.isclose(
            report.C_f,
            0.5 * L + kappa + kq * np.sqrt(q) * (2.0 + 3.0 * np.sqrt(2.0)) * (kappa + L),
        )

    def test_supplied_constants_override_lambda(self):
        # explicit kappa_L wins over the lambda-derived value
        a = error_bounds(BoundKind.LIN_DET, BoundInputs(L=2.0, kappa_L=2.0, n=4))
        b = error_bounds(BoundKind.LIN_DET, BoundInputs(L=2.0, lam=1.0, n=4))
        assert np.isclose(a.C_g, b.C_g)
        assert a.provenance["kappa_L"] == "supplied"
        assert b.provenance["kappa_L"] == "from_lambda"

    def test_missing_inputs_raise(self):
        with pytest.raises(ValueError):
            error_bounds(BoundKind.LIN_DET, BoundInputs(L=1.0))  # no lam, no kappa_L
        with pytest.raises(ValueError):
            error_bounds(BoundKind.MFN, BoundInputs(L=1.0, lam=2.0, n=2, p=4))  # no delta

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BoundInputs(L=-1.0)
        with pytest.raises(ValueError):
            BoundInputs(L=1.0, kappa=-0.5)
        with pytest.raises(ValueError):
            BoundInputs(L=1.0, delta=2.0, delta_max=1.0)
        with pytest.raises(ValueError):
            BoundInputs(L=1.0, lam=0.3)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"n": -3}, "n"),
            ({"n": 0}, "n"),
            ({"n": 2.0}, "n"),
            ({"n": True}, "n"),
            ({"p": 0}, "p"),
            ({"p": 2.5}, "p"),
            ({"p": False}, "p"),
            ({"n": 3, "p": 2}, "p"),
        ],
    )
    def test_invalid_dimensions_name_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            BoundInputs(L=1.0, lam=2.0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, field",
        [
            ({"kappa_L": -5.0}, "kappa_L"),
            ({"kappa_Q": float("inf")}, "kappa_Q"),
            ({"kappa_s": -1.0}, "kappa_s"),
            ({"kappa_H": float("nan")}, "kappa_H"),
            ({"delta": 0.0}, "delta"),
            ({"delta": -0.5, "delta_max": 1.0}, "delta"),
            ({"delta_max": float("inf")}, "delta_max"),
            ({"delta": 0.5, "delta_max": 0.0}, "delta_max"),
            ({"lam": float("nan")}, "lam"),
            ({"lam": float("inf")}, "lam"),
            ({"L": 10**400}, "L"),
            ({"L": "2"}, "L"),
            ({"L": True}, "L"),
            ({"lam": "2"}, "lam"),
            ({"kappa": True}, "kappa"),
        ],
    )
    def test_meaningless_inputs_name_the_field(self, kwargs, field):
        # Each would make the caps negative, NaN or infinite.
        inputs = {"L": 1.0, "lam": 2.0, **kwargs}
        with pytest.raises(ValueError, match=f"^{field} must be"):
            BoundInputs(**inputs)

    def test_q_autofilled(self):
        inputs = BoundInputs(L=1.0, lam=2.0, n=3)
        assert inputs.q == 9

    @pytest.mark.parametrize("n,q", [(2, 9), (2, 4), (3, 5), (1, 9)])
    def test_q_contradicting_n_rejected(self, n, q):
        # q follows from n, so no q can be given, contradicting or not.
        with pytest.raises(TypeError, match="'q'"):
            BoundInputs(L=1.0, lam=2.0, n=n, q=q)

    def test_q_matching_n_or_without_n_accepted(self):
        assert BoundInputs(L=1.0, lam=2.0, n=2).q == 5
        assert BoundInputs(L=1.0, lam=2.0).q is None
        for form in (error_bounds, closed_form_bounds):
            with pytest.raises(ValueError, match="^bound computation needs n$"):
                form(BoundKind.QUAD_DET, BoundInputs(L=1.0, lam=2.0))
            with pytest.raises(ValueError, match="^bound computation needs n$"):
                form(BoundKind.MFN, BoundInputs(L=1.0, lam=2.0, p=4, delta=0.5))

    def test_mfn_provenance_per_constant(self):
        inputs = BoundInputs(L=1.0, lam=2.0, kappa_s=3.0, n=2, p=4, delta=0.5)
        report = error_bounds(BoundKind.MFN, inputs)
        assert report.provenance["kappa_s"] == "supplied"
        assert report.provenance["kappa_H"] == "from_lambda"
        assert report.C_H == hessian_bound_mfn(1.0, 0.0, 2.0, n=2, p=4, delta_max=0.5)
        with pytest.raises(ValueError, match="^bound computation needs delta_max$"):
            error_bounds(BoundKind.MFN, BoundInputs(L=1.0, lam=2.0, n=2, p=4))

    def test_report_serializes(self):
        report = error_bounds(BoundKind.LIN_DET, BoundInputs(L=2.0, lam=1.0, n=4))
        payload = report.to_dict()
        assert payload["kind"] == "LIN_DET"
        assert set(payload) >= {"C_f", "C_g", "C_H", "provenance"}


NAN = float("nan")
_POLY = QuadraticPolynomial(2, 0.5, [1.0, -1.0], [[2.0, 0.0], [0.0, -1.0]])
_TRIANGLE = [[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]


@pytest.mark.parametrize(
    "call, field",
    [
        pytest.param(lambda: generate_poised_set(4, 10, 0.1, NAN, seed=0), "lambda_max",
                     id="generate-lambda_max-nan"),
        pytest.param(lambda: generate_poised_set(2, 4, 0.1, float("inf"), seed=0),
                     "lambda_max", id="generate-lambda_max-inf"),
        pytest.param(lambda: generate_poised_set(2, 4, 0.1, 10.0, seed=-1), "seed",
                     id="generate-seed-negative"),
        pytest.param(lambda: generate_poised_set(2, 4, 0.1, 10.0, seed=1.5), "seed",
                     id="generate-seed-float"),
        pytest.param(lambda: generate_poised_set(2, 4, 0.1, 10.0, seed=True), "seed",
                     id="generate-seed-bool"),
        pytest.param(lambda: generate_poised_set(2, 4.0, 0.1, 10.0, seed=0), "p",
                     id="generate-p-float"),
        pytest.param(lambda: SampleSet(_TRIANGLE, True), "radius", id="sampleset-radius-bool"),
        pytest.param(lambda: SampleSet(_TRIANGLE, np.array([1.0, 2.0])), "radius",
                     id="sampleset-radius-array"),
        pytest.param(lambda: RelaxationSpec(kappa=True), "kappa", id="relaxation-kappa-bool"),
        pytest.param(lambda: max_abs_on_ball(_POLY, [0.0, 0.0], True), "radius",
                     id="max_abs-radius-bool"),
        pytest.param(lambda: max_abs_on_ball(_POLY, [0.0, 0.0], "0.5"), "radius",
                     id="max_abs-radius-str"),
        pytest.param(lambda: grid_oracle(_POLY, [0.0, 0.0], True, 0.1), "radius",
                     id="grid-radius-bool"),
        pytest.param(lambda: grid_oracle(_POLY, [0.0, 0.0], 1.0, "0.1"), "resolution",
                     id="grid-resolution-str"),
        pytest.param(lambda: grid_oracle(_POLY, [NAN, 0.0], 1.0, 0.1), "center",
                     id="grid-center-nan"),
        pytest.param(lambda: lipschitz_on_ball(_POLY, [0.0, NAN], 1.0), "center",
                     id="lipschitz-center-nan"),
        pytest.param(lambda: lipschitz_on_ball(_POLY, [0.0, 0.0], -1), "radius",
                     id="lipschitz-radius-negative"),
        pytest.param(lambda: lipschitz_on_ball(_POLY, [0.0, 0.0], NAN), "radius",
                     id="lipschitz-radius-nan"),
        pytest.param(lambda: lipschitz_on_ball(_POLY, [0.0, 0.0], True), "radius",
                     id="lipschitz-radius-bool"),
        pytest.param(lambda: c_delta_max(True), "delta_max", id="c_delta_max-bool"),
        pytest.param(lambda: c_delta_max(10**400), "delta_max", id="c_delta_max-huge"),
        pytest.param(lambda: constants_from_lambda("linear", NAN, n=2), "lam",
                     id="constants-lam-nan"),
        pytest.param(lambda: constants_from_lambda("linear", 2.0, n=-2), "n",
                     id="constants-n-negative"),
        pytest.param(lambda: constants_from_lambda("mfn", 2.0, n=2, p=4.0), "p",
                     id="constants-p-float"),
        pytest.param(lambda: hessian_bound_mfn(1.0, 0.0, NAN, n=2, p=4, delta_max=0.1), "lam",
                     id="hessian-lam-nan"),
        pytest.param(lambda: hessian_bound_mfn(1.0, 0.0, 2.0, n=2, p=-7, delta_max=0.1), "p",
                     id="hessian-p-negative"),
        pytest.param(lambda: hessian_bound_mfn(True, 0.0, 2.0, n=2, p=4, delta_max=0.1), "L",
                     id="hessian-L-bool"),
        pytest.param(lambda: basis_floor_checks(2, count=0), "count", id="floor-count-zero"),
        pytest.param(lambda: basis_floor_checks(2, seed=-1), "seed", id="floor-seed-negative"),
        pytest.param(lambda: basis_floor_checks(2, seed=1.5), "seed", id="floor-seed-float"),
        pytest.param(lambda: basis_floor_checks(2, seed=True), "seed", id="floor-seed-bool"),
        pytest.param(lambda: check_theory(SampleSet(_TRIANGLE, 0.5), "lin_det", floor_samples=0),
                     "floor_samples", id="theory-floor_samples-zero"),
        pytest.param(lambda: check_theory(SampleSet(_TRIANGLE, 0.5), "lin_det", seed=-1),
                     "seed", id="theory-seed-negative"),
        pytest.param(lambda: check_theory(SampleSet(_TRIANGLE, 0.5), "lin_det", seed=1.5),
                     "seed", id="theory-seed-float"),
        pytest.param(lambda: check_theory(SampleSet(_TRIANGLE, 0.5), "lin_det", seed=True),
                     "seed", id="theory-seed-bool"),
        pytest.param(lambda: check_theory(SampleSet(_TRIANGLE, 0.5), "lin_det", delta_max=NAN),
                     "delta_max", id="theory-delta_max-nan"),
        pytest.param(lambda: TrialConfig({"x": 1}, "mfn", 2, 4, 0.1), "function",
                     id="trial-function-dict"),
        pytest.param(lambda: expand_config({"function": [["quartic"]], "kind": "mfn",
                                            "n": 2, "p": 4, "delta": 0.1}),
                     "function", id="trial-function-list-in-sweep"),
        pytest.param(lambda: TrialConfig(3, "mfn", 2, 4, 0.1), "function",
                     id="trial-function-int"),
        pytest.param(lambda: TrialConfig(None, "mfn", 2, 4, 0.1), "function",
                     id="trial-function-null"),
        pytest.param(lambda: space_dim(2, True), "n", id="space_dim-n-bool"),
        pytest.param(lambda: space_dim(True, 2), "degree", id="space_dim-degree-bool"),
        pytest.param(lambda: space_dim(2.0, 2), "degree", id="space_dim-degree-float"),
        pytest.param(lambda: lagrange_determined(SampleSet(_TRIANGLE, 0.5), 1.0), "degree",
                     id="lagrange_determined-degree-float"),
        pytest.param(lambda: lagrange_determined(SampleSet(_TRIANGLE, 0.5), True), "degree",
                     id="lagrange_determined-degree-bool"),
        pytest.param(lambda: resolve_function("quartic", 0), "n", id="resolve-n-zero"),
        pytest.param(lambda: resolve_function("quartic", -1), "n", id="resolve-n-negative"),
        pytest.param(lambda: resolve_function("quartic", 2.5), "n", id="resolve-n-float"),
        pytest.param(lambda: resolve_function(["x"], 2), "function", id="resolve-name-list"),
        pytest.param(lambda: quartic_function(0), "n", id="quartic-n-zero"),
        pytest.param(lambda: quartic_function(True), "n", id="quartic-n-bool"),
        pytest.param(lambda: rosenbrock_function(True), "n", id="rosenbrock-n-bool"),
        pytest.param(lambda: quadratic_function([[np.nan, 0.0], [0.0, 1.0]], [0.0, 0.0]), "A",
                     id="quadratic-A-nan"),
        pytest.param(lambda: quadratic_function(np.eye(3), [0.0, 0.0]), "A",
                     id="quadratic-A-shape"),
        pytest.param(lambda: quadratic_function(np.eye(2), [np.inf, 0.0]), "b",
                     id="quadratic-b-inf"),
        pytest.param(lambda: quadratic_function(np.eye(2), [[0.0], [0.0]]), "b",
                     id="quadratic-b-column"),
        pytest.param(lambda: RelaxationSpec(0.1, gamma=np.zeros((2, 2))), "gamma",
                     id="gamma-2d"),
        pytest.param(lambda: RelaxationSpec(0.1, gamma=[True, False]), "gamma",
                     id="gamma-bools"),
        pytest.param(lambda: RelaxationSpec(0.1, gamma="abc"), "gamma", id="gamma-string"),
        pytest.param(lambda: RelaxationSpec(0.1, gamma=[0.0, 10**400]), "gamma",
                     id="gamma-int-beyond-float"),
        pytest.param(lambda: QuadraticPolynomial(2.5, 0.0, [0.0, 0.0], np.zeros((2, 2))),
                     "dim", id="poly-dim-float"),
    ],
)
def test_entry_points_name_the_bad_field(call, field):
    # Every public entry point applies the one rule for its scalar inputs.
    with pytest.raises(ValueError, match=f"^{field} must be "):
        call()


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: grid_oracle(_POLY, [0.0, 0.0, 0.0], 1.0, 0.1), id="grid"),
        pytest.param(lambda: lipschitz_on_ball(_POLY, [0.0, 0.0, 0.0], 1.0), id="lipschitz"),
    ],
)
def test_ball_entry_points_check_the_center_shape(call):
    with pytest.raises(ValueError, match=r"^center must have shape \(2,\), got \(3,\)$"):
        call()


def random_valid_inputs(rng):
    # p is an MFN size, except at n = 1, where p = 2 = q and no MFN size exists.
    n = int(rng.integers(1, 6))
    q = (n * n + 3 * n) // 2
    p = int(rng.integers(n + 1, q)) if q > n + 1 else n + 1
    delta = float(rng.uniform(0.05, 2.0))
    return BoundInputs(
        L=float(rng.uniform(0.0, 10.0)),
        kappa=float(rng.uniform(0.0, 1.0)),
        lam=float(rng.uniform(1.0, 50.0)),
        n=n,
        p=p,
        delta=delta,
        delta_max=delta * float(rng.uniform(1.0, 2.0)),
    )


def shaped(inputs, kind):
    """The inputs with the p of the kind's shape: n for LIN_DET, q for
    QUAD_DET, the drawn p for MFN; None for MFN at n = 1."""
    if kind is BoundKind.MFN:
        return None if inputs.n == 1 else inputs
    p = inputs.n if kind is BoundKind.LIN_DET else inputs.q
    return dataclasses.replace(inputs, p=p)


def test_mfn_composition_identity(rng):
    # the one-line printed constants are the composed pipeline, verbatim
    for _ in range(200):
        inputs = shaped(random_valid_inputs(rng), BoundKind.MFN)
        if inputs is None:
            continue
        composed = error_bounds(BoundKind.MFN, inputs)
        closed = closed_form_bounds(BoundKind.MFN, inputs)
        for a, b in [
            (composed.C_f, closed.C_f),
            (composed.C_g, closed.C_g),
            (composed.C_H, closed.C_H),
        ]:
            assert np.isclose(a, b, rtol=1e-12, atol=1e-12)


def test_determined_composition_identity(rng):
    for _ in range(200):
        n = int(rng.integers(1, 6))
        inputs = BoundInputs(
            L=float(rng.uniform(0.0, 10.0)),
            kappa=float(rng.uniform(0.0, 1.0)),
            lam=float(rng.uniform(1.0, 50.0)),
            n=n,
        )
        for kind in (BoundKind.LIN_DET, BoundKind.QUAD_DET):
            composed = error_bounds(kind, inputs)
            closed = closed_form_bounds(kind, inputs)
            assert np.isclose(composed.C_f, closed.C_f, rtol=1e-12)
            assert np.isclose(composed.C_g, closed.C_g, rtol=1e-12)
            assert np.isclose(composed.C_H, closed.C_H, rtol=1e-12, atol=1e-300)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_monotone_in_l_kappa_lambda(seed):
    rng = np.random.default_rng(seed)
    base = random_valid_inputs(rng)
    bumped = BoundInputs(
        L=base.L + float(rng.uniform(0, 2)),
        kappa=base.kappa + float(rng.uniform(0, 1)),
        lam=base.lam + float(rng.uniform(0, 5)),
        n=base.n,
        p=base.p,
        delta=base.delta,
        delta_max=base.delta_max,
    )
    for kind in (BoundKind.LIN_DET, BoundKind.QUAD_DET, BoundKind.MFN):
        if shaped(base, kind) is None:
            continue
        lo = error_bounds(kind, shaped(base, kind))
        hi = error_bounds(kind, shaped(bumped, kind))
        assert hi.C_f >= lo.C_f - 1e-12
        assert hi.C_g >= lo.C_g - 1e-12
        assert hi.C_H >= lo.C_H - 1e-12


# The caps as the formulas print them, with q = (n^2 + 3n)/2, in the
# arithmetic order the library used when it took q as an input.
_L, _KAPPA, _LAM, _DELTA, _DELTA_MAX = 1.7, 0.03, 3.1, 0.4, 1.3


def _printed_caps(kind, n, p):
    L, kappa, lam, dm = _L, _KAPPA, _LAM, _DELTA_MAX
    q = (n * n + 3 * n) // 2
    c = min(1.0, 1.0 / dm, 1.0 / (dm * dm))
    if kind is BoundKind.LIN_DET:
        norm = lam * math.sqrt(n)
        term = (0.5 * L + 2.0 * kappa) * norm * math.sqrt(n)
        composed = (0.5 * L + kappa + term, L + term, 0.0)
        term = (0.5 * L + 2.0 * kappa) * lam * n
        return norm, None, composed, (0.5 * L + kappa + term, L + term, 0.0)
    if kind is BoundKind.QUAD_DET:
        norm = 4.0 * lam * math.sqrt((q + 1.0) ** 3)
        composed = (
            0.5 * L + kappa + norm * math.sqrt(q) * (2.0 + 3.0 * math.sqrt(2.0)) * (kappa + L),
            2.0 * norm * math.sqrt(q) * (1.0 + math.sqrt(2.0)) * (kappa + L),
            2.0 * norm * math.sqrt(2.0 * q) * (kappa + L),
        )
        root = math.sqrt(q * (q + 1.0) ** 3)
        closed = (
            0.5 * L + kappa + 4.0 * lam * root * (2.0 + 3.0 * math.sqrt(2.0)) * (kappa + L),
            8.0 * lam * root * (1.0 + math.sqrt(2.0)) * (kappa + L),
            8.0 * lam * math.sqrt(2.0 * q * (q + 1.0) ** 3) * (kappa + L),
        )
        return norm, None, composed, closed
    norm = lam * math.sqrt(2.0 * (n + 1.0)) * (p + 1.0)
    hess = (kappa + 0.5 * L) * 4.0 * lam * (p + 1.0) * math.sqrt(2.0 * (q + 1.0)) / (c * c)
    C_g = 2.0 * norm * math.sqrt(p) * (L + kappa + 0.75 * hess)
    composed = (0.5 * (L + hess) + kappa + C_g, C_g, hess)
    hess = (kappa + 0.5 * L) * lam * 4.0 * (p + 1.0) * math.sqrt(2.0 * (q + 1.0)) / (c * c)
    inner = (kappa + 0.5 * L) * lam * 3.0 * (p + 1.0) * math.sqrt(2.0 * (q + 1.0)) / (c * c)
    C_g = 2.0 * lam * math.sqrt(2.0 * p * (n + 1.0)) * (p + 1.0) * (L + kappa + inner)
    return norm, composed[2], composed, (0.5 * (L + hess) + kappa + C_g, C_g, hess)


def _caps(report):
    return report.C_f, report.C_g, report.C_H


@pytest.mark.parametrize("kind", [BoundKind.LIN_DET, BoundKind.QUAD_DET, BoundKind.MFN])
@pytest.mark.parametrize(
    "n, p", [(n, p) for n in range(1, 9) for p in range(1, (n * n + 3 * n) // 2 + 2)]
)
def test_entry_points_apply_the_shape_rule(n, p, kind):
    # Each entry point that sees n and p accepts exactly the shapes the
    # rule admits for the kind, and there gives the printed caps bit for bit.
    try:
        _kind_for_shape(n, p, kind)
        rule = None
    except ValueError as exc:
        rule = str(exc)
    norm, hess, composed, closed = _printed_caps(kind, n, p)
    calls = [(lambda: constants_from_lambda(kind, _LAM, n=n, p=p), norm)]
    if kind is BoundKind.MFN:
        cap = lambda: hessian_bound_mfn(_L, _KAPPA, _LAM, n=n, p=p, delta_max=_DELTA_MAX)
        calls.append((cap, hess))
    if p < n:
        # BoundInputs refuses the shape first, by its own rule.
        with pytest.raises(ValueError, match=f"^p must be at least n = {n}, got {p}$"):
            BoundInputs(L=_L, n=n, p=p)
    else:
        inputs = BoundInputs(
            L=_L, kappa=_KAPPA, lam=_LAM, n=n, p=p, delta=_DELTA, delta_max=_DELTA_MAX
        )
        calls.append((lambda: _caps(error_bounds(kind, inputs)), composed))
        calls.append((lambda: _caps(closed_form_bounds(kind, inputs)), closed))
    for call, expected in calls:
        if rule is None:
            assert call() == expected
        else:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value) == rule


def test_shape_is_n_and_p_only():
    # q follows from n: no entry point takes it, and the keyword-only
    # hessian_bound_mfn refuses the old positional (p, q, delta_max) call.
    with pytest.raises(TypeError, match="'q'"):
        constants_from_lambda("quadratic", 2.0, n=2, q=5)
    with pytest.raises(TypeError, match="'q'"):
        hessian_bound_mfn(1.0, 0.0, 2.0, n=2, p=4, q=5, delta_max=0.5)
    with pytest.raises(TypeError):
        hessian_bound_mfn(1.0, 0.0, 2.0, 4, 5, 0.5)


@pytest.mark.parametrize(
    "inputs",
    [
        dict(lam=_LAM, n=2, p=4, delta=_DELTA),
        dict(lam=_LAM, n=8, p=30, delta=_DELTA, delta_max=_DELTA_MAX),
        dict(lam=_LAM, n=3, p=6, kappa_s=2.0, delta=_DELTA),
        dict(n=2, p=4, kappa_s=1.0, kappa_H=2.0),
    ],
)
def test_mfn_error_bounds_apply_the_shape_rule_once(monkeypatch, inputs):
    # error_bounds checks the shape once and derives its constants through
    # the helpers' unchecked forms; test_entry_points_apply_the_shape_rule
    # checks their bits.
    import dfobounds.bounds as bounds

    calls = []
    real = bounds._kind_for_shape
    monkeypatch.setattr(
        bounds, "_kind_for_shape", lambda *args: calls.append(args) or real(*args)
    )
    report = error_bounds(BoundKind.MFN, BoundInputs(L=_L, kappa=_KAPPA, **inputs))
    assert len(calls) == 1
    if "kappa_H" not in inputs:
        dm = inputs.get("delta_max", _DELTA)
        assert report.C_H == hessian_bound_mfn(
            _L, _KAPPA, _LAM, n=inputs["n"], p=inputs["p"], delta_max=dm
        )
