import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfobounds import (
    ModelKind,
    NotPoisedError,
    QuadraticPolynomial,
    RelaxationError,
    RelaxationSpec,
    SampleSet,
    fit_model,
    fit_relaxed,
    generate_poised_set,
    lagrange_determined,
    lagrange_mfn,
    rosenbrock_function,
    space_dim,
)

import dfobounds.geometry as geometry_module
import dfobounds.models as models_module
import dfobounds.poly as poly_module

from conftest import interpolation_residual, random_quadratic


def coeff_scale(poly):
    return max(1.0, float(np.max(np.abs(poly.coeffs()))))


class TestDeterminedFits:
    def test_linear_reproduces_affine(self, rng):
        ss = generate_poised_set(3, 3, 0.5, 10.0, seed=0)
        g = rng.standard_normal(3)
        f = QuadraticPolynomial(3, 1.5, g, np.zeros((3, 3)))
        fit = fit_model(ModelKind.LIN_DET, ss, f.eval_batch(ss.points))
        assert np.allclose(fit.model.constant, 1.5, atol=1e-10)
        assert np.allclose(fit.model.gradient, g, atol=1e-10)
        assert np.allclose(fit.model.hessian, 0.0)
        assert fit.residual <= 1e-10

    def test_quadratic_reproduces_quadratic(self, rng):
        q = space_dim(2, 2) - 1
        ss = generate_poised_set(2, q, 0.7, 20.0, seed=3)
        target = random_quadratic(rng, 2)
        fit = fit_model(ModelKind.QUAD_DET, ss, target.eval_batch(ss.points))
        assert np.max(np.abs(fit.model.coeffs() - target.coeffs())) <= 1e-7 * coeff_scale(target)

    def test_condition_reported(self):
        ss = generate_poised_set(2, 2, 0.5, 10.0, seed=1)
        fit = fit_model(ModelKind.LIN_DET, ss, np.ones(3))
        assert np.isfinite(fit.condition) and fit.condition >= 1.0

    def test_not_poised_raises(self):
        collinear = SampleSet(np.array([[0.0, 0.0], [0.4, 0.0], [0.9, 0.0]]), 1.0)
        with pytest.raises(NotPoisedError):
            fit_model(ModelKind.LIN_DET, collinear, np.zeros(3))

    def test_cardinality_guard(self, cross_set):
        with pytest.raises(ValueError):
            fit_model(ModelKind.LIN_DET, cross_set, np.zeros(5))

    def test_value_length_guard(self, simplex_set):
        with pytest.raises(ValueError):
            fit_model(ModelKind.LIN_DET, simplex_set, np.zeros(5))
        with pytest.raises(ValueError):
            fit_model(ModelKind.LIN_DET, simplex_set, np.array([1.0, np.inf, 0.0]))

    def test_overflowing_values_raise(self):
        # Finite values whose differences overflow must not yield a NaN model.
        ss = SampleSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]), 1.0)
        with pytest.raises(ValueError, match="values overflow the fit"):
            fit_model(ModelKind.LIN_DET, ss, [1e308, -1e308, 1e308])


KIND_SHAPES = [
    (ModelKind.LIN_DET, 2, 2),
    (ModelKind.LIN_DET, 4, 4),
    (ModelKind.MFN, 2, 4),
    (ModelKind.MFN, 3, 6),
    (ModelKind.QUAD_DET, 2, 5),
    (ModelKind.QUAD_DET, 3, 9),
]


@pytest.mark.parametrize("kind,n,p", KIND_SHAPES)
def test_model_equals_two_step_build(kind, n, p, rng):
    # The model is built once from the split row; its coefficients keep the
    # bytes of from_coeffs followed by compose_affine, exact and relaxed.
    for seed in range(3):
        ss = generate_poised_set(n, p, 0.05 * (seed + 1), 20.0, seed=seed,
                                 center=rng.uniform(-2.0, 2.0, n))
        values = rng.standard_normal(p + 1) * 10.0 ** rng.uniform(-3.0, 3.0)
        fits = [fit_model(kind, ss, values),
                fit_relaxed(kind, ss, values, RelaxationSpec(0.5, noise_seed=seed))]
        for fit in fits:
            two_step = QuadraticPolynomial.from_coeffs(fit.coeffs, n).compose_affine(
                -ss.y0 / ss.radius, 1.0 / ss.radius
            )
            assert fit.model.coeffs().tobytes() == two_step.coeffs().tobytes()


@pytest.mark.parametrize("kind,n,p", KIND_SHAPES)
def test_constant_fitted_exactly(kind, n, p):
    # Every kind reproduces constants, so the fit is the constant itself,
    # with no roundoff in any coefficient.
    for seed in range(3):
        ss = generate_poised_set(n, p, 0.1, 20.0, seed=seed, center=np.full(n, 0.3))
        fit = fit_model(kind, ss, np.full(p + 1, -2.75))
        assert fit.model.constant == -2.75
        assert not np.any(fit.model.gradient)
        assert not np.any(fit.model.hessian)
        assert fit.residual == 0.0


@pytest.mark.parametrize("kind,n,p", KIND_SHAPES)
def test_fit_residual_equals_interpolation_residual(kind, n, p, rng):
    ss = generate_poised_set(n, p, 0.2, 20.0, seed=1, center=np.full(n, -0.4))
    values = rng.standard_normal(p + 1)
    exact = fit_model(kind, ss, values)
    relaxed = fit_relaxed(kind, ss, values, RelaxationSpec(0.5, noise_seed=2))
    for fit in (exact, relaxed):
        assert fit.residual == interpolation_residual(fit.model, ss, values)
    assert relaxed.residual > exact.residual


class TestMfnFits:
    def test_cross_product_recovery(self, cross_set):
        values = cross_set.points[:, 0] * cross_set.points[:, 1]
        fit = fit_model(ModelKind.MFN, cross_set, values)
        assert np.max(np.abs(fit.model.hessian - [[0.0, 1.0], [1.0, 0.0]])) <= 1e-10
        assert abs(fit.model.constant) <= 1e-10
        assert np.max(np.abs(fit.model.gradient)) <= 1e-10

    def test_affine_recovery(self, rng):
        # an affine interpolant is feasible with zero quadratic block, so the
        # minimum-norm solution returns it exactly
        ss = generate_poised_set(3, 5, 0.6, 20.0, seed=8)
        g = rng.standard_normal(3)
        f = QuadraticPolynomial(3, -0.3, g, np.zeros((3, 3)))
        fit = fit_model(ModelKind.MFN, ss, f.eval_batch(ss.points))
        assert np.max(np.abs(fit.model.hessian)) <= 1e-8
        assert np.allclose(fit.model.gradient, g, atol=1e-8)
        assert np.isclose(fit.model.constant, -0.3, atol=1e-8)

    def test_interpolates(self, rng):
        ss = generate_poised_set(2, 4, 0.5, 20.0, seed=4)
        values = rng.standard_normal(5)
        fit = fit_model(ModelKind.MFN, ss, values)
        assert interpolation_residual(fit.model, ss, values) <= 1e-9

    def test_quadratic_block_minimality(self, rng):
        # adding any interpolant of zero data cannot shrink the quadratic
        # coefficient block, and the optimum is orthogonal to that null space
        ss = generate_poised_set(2, 4, 0.5, 20.0, seed=12)
        values = rng.standard_normal(5)
        fit = fit_model(ModelKind.MFN, ss, values)
        n1 = ss.n + 1
        alpha_opt = fit.model.coeffs()[n1:]
        for _ in range(10):
            z = random_quadratic(rng, 2)
            null_fit = fit_model(ModelKind.MFN, ss, z.eval_batch(ss.points))
            m = null_fit.model
            null_dir = QuadraticPolynomial(
                2,
                z.constant - m.constant,
                z.gradient - m.gradient,
                z.hessian - m.hessian,
            )
            assert interpolation_residual(null_dir, ss, np.zeros(5)) <= 1e-8
            alpha_null = null_dir.coeffs()[n1:]
            combined = np.linalg.norm(alpha_opt + alpha_null)
            assert combined >= np.linalg.norm(alpha_opt) - 1e-10
            assert abs(alpha_opt @ alpha_null) <= 1e-8 * max(
                1.0, np.linalg.norm(alpha_opt) * np.linalg.norm(alpha_null)
            )

    def test_shift_scale_equivariance(self, rng):
        # fitting translated and dilated data gives the pullback model
        ss = generate_poised_set(2, 4, 0.5, 20.0, seed=2)
        values = rng.standard_normal(5)
        fit = fit_model(ModelKind.MFN, ss, values)
        shift = np.array([10.0, -3.0])
        moved = SampleSet(ss.points + shift, ss.radius)
        fit2 = fit_model(ModelKind.MFN, moved, values)
        x = rng.standard_normal(2)
        assert np.isclose(fit.model(x), fit2.model(x + shift), atol=1e-8)


class TestRelaxedFits:
    def test_envelope_respected(self, rng):
        ss = generate_poised_set(2, 4, 0.5, 20.0, seed=5)
        values = rng.standard_normal(5)
        kappa = 0.3
        spec = RelaxationSpec(kappa=kappa, noise_seed=7)
        fit = fit_relaxed(ModelKind.MFN, ss, values, spec)
        # the model interpolates surrogate values within kappa * delta^2
        assert fit.residual <= kappa * ss.radius**2 * (1 + 1e-9) + 1e-12

    def test_explicit_gamma(self, cross_set):
        values = np.array([0.0, 0.0, 0.0, 1.0])
        gamma = values + np.array([0.001, -0.001, 0.0005, 0.0])
        spec = RelaxationSpec(kappa=0.001, gamma=gamma)
        fit = fit_relaxed(ModelKind.MFN, cross_set, values, spec)
        assert interpolation_residual(fit.model, cross_set, gamma) <= 1e-9

    def test_violating_gamma_raises_with_index(self, cross_set):
        values = np.array([0.0, 0.0, 0.0, 1.0])
        gamma = values.copy()
        gamma[2] += 10.0
        with pytest.raises(RelaxationError) as err:
            fit_relaxed(
                ModelKind.MFN, cross_set, values, RelaxationSpec(kappa=0.01, gamma=gamma)
            )
        assert err.value.index == 2
        assert "2" in str(err.value)

    def test_noise_seed_deterministic(self, rng):
        ss = generate_poised_set(2, 5, 0.5, 20.0, seed=9)
        values = rng.standard_normal(6)
        a = fit_relaxed(ModelKind.QUAD_DET, ss, values, RelaxationSpec(0.1, noise_seed=3))
        b = fit_relaxed(ModelKind.QUAD_DET, ss, values, RelaxationSpec(0.1, noise_seed=3))
        c = fit_relaxed(ModelKind.QUAD_DET, ss, values, RelaxationSpec(0.1, noise_seed=4))
        assert np.array_equal(a.model.coeffs(), b.model.coeffs())
        assert not np.allclose(a.model.coeffs(), c.model.coeffs())

    def test_zero_kappa_matches_exact_fit(self, rng):
        ss = generate_poised_set(2, 4, 0.5, 20.0, seed=10)
        values = rng.standard_normal(5)
        exact = fit_model(ModelKind.MFN, ss, values)
        relaxed = fit_relaxed(ModelKind.MFN, ss, values, RelaxationSpec(0.0))
        assert np.allclose(relaxed.model.coeffs(), exact.model.coeffs(), atol=1e-9)

    @pytest.mark.parametrize(
        "kind,p", [(ModelKind.LIN_DET, 2), (ModelKind.QUAD_DET, 5), (ModelKind.MFN, 4)]
    )
    def test_gamma_interpolated_to_roundoff(self, kind, p):
        # Small sets far from the origin with large values: the interpolant
        # of gamma must reproduce gamma to roundoff relative to its size.
        f = rosenbrock_function().f
        kappa = 0.01
        for seed in range(5):
            ss = generate_poised_set(2, p, 0.02, 100.0, seed=seed, center=[1.0, -1.0])
            values = f(ss.points)
            envelope = kappa * ss.radius**2
            gamma = values + envelope * np.linspace(-1.0, 1.0, p + 1)
            spec = RelaxationSpec(kappa=kappa, gamma=gamma)
            fit = fit_relaxed(kind, ss, values, spec)
            residual = interpolation_residual(fit.model, ss, gamma)
            assert residual <= 1e-12 * np.max(np.abs(gamma))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            RelaxationSpec(kappa=-0.1)
        with pytest.raises(ValueError):
            RelaxationSpec(kappa=0.1, gamma=np.array([np.nan]))

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", np.float64(2.0)])
    def test_noise_seed_must_be_a_nonnegative_integer(self, seed):
        message = f"^noise_seed must be an integer of at least 0, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            RelaxationSpec(kappa=1.0, noise_seed=seed)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_lin_det_recovery_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    ss = generate_poised_set(n, n, 0.5, 25.0, seed=seed)
    f = QuadraticPolynomial(
        n, float(rng.standard_normal()), rng.standard_normal(n), np.zeros((n, n))
    )
    fit = fit_model(ModelKind.LIN_DET, ss, f.eval_batch(ss.points))
    assert np.max(np.abs(fit.model.coeffs() - f.coeffs())) <= 1e-8 * coeff_scale(f)


def _relaxed(kind):
    return lambda ss, v: fit_relaxed(kind, ss, v, RelaxationSpec(0.1, noise_seed=0))


@pytest.mark.parametrize(
    "p,call,rule",
    [
        (4, lambda ss, v: fit_model(ModelKind.LIN_DET, ss, v), "p = n"),
        (4, lambda ss, v: fit_model(ModelKind.QUAD_DET, ss, v), "p = q = 5"),
        (2, lambda ss, v: fit_model(ModelKind.MFN, ss, v), "n < p < q"),
        (4, _relaxed(ModelKind.LIN_DET), "p = n"),
        (2, _relaxed(ModelKind.QUAD_DET), "p = q = 5"),
        (5, _relaxed(ModelKind.MFN), "n < p < q"),
        (4, lambda ss, v: lagrange_determined(ss, 1), "p = n"),
        (4, lambda ss, v: lagrange_determined(ss, 2), "p = q = 5"),
        (2, lambda ss, v: lagrange_mfn(ss), "n < p < q"),
    ],
)
def test_wrong_shape_names_rule(p, call, rule):
    ss = generate_poised_set(2, p, 0.5, 20.0, seed=4)
    with pytest.raises(ValueError, match=rule):
        call(ss, np.zeros(p + 1))


def test_fits_and_lagrange_builders_share_one_pull_back(monkeypatch):
    # poly._pull_back is the one substitution from the normalized set: a fit
    # runs it only when its model is first read, and a Lagrange builder once
    # per polynomial.
    calls = []
    pull_back = poly_module._pull_back

    def counted(c, g, H, offset, scale):
        calls.append(scale)
        return pull_back(c, g, H, offset, scale)

    monkeypatch.setattr(poly_module, "_pull_back", counted)
    monkeypatch.setattr(geometry_module, "_pull_back", counted)
    monkeypatch.setattr(models_module, "_pull_back", counted)
    ss = generate_poised_set(2, 4, 0.5, 25.0, seed=0, center=[1.0, -2.0])
    values = np.arange(5.0)
    fit = fit_model(ModelKind.MFN, ss, values)
    relaxed = fit_relaxed(ModelKind.MFN, ss, values, RelaxationSpec(0.1, noise_seed=0))
    assert calls == []
    model = fit.model
    assert calls == [2.0]
    assert fit.model is model
    assert calls == [2.0]
    # The residual reads the model, which is built once for both.
    assert relaxed.residual <= 0.1 * 0.5**2 * (1.0 + 1e-9)
    relaxed.model
    assert calls == [2.0] * 2
    basis = lagrange_mfn(ss)
    assert calls == [2.0] * (2 + len(basis))
    assert len(basis) == 5


def test_fit_keeps_normalized_coefficients(rng):
    # coeffs is the fit on the normalized points, read-only, and the model
    # is that polynomial pulled back: both agree at every sample point.
    ss = generate_poised_set(2, 5, 0.3, 25.0, seed=2, center=[0.4, -0.7])
    values = rng.standard_normal(6)
    fit = fit_model(ModelKind.QUAD_DET, ss, values)
    assert not fit.coeffs.flags.writeable
    normalized = QuadraticPolynomial.from_coeffs(fit.coeffs, 2)
    unit = (ss.points - ss.y0) / ss.radius
    assert np.allclose(normalized.eval_batch(unit), values, atol=1e-12)
    assert np.allclose(fit.model.eval_batch(ss.points), values, atol=1e-12)
    assert fit.residual == float(np.abs(fit.model.eval_batch(ss.points) - values).max())


def test_pull_back_overflow_raises_on_first_model_read():
    # A radius of 1e-160 keeps the normalized coefficients finite, but the
    # absolute Hessian is the normalized one over 1e-320, which overflows.
    pts = 1e-160 * np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    ss = SampleSet(pts, 1e-160)
    fit = fit_model(ModelKind.MFN, ss, [0.0, 1.0, 1.0, 1.0, 1.0])
    assert np.isfinite(fit.coeffs).all() and np.isfinite(fit.condition)
    for _ in range(2):
        with pytest.raises(ValueError, match="values overflow the fit"):
            fit.model
    with pytest.raises(ValueError, match="values overflow the fit"):
        fit.residual
