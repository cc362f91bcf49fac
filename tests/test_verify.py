import collections
import csv
import dataclasses
import itertools
import json
import math
import sys
import traceback
import weakref

import numpy as np
import pytest

from dfobounds import (
    CSV_COLUMNS,
    NotPoisedError,
    PoisednessKind,
    QuadraticPolynomial,
    RelaxationSpec,
    SampleSet,
    TrialConfig,
    basis_floor_checks,
    builtin_functions,
    check_theory,
    expand_config,
    fit_model,
    fit_relaxed,
    generate_poised_set,
    lagrange_mfn,
    max_abs_on_ball,
    normalized_points,
    quadratic_function,
    quartic_function,
    resolve_function,
    rosenbrock_function,
    run_campaign,
    run_trial,
    space_dim,
)
import dfobounds.geometry as geometry_module
import dfobounds.verify as verify_module
from dfobounds.verify import (
    TrialResult,
    _first_primes,
    _halton_points,
    _model_on_rows,
    _probe_plan,
    _rosenbrock_lipschitz,
    _unit_probe_block,
)

from conftest import ROOT, campaign_script, default_sweep, fd_gradient


class TestFunctions:
    def test_quadratic_lipschitz_exact(self, rng):
        B = rng.standard_normal((3, 3))
        A = 0.5 * (B + B.T)
        fn = quadratic_function(A, rng.standard_normal(3))
        assert np.isclose(fn.lipschitz_L, np.linalg.norm(A, 2))
        assert fn.quadratic is not None

    def test_quartic_products_match_powers(self, rng):
        # The quartic uses products instead of float pow; they agree to a few
        # ulps relative on blocks of every scale.
        fn = quartic_function(4)
        tol = 4.0 * np.finfo(float).eps
        for scale in (1e-3, 1.0, 1e3):
            X = rng.uniform(-1, 1, (200, 4)) * scale
            ref_f = np.sum(X**4, axis=1)
            ref_g = 4.0 * X**3
            assert np.all(np.abs(fn.f(X) - ref_f) <= tol * np.abs(ref_f))
            assert np.all(np.abs(fn.grad(X) - ref_g) <= tol * np.abs(ref_g))

    def test_quartic_shape_and_gradient(self, rng):
        fn = quartic_function(3)
        assert fn.lipschitz_L == 12.0
        X = rng.uniform(-1, 1, (5, 3))
        assert np.allclose(fn.f(X), np.sum(X**4, axis=1))
        for x in X:
            assert np.allclose(
                fn.grad(x[None, :])[0], fd_gradient(lambda y: fn.f(y[None, :])[0], x),
                atol=1e-5,
            )

    def test_rosenbrock_lipschitz_at_corner(self):
        # the Hessian norm over the box peaks at the (+-2, -2) corners
        H = np.array([[1200.0 * 4.0 + 800.0 + 2.0, 800.0], [800.0, 200.0]])
        fn = rosenbrock_function()
        assert np.isclose(fn.lipschitz_L, np.linalg.norm(H, 2), rtol=1e-10)
        assert 5700.0 < fn.lipschitz_L < 5730.0

    def test_rosenbrock_gradient(self, rng):
        fn = rosenbrock_function()
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, 2)
            assert np.allclose(
                fn.grad(x[None, :])[0],
                fd_gradient(lambda y: fn.f(y[None, :])[0], x),
                rtol=1e-4,
                atol=1e-3,
            )

    def test_rosenbrock_needs_n2(self):
        with pytest.raises(ValueError):
            rosenbrock_function(3)

    def test_registry(self):
        names = set(builtin_functions())
        assert names == {"quadratic", "quartic", "rosenbrock"}
        fn = resolve_function("quadratic", 4)
        assert fn.dim == 4
        with pytest.raises(ValueError):
            resolve_function("cubic", 2)

    def test_resolved_once_per_name_and_n(self):
        # Trials share the resolved function, so none of its arrays can be
        # written; a name or dimension that cannot resolve raises every time.
        for name, n in (("quadratic", 3), ("quartic", 2), ("rosenbrock", 2)):
            fn = resolve_function(name, n)
            assert resolve_function(name, n) is fn
            assert not fn.domain_box.flags.writeable
            if fn.quadratic is not None:
                assert not fn.quadratic.gradient.flags.writeable
                assert not fn.quadratic.hessian.flags.writeable
        assert resolve_function("quadratic", 4) is not resolve_function("quadratic", 3)
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown test function"):
                resolve_function("cubic", 2)
            with pytest.raises(ValueError, match="only defined for n = 2"):
                resolve_function("rosenbrock", 3)

    def test_n_checked_before_the_cache_serves(self):
        # True and 1.0 equal 1 as cache keys; once n = 1 is cached they must
        # still be refused, not served its function.
        assert resolve_function("quartic", 1).dim == 1
        for n in (True, 1.0):
            with pytest.raises(ValueError, match="^n must be an integer of at least 1, got "):
                resolve_function("quartic", n)

    def test_lipschitz_scan_cached(self):
        assert _rosenbrock_lipschitz() == _rosenbrock_lipschitz()

    def test_rosenbrock_lipschitz_matches_lattice_scan(self):
        assert _rosenbrock_lipschitz() == scan_rosenbrock_lipschitz(1e-3)
        assert _rosenbrock_lipschitz() == 5717.984380503378


def scan_rosenbrock_lipschitz(resolution):
    """Largest Rosenbrock Hessian spectral norm over a lattice of [-2, 2]^2.

    The 2x2 eigenvalues are evaluated in closed form, chunked to bound
    memory; the oracle for the corner value the library uses.
    """
    count = int(round(4.0 / resolution)) + 1
    axis = np.linspace(-2.0, 2.0, count)
    best = 0.0
    for chunk in np.array_split(axis, 64):
        X1, X2 = np.meshgrid(chunk, axis, indexing="ij")
        a = 1200.0 * X1**2 - 400.0 * X2 + 2.0
        bb = -400.0 * X1
        d = 200.0
        mean = 0.5 * (a + d)
        rad = np.sqrt(0.25 * (a - d) ** 2 + bb**2)
        spec = np.maximum(np.abs(mean + rad), np.abs(mean - rad))
        best = max(best, float(spec.max()))
    return best


class TestHalton:
    def test_leading_values(self):
        u = _halton_points(2, 4)
        assert np.array_equal(u[:, 0], [0.0, 1 / 2, 1 / 4, 3 / 4])
        assert np.array_equal(u[:, 1], [0.0, 1 / 3, 2 / 3, 1 / 9])

    def test_primes_beyond_first_sieve(self):
        primes = _first_primes(30)
        assert primes[:6].tolist() == [2, 3, 5, 7, 11, 13]
        assert primes[-1] == 113 and primes.size == 30

    def test_bit_identical_to_scipy(self):
        qmc = pytest.importorskip("scipy.stats", exc_type=ImportError).qmc
        for d in range(1, 9):
            for count in (1, 2, 50, 400, 1000):
                expected = qmc.Halton(d=d, scramble=False).random(count)
                assert np.array_equal(_halton_points(d, count), expected), (d, count)

    def test_block_cached_read_only(self, monkeypatch):
        # The unit probe block caches the Halton points: they are built once
        # per n and shared read-only inside it.
        built = []
        original = verify_module._halton_points

        def counted(d, count):
            built.append((d, count))
            return original(d, count)

        monkeypatch.setattr(verify_module, "_halton_points", counted)
        verify_module._unit_probe_block.cache_clear()
        first = verify_module._unit_probe_block(3)
        assert verify_module._unit_probe_block(3) is first
        assert built == [(3, verify_module._PROBE_COUNT)]
        with pytest.raises(ValueError):
            first[0, 0] = 0.5
        # Halton point 0 maps to the cube corner -1, pushed onto the ball.
        assert first[0, 0] == -1.0 / np.sqrt(3.0)


def _probe_points_reference(center, delta, count, extra):
    # The probe formula written out per trial, as it was before the unit
    # block was cached; the corners are the block's, over sqrt(n).
    n = center.size
    z = 2.0 * _halton_points(n, count) - 1.0
    norms = np.linalg.norm(z, axis=1)
    outside = norms > 1.0
    z[outside] /= norms[outside][:, None]
    axes = delta * np.eye(n)
    blocks = [center + delta * z, center[None, :], center + axes, center - axes]
    if n <= 6:
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
        blocks.append(center + delta * (corners / np.sqrt(n)))
    blocks.append(extra)
    return np.vstack(blocks)


class TestProbePoints:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 8])
    def test_equal_to_per_trial_formula(self, n):
        # The plan's objective values and gradients are the function's on the
        # probe formula at the plan's center.
        quartic = quartic_function(n)
        wide = dataclasses.replace(
            quartic, domain_box=np.column_stack([np.full(n, -5.0), np.full(n, 5.0)])
        )
        for fn, delta, seed in [
            (wide, 1.0, 0),
            (quartic, 0.02, 1),
            (wide, 0.37, 2),
            (quartic, 1e-3, 3),
        ]:
            plan = _probe_plan(fn, delta, seed)
            empty = np.zeros((0, n))
            ref = _probe_points_reference(
                plan.center, delta, verify_module._PROBE_COUNT, empty
            )
            assert np.array_equal(plan.f, fn.f(ref))
            assert np.array_equal(plan.grad, fn.grad(ref))
            for array in (plan.center, plan.f, plan.grad):
                assert not array.flags.writeable

    def test_ball_must_fit_domain(self):
        with pytest.raises(ValueError, match="ball of radius 1.2 around"):
            _probe_plan(quartic_function(2), 1.2, 0)

    def test_unit_block_shared_and_read_only(self):
        unit = verify_module._unit_probe_block(3)
        assert verify_module._unit_probe_block(3) is unit
        with pytest.raises(ValueError):
            unit[0, 0] = 1.0
        # Halton points, origin, +-axes and, up to n = 6, the 2^n corners.
        for n in range(1, 8):
            corners = 2**n if n <= 6 else 0
            rows = verify_module._PROBE_COUNT + 1 + 2 * n + corners
            assert verify_module._unit_probe_block(n).shape == (rows, n)


class TestCheckTheory:
    def test_simplex_linear(self, simplex_set):
        checks = check_theory(simplex_set, PoisednessKind.LINEAR, floor_samples=20)
        by_name = {c.name: c for c in checks}
        inv = by_name["linear_inverse_norm"]
        assert np.isclose(inv.lhs, 1.0, atol=1e-12)
        assert np.isclose(inv.rhs, (1.0 + np.sqrt(2.0)) * np.sqrt(2.0))
        assert "shifted_factorization" in by_name
        assert all(c.passed for c in checks)

    def test_collinear_emits_nothing(self):
        collinear = SampleSet(np.array([[0.0, 0.0], [0.4, 0.0], [0.9, 0.0]]), 1.0)
        with pytest.raises(NotPoisedError):
            check_theory(collinear, PoisednessKind.LINEAR)

    def test_generated_mfn_suite(self):
        # Off the origin the factorization check compares real absolute
        # coordinates.
        for center in (None, [0.4, -0.7]):
            ss = generate_poised_set(2, 4, 0.5, 30.0, seed=7, center=center)
            checks = check_theory(ss, PoisednessKind.MFN, floor_samples=50)
            names = {c.name for c in checks}
            assert "pseudoinverse_norm" in names
            assert "shifted_factorization" in names
            assert any(name.startswith("lagrange_hessian_norm_") for name in names)
            assert {"quadratic_basis_floor", "linear_basis_floor", "unit_coeff_floor"} <= names
            assert all(c.passed for c in checks)

    def test_factorization_fails_when_normalized_points_disagree(self):
        # The solves run on the set's normalized points; a set whose copy is
        # not its points mapped to (y - y0) / delta fails the check.
        ss = generate_poised_set(2, 4, 0.5, 30.0, seed=7, center=[3.0, -2.0])
        bad = SampleSet(ss.points, ss.radius)
        moved = geometry_module.normalized_points(ss).copy()
        moved[1, 0] += 1e-9
        moved.setflags(write=False)
        object.__setattr__(bad, "_normalized", moved)
        by_name = {c.name: c for c in check_theory(bad, PoisednessKind.MFN, floor_samples=5)}
        check = by_name["shifted_factorization"]
        assert not check.passed
        assert check.rhs == 1e-12 * np.abs(ss.points).max()
        assert check.lhs > 100 * check.rhs

    def test_mfn_basis_built_once(self, monkeypatch):
        # The certificate and the Lagrange Hessian checks share one basis:
        # one solve of the saddle system, for the identity right-hand side,
        # whose inverse also decides the condition guard.
        # A generated set reuses the basis the generator solved for.
        ss = generate_poised_set(2, 4, 0.5, 30.0, seed=7)
        fresh = SampleSet(ss.points, ss.radius)
        solves = []
        original = np.linalg.solve

        def counting(a, b):
            solves.append((a.shape, b.shape))
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", counting)
        check_theory(ss, PoisednessKind.MFN, floor_samples=10)
        assert solves == []
        assert fresh._system is None
        checks = check_theory(fresh, PoisednessKind.MFN, floor_samples=10)
        assert solves == [((8, 8), (8, 8))]  # saddle system of p + n + 2 rows
        assert fresh._system is not None
        assert any(c.name.startswith("lagrange_hessian_norm_") for c in checks)

    def test_mfn_hessian_norms_are_absolute(self):
        # check_theory reads the norms off the normalized coefficients; they
        # must be those of the pulled-back Lagrange polynomials.
        ss = generate_poised_set(2, 4, 0.1, 30.0, seed=7, center=[0.3, -0.2])
        checks = check_theory(ss, PoisednessKind.MFN, floor_samples=10)
        lhs = [c.lhs for c in checks if c.name.startswith("lagrange_hessian_norm_")]
        expected = [np.linalg.norm(l.hessian, 2) for l in lagrange_mfn(ss)]
        assert np.allclose(lhs, expected, rtol=1e-12, atol=0.0)

    def test_quadratic_kind(self):
        ss = generate_poised_set(2, 5, 0.5, 30.0, seed=3)
        checks = check_theory(ss, PoisednessKind.QUADRATIC, floor_samples=20)
        assert any(c.name == "quadratic_inverse_norm" and c.passed for c in checks)
        assert any(c.name == "shifted_factorization" and c.passed for c in checks)

    @pytest.mark.parametrize("kind, p", [("linear", 2), ("quadratic", 5)])
    def test_factorization_checked_for_every_kind(self, kind, p):
        # Determined sets solve on their normalized points too, so their
        # factorization is checked as well: it passes on the generated set
        # and fails once its normalized copy disagrees with its points.
        ss = generate_poised_set(2, p, 0.5, 30.0, seed=7, center=[3.0, -2.0])
        good = {c.name: c for c in check_theory(ss, kind, floor_samples=5)}
        assert good["shifted_factorization"].passed
        bad = SampleSet(ss.points, ss.radius)
        moved = geometry_module.normalized_points(ss).copy()
        moved[1, 0] += 1e-3
        moved.setflags(write=False)
        object.__setattr__(bad, "_normalized", moved)
        by_name = {c.name: c for c in check_theory(bad, kind, floor_samples=5)}
        check = by_name["shifted_factorization"]
        assert not check.passed
        assert check.lhs > 100 * check.rhs

    @pytest.mark.parametrize("kind, p", [("lin_det", 2), ("mfn", 4)])
    def test_delta_max_below_radius_rejected(self, kind, p):
        # The radius cap follows BoundInputs' rule, for every kind.
        ss = generate_poised_set(2, p, 0.5, 25.0, seed=0)
        with pytest.raises(ValueError, match="^delta 0.5 exceeds delta_max 0.1$"):
            check_theory(ss, kind, delta_max=0.1, floor_samples=5)
        assert all(c.passed for c in check_theory(ss, kind, delta_max=0.5, floor_samples=5))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_floors(self, n):
        checks = basis_floor_checks(n, count=200, seed=0)
        by_name = {c.name: c for c in checks}
        assert by_name["quadratic_basis_floor"].lhs >= 0.25 - 1e-9
        assert by_name["linear_basis_floor"].lhs >= 1.0 - 1e-9
        assert by_name["unit_coeff_floor"].lhs >= 1.0 / np.sqrt(n + 1.0) - 1e-9
        assert all(c.passed for c in checks)


@pytest.mark.parametrize("n", range(1, 9))
def test_scoring_equals_built_polynomial(n):
    # A trial scores its fit from the coefficient row; values, gradients and
    # the Hessian equal the built polynomial's bit for bit, on the rows a
    # trial scores: the probe block, the unit sample points and a worst
    # point.  The coefficients stay below 1e300, where the polynomial's
    # symmetrization 0.5 (H + H^T) would overflow.
    rng = np.random.default_rng(n)
    q1 = space_dim(2, n)
    unit = normalized_points(generate_poised_set(n, n, 1.0, 100.0, seed=n))
    U = np.concatenate([_unit_probe_block(n), unit, rng.uniform(-0.5, 0.5, (1, n))])
    rows = [rng.standard_normal(q1) * scale for scale in (1.0, 1e-7, 1e5, 1e150)]
    rows.append(np.concatenate([rng.standard_normal(n + 1), np.zeros(q1 - n - 1)]))
    for row in rows:
        model = QuadraticPolynomial.from_coeffs(row, n)
        f, g, H = _model_on_rows(row, n, U)
        assert np.array_equal(f, model.eval_batch(U))
        assert np.array_equal(g, model.grad_batch(U))
        assert np.array_equal(H, model.hessian)


def test_campaign_runs_no_certificate_svd(monkeypatch):
    # A campaign reads each certificate's lam alone, so the norm check's SVD,
    # run on first read of its fields, stays off its path.
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        if sys._getframe(1).f_globals["__name__"] == geometry_module.__name__:
            calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    report = run_campaign(default_sweep(1))  # one round of the n = 2 sweep
    assert len(report.rows) == 18 and not report.failures
    assert calls == []
    # The wrapper does see the certificate's SVD, once its fields are read.
    assert generate_poised_set(2, 4, 0.5, 100.0, seed=0).certificate.satisfied
    assert len(calls) == 1


class TestTrials:
    def test_exact_reproduction_of_quadratic(self):
        cfg = TrialConfig(function="quadratic", kind="quad_det", n=2, p=5, delta=0.5, seed=0)
        result = run_trial(cfg)
        assert result.emp_f <= 1e-9
        assert result.emp_g <= 1e-9
        assert result.passed

    def test_quartic_lin_det_margins(self):
        cfg = TrialConfig(function="quartic", kind="lin_det", n=3, p=3, delta=0.1, seed=1)
        result = run_trial(cfg)
        assert max(result.margin_f, result.margin_g, result.margin_H) <= 1.0
        assert result.margin_H == 0.0  # linear model has zero Hessian

    def test_mfn_relaxed_trial(self):
        cfg = TrialConfig(
            function="quartic", kind="mfn", n=2, p=4, delta=0.1, kappa=0.01, seed=2
        )
        result = run_trial(cfg)
        assert result.passed
        assert result.C_H > 0.0

    def test_ball_must_fit_domain(self):
        cfg = TrialConfig(function="quartic", kind="lin_det", n=2, p=2, delta=1.2, seed=0)
        with pytest.raises(ValueError):
            run_trial(cfg)

    @pytest.mark.parametrize(
        "function, kind, n, p, seed",
        [
            ("quadratic", "quad_det", 6, 27, 385025371),
            ("quartic", "quad_det", 6, 27, 385025371),
            ("quadratic", "mfn", 6, 20, 1193623364),
        ],
    )
    def test_near_hard_case_sets_pass(self, function, kind, n, p, seed):
        # Lagrange polynomials of these sets are near-hard cases for the
        # ball solver: the gradient nearly vanishes on an extreme eigenspace.
        cfg = TrialConfig(
            function=function, kind=kind, n=n, p=p, delta=0.2, kappa=0.01,
            lambda_max=5.0, seed=seed,
        )
        assert run_trial(cfg).passed

    @pytest.mark.parametrize(
        "kind, n, p, kappa",
        [("lin_det", 2, 2, 0.0), ("quad_det", 2, 5, 0.0), ("mfn", 2, 4, 0.01)],
    )
    def test_generated_certificate_is_reused(self, monkeypatch, kind, n, p, kappa):
        cfg = TrialConfig(
            function="quartic", kind=kind, n=n, p=p, delta=0.1, kappa=kappa, seed=3
        )
        expected = run_trial(cfg)

        def recertify(*args, **kwargs):
            raise AssertionError("the generated set was certified twice")

        monkeypatch.setattr(verify_module, "lambda_poisedness", recertify)
        assert run_trial(cfg) == expected

    @staticmethod
    def _absolute_errors(config):
        # emp_f, emp_g and emp_H as the fit's absolute model gives them: its
        # values and gradients on the probe block, at the sample points and,
        # for a quadratic objective, at the absolute exact worst point.
        fn = resolve_function(config.function, config.n)
        delta = config.delta
        plan = _probe_plan(fn, delta, config.seed)
        ss = generate_poised_set(
            config.n, config.p, delta, config.lambda_max, seed=config.seed,
            center=plan.center,
        )
        values = fn.f(ss.points)
        if config.kappa > 0.0:
            spec = RelaxationSpec(kappa=config.kappa, noise_seed=config.seed)
            model = fit_relaxed(config.kind, ss, values, spec).model
        else:
            model = fit_model(config.kind, ss, values).model
        block = _probe_points_reference(
            plan.center, delta, verify_module._PROBE_COUNT, np.zeros((0, config.n))
        )
        X = [block, ss.points]
        F = [plan.f, values]
        G = [plan.grad, fn.grad(ss.points)]
        if fn.quadratic is not None:
            q = fn.quadratic
            error = QuadraticPolynomial(
                config.n, q.constant - model.constant, q.gradient - model.gradient,
                q.hessian - model.hessian,
            )
            arg = max_abs_on_ball(error, plan.center, delta)[1][None, :]
            X.append(arg)
            F.append(fn.f(arg))
            G.append(fn.grad(arg))
        X = np.concatenate(X)
        f_err = np.abs(np.concatenate(F) - model.eval_batch(X)).max()
        g_err = np.linalg.norm(np.concatenate(G) - model.grad_batch(X), axis=1).max()
        H_norm = np.abs(np.linalg.eigvalsh(model.hessian)).max()
        return f_err / delta**2, g_err / delta, H_norm

    @pytest.mark.parametrize("kappa", [0.0, 0.01])
    @pytest.mark.parametrize(
        "kind, n, p, lambda_max",
        [
            ("lin_det", 2, 2, 100.0),
            ("quad_det", 2, 5, 100.0),
            ("mfn", 2, 4, 100.0),
            ("lin_det", 8, 8, 5.0),
            ("mfn", 4, 10, 5.0),
            ("mfn", 6, 20, 5.0),
            ("mfn", 8, 30, 5.0),
            ("quad_det", 4, 14, 5.0),
            ("quad_det", 6, 27, 5.0),
        ],
    )
    def test_normalized_scores_match_absolute_model(self, kind, n, p, lambda_max, kappa):
        # Trials score their fits in normalized coordinates; the errors must
        # be the absolute model's to 1e-9 relative.  The shapes and radii
        # are the campaign_n2 and campaign_highdim sweeps'.  An exact fit of
        # the quadratic by QUAD_DET has only roundoff errors, so there both
        # sides must be roundoff instead.  The quadratic skips delta 0.02,
        # where its values dwarf an error of order delta^2 and the absolute
        # model's own roundoff nears 1e-9 of it.
        functions = ["quadratic", "quartic"] + (["rosenbrock"] if n == 2 else [])
        deltas = [0.5, 0.1, 0.02] if n == 2 else [0.2]
        for function, delta, seed in itertools.product(functions, deltas, [0, 7]):
            if function == "quadratic" and delta == 0.02:
                continue
            config = TrialConfig(
                function=function, kind=kind, n=n, p=p, delta=delta, kappa=kappa,
                lambda_max=lambda_max, seed=seed,
            )
            result = run_trial(config)
            expected = self._absolute_errors(config)
            got = (result.emp_f, result.emp_g, result.emp_H)
            exact = function == "quadratic" and kind == "quad_det" and kappa == 0.0
            for name, a, b in zip(("emp_f", "emp_g", "emp_H"), got, expected):
                if exact and name != "emp_H":
                    assert max(a, b) <= 1e-9, (function, delta, seed, name)
                else:
                    rel = abs(a - b) / max(abs(a), abs(b), 1e-300)
                    assert rel <= 1e-9, (function, delta, seed, name, rel)

    def test_mismatched_kind_recertifies(self):
        # p = 4 would make the generator certify a minimum-norm set, which a
        # linear model cannot use; the config is rejected before any trial.
        with pytest.raises(ValueError, match="p = n"):
            TrialConfig(function="quartic", kind="lin_det", n=2, p=4, delta=0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("delta", float("nan")),
            ("delta", float("inf")),
            ("delta", 0.0),
            ("delta", -0.1),
            ("kappa", float("nan")),
            ("kappa", float("inf")),
            ("n", 0),
            ("p", 0),
            ("lambda_max", float("nan")),
            ("lambda_max", float("inf")),
            ("lambda_max", 1.0),
            ("lambda_max", -3.0),
            ("n", "2"),
            ("n", 2.5),
            ("n", True),
            ("p", 4.0),
            ("seed", 1.5),
            ("seed", -1),
            ("delta", True),
            ("kappa", False),
            ("lambda_max", "5"),
            ("delta_max", float("nan")),
            ("delta_max", float("inf")),
            ("delta_max", 0.05),
            ("delta_max", True),
            pytest.param("delta", 10**400, id="delta-int-beyond-float"),
            pytest.param("kappa", 10**400, id="kappa-int-beyond-float"),
            # Shapes the generator would certify for another kind, or none.
            ("p", 6),
            pytest.param("p", {"kind": "lin_det", "n": 3, "p": 5}, id="p-lin_det-n3-p5"),
        ],
    )
    def test_config_rejects_bad_field(self, field, value):
        kwargs = dict(function="quartic", kind="mfn", n=2, p=4, delta=0.1)
        if isinstance(value, dict):
            kwargs.update(value)
        else:
            kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            TrialConfig(**kwargs)

    def test_reals_stored_as_floats(self):
        # A config's reals are floats, so configs equal as numbers report
        # alike: lambda_max 2 and 2.0 share a shape that cannot be
        # certified, and each trial's failure is the one it gives alone.
        a = TrialConfig("quadratic", "lin_det", 2, 2, 1, lambda_max=2, kappa=0, delta_max=1)
        b = dataclasses.replace(a, delta=0.5, lambda_max=2.0)
        for name in ("delta", "delta_max", "kappa", "lambda_max"):
            assert type(getattr(a, name)) is float, name
        report = run_campaign([a, b])
        for failure, config in zip(report.failures, (a, b)):
            with pytest.raises(RuntimeError) as alone:
                run_trial(config)
            assert failure["error"] == str(alone.value)
            assert failure["error"].startswith("could not reach lambda <= 2.0 in")
        assert len(report.failures) == 2

    def test_unknown_function_raises_before_any_shape_work(self, monkeypatch):
        # Run alone, a trial resolves its function before it certifies its
        # shape, so an unknown name costs no improvement loop.
        def no_loop(*args):
            raise AssertionError("improvement loop ran")

        monkeypatch.setattr(geometry_module, "_improve_shape", no_loop)
        with pytest.raises(ValueError, match="^unknown test function 'nope'"):
            run_trial(TrialConfig("nope", "lin_det", 2, 2, 0.1, lambda_max=2.0))

    def test_kind_coercion_and_validation(self):
        cfg = TrialConfig(function="quartic", kind="LIN_DET", n=2, p=2, delta=0.1)
        assert cfg.kind.name == "LIN_DET"
        with pytest.raises(ValueError):
            TrialConfig(function="quartic", kind="cubic", n=2, p=2, delta=0.1)
        with pytest.raises(ValueError):
            TrialConfig(function="quartic", kind="lin_det", n=2, p=2, delta=0.1, kappa=-1.0)


class TestExpandConfig:
    def test_cross_product_order(self):
        trials = expand_config(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2,
             "delta": [0.5, 0.1], "seed": [0, 1]}
        )
        assert len(trials) == 4
        assert [(t.delta, t.seed) for t in trials] == [(0.5, 0), (0.5, 1), (0.1, 0), (0.1, 1)]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            expand_config({"function": "quartic", "radius": 1.0})
        # The probe count is fixed; it is no config key.
        with pytest.raises(ValueError, match="^unknown config keys: sample_count$"):
            expand_config({"function": "quartic", "kind": "mfn", "n": 2, "p": 4,
                           "delta": 0.1, "sample_count": 200})

    def test_missing_key_named(self):
        with pytest.raises(ValueError, match="^config is missing keys: delta, p$"):
            expand_config({"function": "quartic", "kind": "mfn", "n": 2})

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            expand_config({"function": "quartic", "kind": "lin_det", "n": 2,
                           "p": 2, "delta": []})


def _numeric(cell):
    try:
        return float(cell)
    except ValueError:
        return None


class TestTrialCenter:
    def test_center_draw_cached_and_read_only(self):
        draw = verify_module._center_draw(11, 3)
        assert verify_module._center_draw(11, 3) is draw
        assert not draw.flags.writeable
        with pytest.raises(ValueError):
            draw[0] = 0.0
        ref = np.random.default_rng(11).uniform(-0.5, 0.5, size=3)
        assert np.array_equal(draw, ref)

    def test_center_from_draw(self):
        # The center is the seed's draw scaled into the middle half of the box.
        fn = rosenbrock_function()
        draw = np.random.default_rng(4).uniform(-0.5, 0.5, size=2)
        center = _probe_plan(fn, 0.1, 4).center
        assert np.array_equal(center, 0.0 + draw * 2.0)
        # Its own array, not the cached draw.
        assert not np.shares_memory(center, verify_module._center_draw(4, 2))


class StageValues:
    """Weak references to the stage values a campaign builds, by (stage, key).

    Wraps the builders ``run_campaign`` calls: the shape certifier, the
    probe-plan builder and the quadratic-objective fitter.  A shape is its
    unit ``SampleSet``, a plan its ``_ProbePlan`` and a fitted quadratic
    trial its ``FitResult``; a key that fails is counted as built but has no
    value to watch.
    """

    def __init__(self, monkeypatch):
        self.builds = collections.Counter()
        self.refs = {}
        certify = verify_module._certify_shapes
        probe_plan = verify_module._probe_plan
        fit_quadratics = verify_module._fit_quadratics

        def shapes(keys):
            built = certify(keys)
            for key, shape in built.items():
                self._track("shape", key, shape)
            return built

        def plan(fn, delta, seed):
            key = (fn.name, fn.dim, delta, seed)
            self.builds["plan", key] += 1  # counted before it can raise
            value = probe_plan(fn, delta, seed)
            self.refs["plan", key] = weakref.ref(value)
            return value

        def fits(configs, *stores):
            fitted = fit_quadratics(configs, *stores)
            for config, state in fitted.items():
                self._track("fit", config, state if isinstance(state, Exception) else state[3])
            return fitted

        monkeypatch.setattr(verify_module, "_certify_shapes", shapes)
        monkeypatch.setattr(verify_module, "_probe_plan", plan)
        monkeypatch.setattr(verify_module, "_fit_quadratics", fits)

    def _track(self, stage, key, value):
        self.builds[stage, key] += 1
        if not isinstance(value, Exception):
            self.refs[stage, key] = weakref.ref(value)

    def alive(self) -> set:
        return {key for key, ref in self.refs.items() if ref() is not None}

    @staticmethod
    def last_readers(trials) -> dict:
        """The index of the last trial that reads each (stage, key)."""
        last = {}
        for i, c in enumerate(trials):
            last["shape", (c.n, c.p, c.lambda_max, c.seed)] = i
            last["plan", (c.function, c.n, c.delta, c.seed)] = i
            last["fit", c] = i
        return last

    def watch(self, trials, also=None):
        """A progress callback that checks, before trial i, that no value
        whose last reader came before i is alive; it then calls ``also``."""
        last = self.last_readers(trials)
        self.seen = []

        def progress(message):
            i = len(self.seen)
            self.seen.append(self.alive())
            stale = {key for key in self.seen[-1] if last[key] < i}
            assert not stale, (i, stale)
            if also is not None:
                also(message)

        return progress


# The campaign_highdim benchmark sweep at trial seeds 0 and 1: n = 4..8,
# relaxed fits and the exact worst point of the quadratic objective.
HIGHDIM_SHAPES = (
    ("lin_det", 8, 8),
    ("mfn", 4, 10),
    ("mfn", 6, 20),
    ("mfn", 8, 30),
    ("quad_det", 4, 14),
    ("quad_det", 6, 27),
)


def highdim_sweep():
    trials = []
    for kind, n, p in HIGHDIM_SHAPES:
        trials.extend(
            expand_config(
                {
                    "function": ["quadratic", "quartic"],
                    "kind": kind,
                    "n": n,
                    "p": p,
                    "delta": 0.2,
                    "kappa": 0.01,
                    "lambda_max": 5,
                    "seed": [0, 1],
                }
            )
        )
    return trials


class TestCampaign:
    @staticmethod
    def _check_against_golden(argv, golden_name, tmp_path, capsys):
        # Run the campaign script and compare its CSV with a golden one.
        script = campaign_script()
        assert script.main([*argv, "--quiet", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        TestCampaign._compare_with_golden(tmp_path / "campaign.csv", golden_name, 91)

    @staticmethod
    def _compare_with_golden(path, golden_name, length):
        # Text cells (function, kind, pass, the blanks of a failed trial)
        # must match exactly and numbers to 1e-9 relative, so a change of
        # roundoff order passes and a change of behaviour does not.
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        with open(ROOT / "tests" / "data" / golden_name, newline="") as handle:
            golden = list(csv.reader(handle))
        assert rows[0] == golden[0] == CSV_COLUMNS
        assert len(rows) == len(golden) == length
        for row, ref in zip(rows[1:], golden[1:]):
            for column, cell, expected in zip(CSV_COLUMNS, row, ref):
                a, b = _numeric(cell), _numeric(expected)
                if a is None or b is None or math.isinf(b):
                    assert cell == expected, (row[0], column)
                else:
                    assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (row[0], column)

    def test_default_sweep_matches_golden_csv(self, tmp_path, capsys):
        # tests/data/default_sweep.csv is the CSV of
        # ``scripts/run_bound_campaign.py --seeds 5``.
        self._check_against_golden(["--seeds", "5"], "default_sweep.csv", tmp_path, capsys)

    def test_relaxed_sweep_matches_golden_csv(self, tmp_path, capsys):
        # tests/data/default_sweep_kappa001.csv is the CSV of
        # ``scripts/run_bound_campaign.py --seeds 5 --kappa 0.01``: every fit
        # is relaxed, so the relaxed path is pinned too.
        self._check_against_golden(
            ["--seeds", "5", "--kappa", "0.01"], "default_sweep_kappa001.csv", tmp_path, capsys
        )

    def test_highdim_sweep_matches_golden_csv(self, tmp_path):
        # tests/data/highdim_sweep.csv is the CSV of run_campaign on
        # highdim_sweep(): the n >= 4 rows that the n = 2 goldens miss.  A
        # campaign solves the shapes and worst points of every n together,
        # and each row keeps the bits its n gives alone, so the bytes match.
        report = run_campaign(highdim_sweep(), csv_path=tmp_path / "campaign.csv")
        assert report.summary["n_failed"] == 0
        self._compare_with_golden(tmp_path / "campaign.csv", "highdim_sweep.csv", 25)
        golden = (ROOT / "tests" / "data" / "highdim_sweep.csv").read_bytes()
        assert (tmp_path / "campaign.csv").read_bytes() == golden

    def test_csv_cells_are_written_as_str(self, tmp_path):
        # The CSV holds the bytes of a csv.writer fed str() of every cell,
        # quoting included: the failed trial's function holds , and ".
        trials = [
            TrialConfig(function='quar,"tic', kind="mfn", n=2, p=4, delta=0.1),
            TrialConfig(function="quartic", kind="mfn", n=2, p=4, delta=0.1, seed=1),
        ]
        report = run_campaign(trials, csv_path=tmp_path / "campaign.csv")
        assert report.summary["n_failed"] == 1
        with open(tmp_path / "expected.csv", "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for row in report.rows:
                writer.writerow([str(row[col]) for col in CSV_COLUMNS])
        written = (tmp_path / "campaign.csv").read_bytes()
        assert written == (tmp_path / "expected.csv").read_bytes()
        assert b'"quar,""tic"' in written

    def test_default_sweep_summary_matches_golden(self, tmp_path, capsys):
        # tests/data/default_sweep_summary.json is the summary JSON of
        # ``scripts/run_bound_campaign.py --seeds 5``, byte for byte.
        script = campaign_script()
        assert script.main(["--seeds", "5", "--quiet", "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        golden = ROOT / "tests" / "data" / "default_sweep_summary.json"
        assert (tmp_path / "campaign_summary.json").read_bytes() == golden.read_bytes()

    def test_default_sweep_summary_agrees_with_golden_csv(self):
        # The summary golden was regenerated when trials moved to normalized
        # coordinates, which moved its last bits.  Its quantiles must be
        # those of the margins in the default sweep's golden CSV, which was
        # not regenerated, to 1e-9 relative.
        with open(ROOT / "tests" / "data" / "default_sweep.csv", newline="") as handle:
            rows = [row for row in csv.DictReader(handle) if row["lambda"] != ""]
        golden = ROOT / "tests" / "data" / "default_sweep_summary.json"
        per_kind = json.loads(golden.read_text())["per_kind"]
        assert sorted(per_kind) == sorted({row["kind"] for row in rows})
        for kind, entry in per_kind.items():
            picked = [row for row in rows if row["kind"] == kind]
            assert entry["trials"] == len(picked)
            for name in ("margin_f", "margin_g", "margin_H"):
                margins = np.array([float(row[name]) for row in picked])
                q50, q90 = np.quantile(margins, [0.5, 0.9])
                for key, value in (("q50", q50), ("q90", q90), ("max", margins.max())):
                    got = entry[name][key]
                    assert got is not None and math.isfinite(value), (kind, name, key)
                    assert abs(got - value) <= 1e-9 * max(abs(got), abs(value)), (
                        kind, name, key
                    )

    def test_summary_quantiles_match_numpy(self):
        # The summary's one-sort quantiles are np.quantile's default linear
        # rule, bit for bit, on margin-like rows: nonnegative, with ties,
        # infinities and the odd NaN.
        rng = np.random.default_rng(19)
        for m, _ in itertools.product(range(1, 80), range(30)):
            margins = rng.uniform(0.0, 2.0, size=(3, m))
            ties = rng.random((3, m)) < 0.3
            margins[ties] = rng.choice([0.0, 0.5, 1.0], size=int(ties.sum()))
            margins[rng.random((3, m)) < 0.05] = np.inf
            margins[rng.random((3, m)) < 0.005] = np.nan
            with np.errstate(invalid="ignore"):
                q50, q90 = np.quantile(margins, [0.5, 0.9], axis=1)
            top = margins.max(axis=1)
            expected = {
                name: {
                    key: float(v[i]) if np.isfinite(v[i]) else None
                    for key, v in (("q50", q50), ("q90", q90), ("max", top))
                }
                for i, name in enumerate(("margin_f", "margin_g", "margin_H"))
            }
            assert verify_module._quantiles(margins) == expected, margins
            assert verify_module._quantiles(margins.tolist()) == expected, margins

    def test_empty_sweep(self, tmp_path):
        report = run_campaign(
            [], csv_path=tmp_path / "r.csv", json_path=tmp_path / "r.json"
        )
        assert report.rows == []
        assert report.summary["n_trials"] == 0
        assert report.summary["all_passed"] is True
        text = (tmp_path / "r.csv").read_text()
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_rows_and_summary(self, tmp_path):
        trials = expand_config(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2,
             "delta": [0.4, 0.1], "seed": [0, 1]}
        )
        report = run_campaign(
            trials, csv_path=tmp_path / "c.csv", json_path=tmp_path / "c.json"
        )
        lines = (tmp_path / "c.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5
        summary = json.loads((tmp_path / "c.json").read_text())
        assert summary["n_trials"] == 4
        assert summary["n_failed"] == 0
        assert summary["per_kind"]["LIN_DET"]["margin_g"]["max"] <= 1.0

    def test_partial_failure_recorded(self, tmp_path):
        # second trial's ball cannot fit the quartic domain; the campaign
        # keeps going and records the failure
        trials = expand_config(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2,
             "delta": [0.1, 1.5], "seed": 0}
        )
        report = run_campaign(trials, csv_path=tmp_path / "f.csv")
        assert report.summary["n_failed"] == 1
        assert report.summary["all_passed"] is False
        assert report.failures[0]["trial_id"] == 1
        assert report.failures[0]["type"] == "ValueError"
        lines = (tmp_path / "f.csv").read_text().splitlines()
        assert len(lines) == 3
        failed_row = lines[2].split(",")
        assert failed_row[-1] == "False"
        assert failed_row[CSV_COLUMNS.index("lambda")] == ""

    def test_failure_entries_name_the_exception_type(self, tmp_path, monkeypatch):
        # A shape-rule ValueError, a NotPoisedError and a generator
        # RuntimeError read alike by message; the entry names the type.
        collinear = SampleSet(np.array([[0.0, 0.0], [0.4, 0.0], [0.9, 0.0]]), 1.0)
        raisers = {
            0.3: lambda: generate_poised_set(2, 6, 0.5, 10.0, seed=0),
            0.2: lambda: check_theory(collinear, PoisednessKind.LINEAR),
            # LIN_DET at n = 2 cannot get lambda below 1 + sqrt(2)
            0.1: lambda: generate_poised_set(2, 2, 0.5, 1.5, seed=0),
        }

        def failing(n, p, delta, *args, **kwargs):
            raisers[delta]()

        monkeypatch.setattr(verify_module, "generate_poised_set", failing)
        trials = expand_config(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2,
             "delta": [0.3, 0.2, 0.1]}
        )
        report = run_campaign(trials, json_path=tmp_path / "s.json")
        types = ["ValueError", "NotPoisedError", "RuntimeError"]
        assert [f["type"] for f in report.failures] == types
        assert report.failures[0]["error"].startswith("p=6 fits no interpolation kind")
        assert report.failures[2]["error"].startswith("could not reach lambda <= 1.5")
        summary = json.loads((tmp_path / "s.json").read_text())
        assert summary["failures"] == report.failures
        assert [sorted(f) for f in report.failures] == [["error", "trial_id", "type"]] * 3

    def test_infinite_margin_written_as_null(self, tmp_path, monkeypatch):
        # a zero cap with a nonzero error gives an infinite margin, which
        # strict JSON cannot carry
        margin = verify_module._margin(1.0, 0.0)
        assert margin == np.inf
        result = TrialResult(
            lam=1.0, C_f=0.0, C_g=1.0, C_H=1.0, emp_f=1.0, emp_g=0.5, emp_H=0.5,
            margin_f=margin, margin_g=0.5, margin_H=0.5, passed=False,
        )
        monkeypatch.setattr(verify_module, "run_trial", lambda config, *stages: result)
        trials = expand_config(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2, "delta": 0.1}
        )
        run_campaign(trials, json_path=tmp_path / "s.json")

        def reject(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        summary = json.loads((tmp_path / "s.json").read_text(), parse_constant=reject)
        quantiles = summary["per_kind"]["LIN_DET"]
        assert quantiles["margin_f"] == {"q50": None, "q90": None, "max": None}
        assert quantiles["margin_g"]["max"] == 0.5

    def test_row_maps_every_result_field(self, monkeypatch):
        # Every field gets a distinct value, so a column wired to the wrong
        # field shows up.
        values = {
            "lam": 1.5, "C_f": 2.5, "C_g": 3.5, "C_H": 4.5, "emp_f": 5.5,
            "emp_g": 6.5, "emp_H": 7.5, "margin_f": 8.5, "margin_g": 9.5,
            "margin_H": 10.5, "passed": True,
        }
        columns = {
            "lambda": "lam", "C_f": "C_f", "C_g": "C_g", "C_H": "C_H",
            "emp_f": "emp_f", "emp_g": "emp_g", "emp_H": "emp_H",
            "margin_f": "margin_f", "margin_g": "margin_g",
            "margin_H": "margin_H", "pass": "passed",
        }
        assert CSV_COLUMNS[-len(columns):] == list(columns)
        trials = expand_config(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2,
             "delta": [0.1, 0.2]}
        )

        def fake_trial(config, *stages):
            if config.delta == 0.2:
                raise ValueError("this trial fails")
            return TrialResult(**values)

        monkeypatch.setattr(verify_module, "run_trial", fake_trial)
        passed_row, failed_row = run_campaign(trials).rows
        for column, name in columns.items():
            assert passed_row[column] == values[name], column
        assert failed_row["pass"] is False
        for column in list(columns)[:-1]:
            assert failed_row[column] == "", column

    def test_default_sweep_generates_each_shape_once(self, monkeypatch):
        # 90 trials share 15 (n, p, lambda_max, seed) keys, each improved
        # by one loop.  The shapes live only as long as one run_campaign
        # call, so a second call generates them all again.
        values = StageValues(monkeypatch)
        keys = []
        original = geometry_module._improve_shape

        def counted(kind, n, p, lambda_max, seed):
            keys.append((n, p, lambda_max, seed))
            return original(kind, n, p, lambda_max, seed)

        monkeypatch.setattr(geometry_module, "_improve_shape", counted)
        trials = default_sweep(5)
        assert len(trials) == 90
        first = run_campaign(trials)
        assert len(keys) == len(set(keys)) == 15
        assert len([k for k in values.refs if k[0] == "shape"]) == 15
        assert not values.alive()
        second = run_campaign(trials)
        assert len(keys) == 30 and set(keys[15:]) == set(keys[:15])
        assert first.rows == second.rows and not first.failures

    def test_rows_equal_trials_run_alone(self):
        trials = default_sweep(2)
        report = run_campaign(trials)
        for trial_id, config in enumerate(trials):
            alone = {
                **verify_module._config_columns(trial_id, config),
                **verify_module._result_columns(run_trial(config)),
            }
            assert report.rows[trial_id] == alone, trial_id

    def test_failed_shape_fails_only_its_key(self, monkeypatch):
        # A shape whose loop raises is tried once, in the campaign's
        # lockstep pass: every trial with its key fails with the exception
        # it stored; the others pass.
        calls = []
        original = geometry_module._improve_shape

        def flaky(kind, n, p, lambda_max, seed):
            calls.append((n, p, seed))
            if (p, seed) == (4, 1):
                raise RuntimeError(f"no shape for p={p} seed={seed}")
            return (yield from original(kind, n, p, lambda_max, seed))

        trials = default_sweep(2)
        clean = run_campaign(trials)
        monkeypatch.setattr(geometry_module, "_improve_shape", flaky)
        report = run_campaign(trials)
        bad = [i for i, c in enumerate(trials) if (c.p, c.seed) == (4, 1)]
        assert len(bad) == 6
        assert [f["trial_id"] for f in report.failures] == bad
        assert {f["error"] for f in report.failures} == {"no shape for p=4 seed=1"}
        assert {f["type"] for f in report.failures} == {"RuntimeError"}
        assert calls.count((2, 4, 1)) == 1
        assert len(calls) == 6
        for trial_id, (row, ref) in enumerate(zip(report.rows, clean.rows)):
            if trial_id not in bad:
                assert row == ref, trial_id

    def test_unreachable_shape_runs_its_loop_once(self, monkeypatch):
        # LIN_DET at n = 2 cannot get below lambda 1 + sqrt(2), so a key with
        # lambda_max 2 fails after its loop's last step.  The campaign runs
        # that loop once, and its six trials fail as the key does alone.
        trials = expand_config(
            {"function": ["quartic", "rosenbrock"], "kind": "lin_det", "n": 2,
             "p": 2, "delta": [0.5, 0.1, 0.02], "lambda_max": 2.0}
        )
        solves = []
        original = geometry_module.max_abs_on_ball

        def counted(coeffs, center, radius):
            solves.append(len(coeffs))
            return original(coeffs, center, radius)

        monkeypatch.setattr(geometry_module, "max_abs_on_ball", counted)
        report = run_campaign(trials)
        in_campaign = len(solves)
        with pytest.raises(RuntimeError) as alone:
            generate_poised_set(2, 2, 0.1, 2.0, seed=0)
        assert in_campaign == len(solves) - in_campaign > 100
        assert report.failures == [
            {"trial_id": i, "type": "RuntimeError", "error": str(alone.value)}
            for i in range(6)
        ]

    def test_shapes_dropped_when_campaign_raises(self, monkeypatch):
        def stop(_message):
            raise KeyboardInterrupt

        values = StageValues(monkeypatch)
        trials = default_sweep(1)[:1]
        # The exception, held here, holds the campaign's frames.
        with pytest.raises(KeyboardInterrupt) as stopped:
            run_campaign(trials, progress=values.watch(trials, also=stop))
        assert stopped.tb is not None
        c = trials[0]
        assert values.seen == [{("shape", (c.n, c.p, c.lambda_max, c.seed))}]
        assert not values.alive()

    def test_progress_callback(self):
        seen = []
        trials = expand_config(
            {"function": "quartic", "kind": "lin_det", "n": 2, "p": 2, "delta": 0.1}
        )
        run_campaign(trials, progress=seen.append)
        assert len(seen) == 1
        assert "quartic" in seen[0]

    def test_deterministic_rows(self, tmp_path):
        trials = expand_config(
            {"function": "rosenbrock", "kind": "mfn", "n": 2, "p": 4,
             "delta": 0.2, "seed": [3, 4]}
        )
        a = run_campaign(trials, csv_path=tmp_path / "a.csv")
        b = run_campaign(trials, csv_path=tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert a.rows == b.rows


def _mixed_sweep():
    # Quartic and Rosenbrock at n = 2, the quadratic at n = 4 and n = 8 with
    # its exact-argmax probe and two radii per shape, relaxed fits, and a
    # radius that fits Rosenbrock's box for some seeds only.
    trials = []
    for kind, n, p in (("lin_det", 2, 2), ("quad_det", 2, 5), ("mfn", 2, 4)):
        trials += expand_config(
            {"function": ["quartic", "rosenbrock"], "kind": kind, "n": n, "p": p,
             "delta": [0.1, 1.5], "kappa": 0.01, "seed": [0, 1, 2]}
        )
    for kind, n, p in (("mfn", 4, 10), ("quad_det", 4, 14), ("lin_det", 8, 8),
                       ("mfn", 8, 12)):
        trials += expand_config(
            {"function": "quadratic", "kind": kind, "n": n, "p": p,
             "delta": [0.2, 0.1], "kappa": 0.01, "lambda_max": 5.0, "seed": [0, 1]}
        )
    return trials


class TestProbePlans:
    def test_rows_equal_trials_run_alone(self):
        # Trials that share a plan key share its center, block and objective
        # values; each row is still the one its config gives alone.
        trials = _mixed_sweep()
        report = run_campaign(trials)
        assert report.failures and len(report.failures) < len(trials)
        assert {f["type"] for f in report.failures} == {"ValueError"}
        failures = iter(report.failures)
        for trial_id, config in enumerate(trials):
            try:
                result = run_trial(config)
            except ValueError as exc:
                # The plan is built once, and each of its trials fails with
                # the error it gives alone.
                result = None
                alone = {"trial_id": trial_id, "type": "ValueError", "error": str(exc)}
                assert next(failures) == alone
            alone = verify_module._result_columns(result)
            row = report.rows[trial_id]
            assert [str(row[c]) for c in alone] == [str(v) for v in alone.values()], trial_id

    def test_block_objective_evaluated_once_per_key(self, monkeypatch):
        # Sample sets have at most 13 points here, probe blocks at least 200.
        evaluated = collections.Counter()
        original = verify_module.resolve_function

        def counted(name, n):
            fn = original(name, n)

            def wrap(tag, method):
                def call(X):
                    if len(X) >= 200:
                        evaluated[tag, name, X.tobytes()] += 1
                    return method(X)
                return call

            return dataclasses.replace(fn, f=wrap("f", fn.f), grad=wrap("grad", fn.grad))

        monkeypatch.setattr(verify_module, "resolve_function", counted)
        trials = _mixed_sweep()
        report = run_campaign(trials)
        failed = {f["trial_id"] for f in report.failures}
        built = {
            verify_module._plan_key(c) for i, c in enumerate(trials) if i not in failed
        }
        assert len(built) < len(trials) - len(failed)
        assert set(evaluated.values()) == {1}
        assert len(evaluated) == 2 * len(built)

    def test_plans_released_after_their_last_trial(self, monkeypatch):
        # Shapes and fitted states are released like plans: each is dropped
        # once the last trial that reads it has run (checked before every
        # trial by StageValues.watch).  A trial whose ball does not fit the
        # domain fails on its plan before it reads its shape, and that shape
        # does not outlive its last trial either.  The shapes and the
        # quadratic-objective trials' fits exist before the first trial; a
        # plan is built by the first trial that reads it.
        trials = _mixed_sweep()
        values = StageValues(monkeypatch)
        report = run_campaign(trials, progress=values.watch(trials))
        assert len(values.seen) == len(trials)
        assert any("does not fit" in f["error"] for f in report.failures)
        assert set(values.builds.values()) == {1}
        stages = collections.Counter(stage for stage, _ in values.refs)
        assert stages["shape"] and stages["plan"] and stages["fit"]
        assert {key for key in values.refs if key[0] != "plan"} <= values.seen[0]
        assert not values.alive()
        # Some plan is shared: built by one trial and still held for another.
        assert any(
            sum(key in alive for alive in values.seen) > 1
            for key in values.refs
            if key[0] == "plan"
        )

    def test_shape_released_by_a_trial_with_an_unknown_function(self, monkeypatch):
        # The first trial fails before it reads its plan or its shape; its
        # shape, which no later trial uses, is dropped all the same.
        trials = [
            TrialConfig("nope", "lin_det", 2, 2, 0.1, seed=3),
            TrialConfig("quartic", "lin_det", 2, 2, 0.1, seed=4),
        ]
        values = StageValues(monkeypatch)
        report = run_campaign(trials, progress=values.watch(trials))
        assert [f["trial_id"] for f in report.failures] == [0]
        assert values.seen == [
            {("shape", (2, 2, 100.0, 3)), ("shape", (2, 2, 100.0, 4))},
            {("shape", (2, 2, 100.0, 4))},
        ]
        assert not values.alive()

    def test_plans_dropped_when_progress_raises(self, monkeypatch):
        trials = _mixed_sweep()
        calls = []

        def stop(message):
            calls.append(message)
            if len(calls) == 4:
                raise KeyboardInterrupt

        values = StageValues(monkeypatch)
        # The exception, held here, holds the campaign's frames.
        with pytest.raises(KeyboardInterrupt) as stopped:
            run_campaign(trials, progress=values.watch(trials, also=stop))
        assert stopped.tb is not None
        assert len(values.seen) == 4
        assert any(key[0] == "plan" for key in values.seen[-1])
        assert not values.alive()


class TestExactWorstPoints:
    """A campaign finds the exact worst points of one n in one solve."""

    @staticmethod
    def _exact(trials, n):
        return [c for c in trials if c.function == "quadratic" and c.n == n]

    def test_one_worst_point_solve_per_n(self, monkeypatch):
        # One solve takes the error rows of every n, as a list of stacks
        # with a list of centers.
        solves = []
        original = verify_module.max_abs_on_ball

        def counted(coeffs, center, radius):
            solves.append([(len(c), len(a)) for a, c in zip(coeffs, center)])
            return original(coeffs, center, radius)

        monkeypatch.setattr(verify_module, "max_abs_on_ball", counted)
        trials = _mixed_sweep()
        report = run_campaign(trials)
        assert not any(trials[f["trial_id"]].function == "quadratic" for f in report.failures)
        # Quartic and Rosenbrock trials make no worst-point solve.
        assert solves == [[(4, len(self._exact(trials, 4))), (8, len(self._exact(trials, 8)))]]

    def test_failed_solve_fails_only_its_trial(self, monkeypatch):
        # The solver is handed a NaN row in place of one trial's error row,
        # so the batched solve raises and each row is solved alone.
        trials = _mixed_sweep()
        clean = run_campaign(trials)
        target = self._exact(trials, 4)[2]
        bad = trials.index(target)
        rows = []
        original = verify_module.max_abs_on_ball

        def recording(coeffs, center, radius):
            rows.append(np.vstack(coeffs))
            return original(coeffs, center, radius)

        monkeypatch.setattr(verify_module, "max_abs_on_ball", recording)
        run_trial(target)
        poisoned = rows[-1][0]
        calls = []

        def poison(coeffs):
            hit = np.array([np.array_equal(row, poisoned) for row in coeffs])
            return np.where(hit[:, None], np.nan, coeffs)

        def flaky(coeffs, center, radius):
            calls.append([len(c) for c in coeffs])
            return original([poison(c) for c in coeffs], center, radius)

        monkeypatch.setattr(verify_module, "max_abs_on_ball", flaky)
        values = StageValues(monkeypatch)
        report = run_campaign(trials, progress=values.watch(trials))
        assert not values.alive()
        with pytest.raises(ValueError) as alone:
            run_trial(target)
        assert report.failures[-1] == {
            "trial_id": bad, "type": "ValueError", "error": str(alone.value)
        }
        assert str(alone.value) == "polynomial coefficients and center must be finite"
        assert report.failures[:-1] == clean.failures
        # The solve of both n raises, so each row is solved alone.  The
        # last call is the trial run alone.
        k4, k8 = len(self._exact(trials, 4)), len(self._exact(trials, 8))
        assert calls == [[k4, k8]] + [[1]] * (k4 + k8) + [[1]]
        for trial_id, (row, ref) in enumerate(zip(report.rows, clean.rows)):
            if trial_id != bad:
                assert row == ref, trial_id

    def test_repeated_config_releases_every_key(self, monkeypatch):
        # The quadratic config runs twice and shares its shape with the
        # quartic trial after it.  Before each trial, only what that trial
        # or a later one reads is held, and each key is built once.
        q = TrialConfig("quadratic", "mfn", 4, 10, 0.2, kappa=0.01, lambda_max=5.0, seed=1)
        quartic = dataclasses.replace(q, function="quartic")
        trials = [q, q, quartic]
        shape, plan = ("shape", (4, 10, 5.0, 1)), ("plan", ("quadratic", 4, 0.2, 1))
        values = StageValues(monkeypatch)
        report = run_campaign(trials, progress=values.watch(trials))
        assert not report.failures
        assert report.rows[0] == {**report.rows[1], "trial_id": 0}
        assert values.seen == [{("fit", q), shape, plan}] * 2 + [{shape}]
        assert set(values.builds.values()) == {1}
        assert ("plan", ("quartic", 4, 0.2, 1)) in values.refs
        assert not values.alive()
        alone = verify_module._result_columns(run_trial(q))
        assert {k: report.rows[0][k] for k in alone} == alone


class TestStoredFailures:
    """A key that fails keeps its exception, which each of its trials raises."""

    @staticmethod
    def _trials():
        # The three kinds at n = 2 share the plan of a ball of radius 1.5,
        # which does not fit the quartic's box.  LIN_DET at n = 2 cannot
        # certify lambda 2, so its shapes fail: that of seed 0 for two
        # quartic trials, read in turn, and that of seed 1 for two trials
        # of the quadratic, whose fits are made before the first trial,
        # after that of a quadratic trial that passes.
        trials = [
            TrialConfig("quartic", kind, 2, p, 1.5)
            for kind, p in (("lin_det", 2), ("quad_det", 5), ("mfn", 4))
        ]
        trials.append(TrialConfig("quadratic", "lin_det", 2, 2, 0.5, seed=2))
        for function, seed in (("quartic", 0), ("quadratic", 1)):
            trials += expand_config(
                {"function": function, "kind": "lin_det", "n": 2, "p": 2,
                 "delta": [0.5, 0.1], "lambda_max": 2.0, "seed": seed}
            )
        return trials

    def test_failing_key_built_once(self, monkeypatch):
        trials = self._trials()
        loops = []
        original = geometry_module._improve_shape

        def counted(kind, n, p, lambda_max, seed):
            loops.append((n, p, lambda_max, seed))
            return original(kind, n, p, lambda_max, seed)

        monkeypatch.setattr(geometry_module, "_improve_shape", counted)
        values = StageValues(monkeypatch)
        report = run_campaign(trials, progress=values.watch(trials))
        assert len(loops) == len(set(loops)) == 6
        assert set(values.builds.values()) == {1}
        # A kept exception holds no stage value alive through its traceback.
        assert not values.alive()
        assert ("plan", ("quartic", 2, 1.5, 0)) in values.builds
        assert ("plan", ("quartic", 2, 1.5, 0)) not in values.refs
        monkeypatch.undo()
        alone = []
        for trial_id, config in enumerate(trials):
            try:
                run_trial(config)
            except Exception as exc:
                alone.append(
                    {"trial_id": trial_id, "type": type(exc).__name__, "error": str(exc)}
                )
        assert len(alone) == len(trials) - 1
        assert report.failures == alone

    def test_stages_store_bare_failures(self, monkeypatch):
        # A failure the shape or the worst-point stage stores keeps no
        # traceback, whose frames would hold other keys' values, and no
        # __context__, such as the batch solve that failed before its own.
        def bare(store, key, kind):
            exc = store[key]
            assert type(exc) is kind, exc
            assert exc.__traceback__ is None and exc.__context__ is None

        # A shape loop that gives up: LIN_DET at n = 2 cannot certify lambda 2.
        shapes = verify_module._certify_shapes([(2, 2, 2.0, 0), (2, 2, 100.0, 0)])
        bare(shapes, (2, 2, 2.0, 0), RuntimeError)
        assert isinstance(shapes[2, 2, 100.0, 0], SampleSet)
        # A plan that does not fit its box (no ball of radius 12 fits
        # [-10, 10]^2), and a worst-point solve that raises: a NaN in place of
        # one trial's error row fails the batch of its n, then its own solve.
        far = TrialConfig("quadratic", "lin_det", 2, 2, 12.0)
        ok = TrialConfig("quadratic", "mfn", 4, 10, 0.2, kappa=0.01, lambda_max=5.0)
        target = dataclasses.replace(ok, seed=1)
        configs = [far, ok, target]
        shapes = verify_module._certify_shapes([verify_module._shape_key(c) for c in configs])
        rows = []
        original = verify_module.max_abs_on_ball

        def recording(coeffs, center, radius):
            rows.append(np.vstack(coeffs))
            return original(coeffs, center, radius)

        monkeypatch.setattr(verify_module, "max_abs_on_ball", recording)
        verify_module._fit_quadratics([target], shapes, {})
        poisoned = rows[-1][0]
        calls = []

        def flaky(coeffs, center, radius):
            calls.append([len(c) for c in coeffs])
            poison = [np.array([np.array_equal(row, poisoned) for row in c]) for c in coeffs]
            coeffs = [np.where(hit[:, None], np.nan, c) for hit, c in zip(poison, coeffs)]
            return original(coeffs, center, radius)

        monkeypatch.setattr(verify_module, "max_abs_on_ball", flaky)
        plans = {}
        fits = verify_module._fit_quadratics(configs, shapes, plans)
        assert calls == [[2], [1], [1]]
        bare(fits, far, ValueError)
        assert plans["quadratic", 2, 12.0, 0] is fits[far]
        bare(fits, target, ValueError)
        assert not isinstance(fits[ok], Exception)

    def test_each_reraise_has_a_fresh_traceback(self, monkeypatch):
        # A stored exception raised again would extend its own traceback;
        # each trial of a failed key raises it with a traceback of one depth.
        depths = collections.defaultdict(list)
        original = verify_module.run_trial

        def spied(config, *stages):
            try:
                return original(config, *stages)
            except Exception as exc:
                depth = len(traceback.extract_tb(exc.__traceback__))
                depths[str(exc), config.function].append(depth)
                raise

        monkeypatch.setattr(verify_module, "run_trial", spied)
        report = run_campaign(self._trials())
        assert len(report.failures) == 7
        assert sorted(len(d) for d in depths.values()) == [2, 2, 3]
        assert all(len(set(d)) == 1 for d in depths.values()), dict(depths)
