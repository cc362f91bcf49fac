import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dfobounds.geometry as geometry_module
import dfobounds.verify as verify_module
from dfobounds import (
    ModelKind,
    NotPoisedError,
    PoisednessKind,
    QuadraticPolynomial,
    SampleSet,
    TrialConfig,
    basis_matrix,
    constants_from_lambda,
    design_matrix,
    fit_model,
    generate_poised_set,
    grid_oracle,
    lagrange_determined,
    lagrange_mfn,
    lambda_poisedness,
    max_abs_on_ball,
    normalized_points,
    run_campaign,
    space_dim,
)

from conftest import default_sweep

KINDS = {
    PoisednessKind.LINEAR: lambda n: n,
    PoisednessKind.QUADRATIC: lambda n: space_dim(2, n) - 1,
    PoisednessKind.MFN: lambda n: (n + space_dim(2, n) - 1) // 2,
}


def kind_id(value):
    # A kind's test id is its poisedness name, which keeps the ids stable.
    return {
        PoisednessKind.LINEAR: "PoisednessKind.LINEAR",
        PoisednessKind.QUADRATIC: "PoisednessKind.QUADRATIC",
        PoisednessKind.MFN: "PoisednessKind.MFN",
    }.get(value)


def lagrange_for(ss, kind):
    if kind is PoisednessKind.LINEAR:
        return lagrange_determined(ss, 1)
    if kind is PoisednessKind.QUADRATIC:
        return lagrange_determined(ss, 2)
    return lagrange_mfn(ss)


class TestSampleSetValidation:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]]), 2.0)

    def test_point_outside_radius_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([[0.0, 0.0], [3.0, 0.0]]), 1.0)

    def test_single_point_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([[0.0, 0.0]]), 1.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            SampleSet(np.array([[0.0, 0.0], [np.nan, 0.0]]), 1.0)

    def test_signed_zero_duplicate_rejected(self):
        # -0.0 equals 0.0, so these two rows are the same point.
        pts = np.array([[0.0, 0.0], [0.5, -0.0], [0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(ValueError, match="pairwise distinct"):
            SampleSet(pts, 1.0)
        with pytest.raises(ValueError, match="pairwise distinct"):
            SampleSet(np.array([[0.0, 0.0], [-0.0, -0.0]]), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        rows=st.integers(2, 12),
        cols=st.integers(1, 4),
    )
    def test_distinctness_verdict_matches_unique(self, seed, rows, cols):
        # Coordinates from a small grid (with signed zeros) make repeated
        # rows common; the verdict must be np.unique's.
        rng = np.random.default_rng(seed)
        pts = rng.choice([-0.5, -0.0, 0.0, 0.5], size=(rows, cols))
        pts[0] = 0.0
        distinct = np.unique(pts, axis=0).shape[0] == rows
        if distinct:
            SampleSet(pts, 1.0)
        else:
            with pytest.raises(ValueError, match="pairwise distinct"):
                SampleSet(pts, 1.0)

    def test_normalized_points_read_only(self, simplex_set):
        Yh = normalized_points(simplex_set)
        assert np.array_equal(Yh, simplex_set.points)
        with pytest.raises(ValueError):
            Yh[1, 0] = 2.0

    def test_shape_properties(self, simplex_set):
        assert simplex_set.n == 2
        assert simplex_set.p == 2
        assert np.allclose(simplex_set.y0, [0.0, 0.0])

    def test_points_read_only(self, simplex_set):
        with pytest.raises(ValueError):
            simplex_set.points[0, 0] = 5.0


class TestDesignMatrices:
    def test_linear_rows_are_displacements(self, simplex_set):
        M = simplex_set.points[1:] - simplex_set.y0
        assert np.allclose(M, [[1.0, 0.0], [0.0, 1.0]])
        Ms = design_matrix(ModelKind.LIN_DET, simplex_set)
        assert np.allclose(Ms, M / simplex_set.radius)

    def test_quadratic_scaling_blocks(self):
        pts = np.vstack([np.zeros(2), 0.5 * np.eye(2), -0.5 * np.eye(2),
                         [[0.5, 0.5]]])
        ss = SampleSet(pts, 2.0)
        M = basis_matrix(ss.points[1:] - ss.y0)[:, 1:]
        Ms = design_matrix(ModelKind.QUAD_DET, ss)
        n, q = 2, space_dim(2, 2) - 1
        assert M.shape == (q, q)
        # linear columns scale by 1/delta, quadratic columns by 1/delta^2
        assert np.allclose(Ms[:, :n], M[:, :n] / 2.0)
        assert np.allclose(Ms[:, n:], M[:, n:] / 4.0)

    def test_under_shape_guard(self, simplex_set):
        with pytest.raises(ValueError):
            design_matrix(ModelKind.MFN, simplex_set)  # p == n is determined

    def test_wrong_cardinality_raises(self, simplex_set):
        with pytest.raises(ValueError):
            design_matrix(ModelKind.QUAD_DET, simplex_set)


    @pytest.mark.parametrize("n, p", [(2, 3), (2, 4), (4, 10), (8, 30)])
    def test_saddle_matrix_matches_block(self, rng, n, p):
        # The saddle written into one zero array has the bits of np.block.
        points = rng.uniform(-0.5, 0.5, size=(p + 1, n))
        M = basis_matrix(points)
        Ml, Mq = M[:, : n + 1], M[:, n + 1 :]
        expected = np.block([[Mq @ Mq.T, Ml], [Ml.T, np.zeros((n + 1, n + 1))]])
        got_q, got = geometry_module._matrix(points, ModelKind.MFN)
        assert np.array_equal(got_q, Mq)
        assert np.array_equal(got, expected)


class TestPoisedness:
    def test_simplex_lambda(self, simplex_set):
        cert = lambda_poisedness(simplex_set, PoisednessKind.LINEAR)
        assert np.isclose(cert.lam, 1.0 + np.sqrt(2.0), atol=1e-9)
        assert np.isclose(cert.matrix_norm, 1.0, atol=1e-12)
        assert np.isclose(cert.norm_bound, (1.0 + np.sqrt(2.0)) * np.sqrt(2.0))
        assert cert.satisfied

    def test_lambda_equals_grid_oracle_max(self, rng):
        # the certified constant is the max over the ball of any Lagrange
        # polynomial; cross-check against the brute-force lattice
        for kind in PoisednessKind:
            n = 2
            p = KINDS[kind](n)
            ss = generate_poised_set(n, p, 1.0, 50.0, seed=11)
            cert = lambda_poisedness(ss, kind)
            gmax = 0.0
            for l in lagrange_for(ss, kind):
                value, _ = grid_oracle(l, ss.y0, ss.radius, 0.01)
                gmax = max(gmax, value)
            assert gmax <= cert.lam + 1e-9
            assert cert.lam - gmax <= 0.05 * max(1.0, cert.lam)

    def test_collinear_not_poised(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        ss = SampleSet(pts, 1.0)
        with pytest.raises(NotPoisedError) as err:
            lambda_poisedness(ss, PoisednessKind.LINEAR)
        assert err.value.condition > 1e12

    def test_mfn_poised_flags(self, cross_set):
        assert np.isfinite(lambda_poisedness(cross_set, PoisednessKind.MFN).lam)
        collinear = SampleSet(
            np.array([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [1.0, 0.0]]), 1.0
        )
        with pytest.raises(NotPoisedError, match="saddle system condition"):
            lambda_poisedness(collinear, PoisednessKind.MFN)

    def test_certificate_dict_keys(self, simplex_set):
        payload = lambda_poisedness(simplex_set, PoisednessKind.LINEAR).to_dict()
        assert set(payload) == {
            "kind",
            "lambda",
            "per_point_max",
            "matrix_norm",
            "norm_bound",
            "satisfied",
        }

    def test_scale_invariance(self):
        # poisedness depends only on geometry relative to delta
        base = generate_poised_set(2, 4, 1.0, 20.0, seed=5)
        for factor in (1e-6, 1e3):
            scaled = SampleSet(base.points * factor, base.radius * factor)
            a = lambda_poisedness(base, PoisednessKind.MFN).lam
            b = lambda_poisedness(scaled, PoisednessKind.MFN).lam
            assert np.isclose(a, b, rtol=1e-6)


class TestLazyCertificate:
    """The norm check is computed on first read, from the certified points."""

    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("kind", list(PoisednessKind), ids=kind_id)
    def test_norm_check_equals_eager_formula(self, kind, n):
        p = KINDS[kind](n)
        ss = generate_poised_set(n, p, 0.3, 20.0, seed=3, center=np.full(n, 0.1))
        for cert in (ss.certificate, lambda_poisedness(ss, kind)):
            assert not {"matrix_norm", "norm_bound", "satisfied"} & set(vars(cert))
            assert cert.normalized is normalized_points(ss)
            smin = float(np.linalg.svd(design_matrix(kind, ss), compute_uv=False)[-1])
            matrix_norm = float(np.inf if smin == 0.0 else 1.0 / smin)
            norm_bound = float(constants_from_lambda(kind, cert.lam, n=n, p=p))
            assert cert.matrix_norm.hex() == matrix_norm.hex()
            assert cert.norm_bound.hex() == norm_bound.hex()
            assert cert.satisfied is bool(matrix_norm <= norm_bound + 1e-9)

    def test_norm_check_runs_once(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        cert = generate_poised_set(2, 4, 0.5, 20.0, seed=1).certificate
        assert calls == []
        first = cert.to_dict()
        assert len(calls) == 1
        assert cert.to_dict() == first
        assert len(calls) == 1

    def test_shape_and_placement_need_no_cycle_collector(self):
        # The certificate holds the shape's normalized points, not the shape,
        # so a shape and its placements hold no reference cycle: each is
        # freed as soon as its last reference goes, read fields or not.
        key = (2, 4, 20.0, 2)
        gc.disable()
        try:
            shape = geometry_module._certify_shapes([key])[key]
            placed = generate_poised_set(2, 4, 0.5, 20.0, seed=2, shape=shape)
            satisfied = placed.certificate.satisfied
            shape_ref, placed_ref = weakref.ref(shape), weakref.ref(placed)
            del placed
            placed_freed, shape_kept = placed_ref() is None, shape_ref() is not None
            del shape
            shape_freed = shape_ref() is None
        finally:
            gc.enable()
        assert satisfied and placed_freed and shape_kept and shape_freed


class TestLagrange:
    @pytest.mark.parametrize(
        "kind,n",
        [
            (PoisednessKind.LINEAR, 1),
            (PoisednessKind.LINEAR, 3),
            (PoisednessKind.QUADRATIC, 1),
            (PoisednessKind.QUADRATIC, 2),
            (PoisednessKind.MFN, 2),
            (PoisednessKind.MFN, 3),
        ],
        ids=kind_id,
    )
    def test_kronecker_and_partition(self, kind, n, rng):
        p = KINDS[kind](n)
        ss = generate_poised_set(n, p, 0.5, 30.0, seed=n * 7 + 1)
        polys = lagrange_for(ss, kind)
        assert len(polys) == ss.p + 1
        values = np.column_stack([l.eval_batch(ss.points) for l in polys])
        assert np.max(np.abs(values - np.eye(ss.p + 1))) <= 1e-8
        for _ in range(20):
            x = ss.y0 + rng.uniform(-1, 1, n) * ss.radius
            total = sum(l(x) for l in polys)
            assert np.isclose(total, 1.0, atol=1e-8)

    @pytest.mark.parametrize(
        "kind,n",
        # n = 1 has no minimum-norm shape.
        [(kind, n) for kind in KINDS for n in range(1, 9) if kind is not PoisednessKind.MFN or n > 1],
        ids=kind_id,
    )
    def test_builders_equal_compose_affine(self, kind, n):
        # Each polynomial, pulled back from the stack split once, has the
        # bits of its normalized row built alone and composed, and of the
        # substitution written out on that row's polynomial.
        p = KINDS[kind](n)
        ss = generate_poised_set(n, p, 0.3, 100.0, seed=n, center=np.linspace(-0.5, 0.7, n))
        rows = geometry_module._lagrange_coeffs(ss, ModelKind(kind))
        polys = lagrange_for(ss, kind)
        assert len(polys) == len(rows)
        offset, scale = -ss.y0 / ss.radius, 1 / ss.radius
        for row, got in zip(rows, polys):
            m = QuadraticPolynomial.from_coeffs(row, n)
            want = m.compose_affine(offset, scale)
            Ho = m.hessian @ offset
            written = (
                m.constant + m.gradient @ offset + 0.5 * offset @ Ho,
                scale * (m.gradient + Ho),
                (scale * scale) * m.hessian,
            )
            for polynomial in (want, QuadraticPolynomial(n, *written)):
                assert np.array_equal(got.constant, polynomial.constant)
                assert np.array_equal(got.gradient, polynomial.gradient)
                assert np.array_equal(got.hessian, polynomial.hessian)

    def test_degree_guard(self, simplex_set):
        with pytest.raises(ValueError):
            lagrange_determined(simplex_set, 3)

    def test_mfn_needs_underdetermined(self, simplex_set):
        with pytest.raises(ValueError):
            lagrange_mfn(simplex_set)


class TestRemarkFactorization:
    def test_affine_matrix_factors_through_displacements(self):
        # the absolute affine interpolation matrix (rows [1, y_i^T]) is the
        # elimination product of the scaled displacement block, mapped back
        # to absolute coordinates by [[1, y0^T], [0, delta I]]
        for center in (None, [0.3, -1.2, 2.5]):
            ss = generate_poised_set(3, 6, 0.4, 30.0, seed=9, center=center)
            Ml = basis_matrix(ss.points)[:, : ss.n + 1]
            Ls_hat = design_matrix(ModelKind.MFN, ss)
            E_inv = np.eye(ss.p + 1)
            E_inv[1:, 0] = 1.0
            block = np.zeros((ss.p + 1, ss.n + 1))
            block[0, 0] = 1.0
            block[1:, 1:] = Ls_hat
            S = ss.radius * np.eye(ss.n + 1)
            S[0, 0] = 1.0
            S[0, 1:] = ss.y0
            tol = 1e-12 * max(1.0, np.abs(ss.points).max())
            assert np.abs(Ml - E_inv @ block @ S).max() <= tol


class TestGenerator:
    @pytest.mark.parametrize("n,p", [(1, 1), (1, 2), (2, 2), (2, 4), (2, 5), (3, 3), (3, 7), (4, 4)])
    def test_generates_certified_sets(self, n, p):
        ss = generate_poised_set(n, p, 0.3, 15.0, seed=2)
        assert ss.n == n and ss.p == p
        assert np.isclose(ss.radius, 0.3)
        q = space_dim(2, n) - 1
        if p == n:
            kind = PoisednessKind.LINEAR
        elif p == q:
            kind = PoisednessKind.QUADRATIC
        else:
            kind = PoisednessKind.MFN
        cert = lambda_poisedness(ss, kind)
        assert cert.lam <= 15.0

    def test_deterministic(self):
        a = generate_poised_set(2, 4, 0.5, 10.0, seed=42)
        b = generate_poised_set(2, 4, 0.5, 10.0, seed=42)
        assert np.array_equal(a.points, b.points)

    def test_seeds_differ(self):
        a = generate_poised_set(2, 4, 0.5, 10.0, seed=1)
        b = generate_poised_set(2, 4, 0.5, 10.0, seed=2)
        assert not np.allclose(a.points, b.points)

    def test_center_honored(self):
        center = np.array([3.0, -1.0])
        ss = generate_poised_set(2, 5, 0.2, 10.0, seed=0, center=center)
        assert np.allclose(ss.y0, center)
        assert np.all(np.linalg.norm(ss.points - center, axis=1) <= 0.2 * (1 + 1e-9))

    def test_same_seed_scales_with_delta(self):
        # the generated geometry is a pure dilation across delta
        a = generate_poised_set(2, 4, 1.0, 10.0, seed=6)
        b = generate_poised_set(2, 4, 0.01, 10.0, seed=6)
        assert np.allclose(a.points * 0.01, b.points, atol=1e-12)

    @pytest.mark.parametrize(
        "kind, n, p",
        [
            (PoisednessKind.LINEAR, 3, 3),
            (PoisednessKind.QUADRATIC, 2, 5),
            (PoisednessKind.MFN, 3, 7),
        ],
        ids=kind_id,
    )
    def test_certificate_equals_lambda_poisedness(self, kind, n, p):
        # The generator certifies its final set once; that certificate is
        # exactly the one a fresh measurement gives.
        ss = generate_poised_set(n, p, 0.3, 8.0, seed=5, center=np.full(n, 0.25))
        assert ss.certificate is not None
        assert ss.certificate.to_dict() == lambda_poisedness(ss, kind).to_dict()

    def test_certificate_cannot_be_injected(self, simplex_set):
        assert simplex_set.certificate is None
        cert = lambda_poisedness(simplex_set, PoisednessKind.LINEAR)
        with pytest.raises(TypeError):
            SampleSet(simplex_set.points, 1.0, certificate=cert)

    @pytest.mark.parametrize(
        "kind, n, p",
        [
            (PoisednessKind.LINEAR, 2, 2),
            (PoisednessKind.QUADRATIC, 2, 5),
            (PoisednessKind.MFN, 2, 4),
        ],
        ids=kind_id,
    )
    def test_placements_share_one_shape(self, kind, n, p):
        # The shape depends only on (n, p, lambda_max, seed); the center and
        # delta only place it, so both placements solve on the same unit
        # set and carry the same certificate.
        a = generate_poised_set(n, p, 0.5, 20.0, seed=4)
        b = generate_poised_set(n, p, 1e-3, 20.0, seed=4, center=[5.0, -3.0])
        assert np.array_equal(normalized_points(a), normalized_points(b))
        assert a.certificate == b.certificate
        assert b.certificate == lambda_poisedness(b, kind)
        assert np.array_equal(b.y0, [5.0, -3.0])
        assert np.array_equal(b.points, b.y0 + 1e-3 * normalized_points(b))
        assert np.array_equal(
            design_matrix(kind, a), design_matrix(kind, b)
        )

    def test_lambda_max_guard(self):
        with pytest.raises(ValueError):
            generate_poised_set(2, 4, 0.5, 1.0, seed=0)

    def test_invalid_cardinality(self):
        with pytest.raises(ValueError):
            generate_poised_set(2, 1, 0.5, 10.0, seed=0)
        with pytest.raises(ValueError):
            generate_poised_set(2, 6, 0.5, 10.0, seed=0)  # above quadratic size


class TestPlacement:
    """Placing a certified shape at center + delta * U re-checks what rounding breaks."""

    @pytest.mark.parametrize(
        "delta, center, message",
        [
            (0.5, [np.nan, 0.0], "points must be finite"),
            (0.5, [np.inf, 1.0], "points must be finite"),
            # 1 + 1e-20 u rounds to 1: every placed point is the center
            (1e-20, [1.0, 1.0], "sample points must be pairwise distinct"),
            # rounding at 1e5 moves a boundary point just outside the ball
            (
                1e-7,
                [1e5, -1e5],
                "point 4 lies at distance 1.00005e-07 from the base point, "
                "outside the ball of radius 1e-07",
            ),
        ],
    )
    def test_placement_errors(self, delta, center, message):
        with pytest.raises(ValueError) as info:
            generate_poised_set(2, 4, delta, 20.0, seed=0, center=center)
        assert str(info.value) == message

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 4), (2, 5), (3, 6)])
    def test_placed_set_reuses_shape(self, n, p):
        center = np.linspace(-0.7, 0.9, n)
        key = (n, p, 20.0, 6)
        shape = geometry_module._certify_shapes([key])[key]
        placed = geometry_module._place(shape, center, 0.03)
        alone = generate_poised_set(n, p, 0.03, 20.0, seed=6, center=center)
        assert placed.points.tobytes() == alone.points.tobytes()
        assert not placed.points.flags.writeable
        assert placed.points.tobytes() == (center + 0.03 * shape.points).tobytes()
        assert placed.radius == 0.03
        assert normalized_points(placed) is normalized_points(shape)
        assert placed._system is shape._system
        assert placed.certificate is shape.certificate

    @pytest.mark.parametrize("n,p", [(2, 5), (3, 6)])
    def test_shape_of_another_n_or_p_is_refused(self, n, p):
        # A (2, 5) shape asked for as (2, 4) would come back with 6 points,
        # and a (3, 6) shape would fail to broadcast.
        key = (n, p, 20.0, 0)
        shape = geometry_module._certify_shapes([key])[key]
        message = rf"shape is certified for \(n, p\) = \({n}, {p}\), not the requested \(2, 4\)"
        with pytest.raises(ValueError, match=message):
            generate_poised_set(2, 4, 0.5, 20.0, seed=0, shape=shape)


class TestSystemMemo:
    """Each set builds its normalized interpolation system once."""

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 4), (2, 5)])
    def test_placed_set_shares_shape_memo(self, n, p):
        key = (n, p, 20.0, 4)
        shape = geometry_module._certify_shapes([key])[key]
        a = geometry_module._place(shape, np.zeros(2), 0.5)
        b = geometry_module._place(shape, np.array([5.0, -3.0]), 1e-3)
        assert shape._system is not None
        assert a._system is shape._system
        assert b._system is shape._system
        coeffs = shape._system
        assert not coeffs.flags.writeable
        assert coeffs.shape == (6, p + 1)  # FULL degree-2 basis at n = 2
        kind = {2: ModelKind.LIN_DET, 4: ModelKind.MFN, 5: ModelKind.QUAD_DET}[p]
        M = geometry_module._matrix(normalized_points(shape), kind)[1]
        assert fit_model(kind, b, np.ones(p + 1)).condition == np.linalg.cond(M)

    def test_system_built_once_per_generator_iteration(self, monkeypatch):
        # Over the default sweep every system is built by the generator's
        # driver, one per candidate set it tries; the trials' fits only
        # reuse them.
        original_system = geometry_module._system
        original_certify = geometry_module._certify_shapes
        generating = []
        candidates = []
        builds = []  # (set, inside the generator)
        reuses = []

        class CountedSet(SampleSet):
            def __post_init__(self):
                super().__post_init__()
                if generating:
                    candidates.append(self)

        def counted_system(sample_set, kind):
            empty = sample_set._system is None
            (builds if empty else reuses).append((sample_set, bool(generating)))
            return original_system(sample_set, kind)

        def counted_certify(*args):
            generating.append(True)
            try:
                return original_certify(*args)
            finally:
                generating.pop()

        monkeypatch.setattr(geometry_module, "SampleSet", CountedSet)
        monkeypatch.setattr(geometry_module, "_system", counted_system)
        # A campaign calls the driver through verify, a lone
        # generate_poised_set through geometry.
        monkeypatch.setattr(geometry_module, "_certify_shapes", counted_certify)
        monkeypatch.setattr(verify_module, "_certify_shapes", counted_certify)
        trials = default_sweep(5)
        report = run_campaign(trials)
        assert not report.failures
        assert all(inside for _, inside in builds)
        assert [ss for ss, _ in builds] == candidates
        # 15 shapes, each accepted on its last iteration; one fit per trial.
        assert len(candidates) >= 15
        assert len(reuses) == len(trials)
        assert not any(inside for _, inside in reuses)

    def test_one_solve_per_system_build(self, monkeypatch):
        # Over the default sweep the only solves are the basis solves in
        # _system, one per system it builds, all for generator candidates;
        # the trials' fits expand values in those bases and solve nothing.
        original_system = geometry_module._system
        original_certify = geometry_module._certify_shapes
        original_solve = np.linalg.solve
        generating = []
        builds = []  # inside the generator
        solves = []  # inside the generator

        def counted_system(sample_set, kind):
            empty = sample_set._system is None
            result = original_system(sample_set, kind)
            if empty:
                builds.append(bool(generating))
            return result

        def counted_solve(a, b):
            solves.append(bool(generating))
            return original_solve(a, b)

        def counted_certify(*args):
            generating.append(True)
            try:
                return original_certify(*args)
            finally:
                generating.pop()

        monkeypatch.setattr(geometry_module, "_system", counted_system)
        monkeypatch.setattr(geometry_module, "_certify_shapes", counted_certify)
        monkeypatch.setattr(verify_module, "_certify_shapes", counted_certify)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        report = run_campaign(default_sweep(5))
        assert not report.failures
        assert len(solves) == len(builds) >= 15
        assert all(solves) and all(builds)

    @pytest.mark.parametrize("kind", [ModelKind.LIN_DET, ModelKind.QUAD_DET, ModelKind.MFN])
    def test_fit_on_generated_set_equals_fresh_set(self, kind):
        p = {ModelKind.LIN_DET: 2, ModelKind.QUAD_DET: 5, ModelKind.MFN: 4}[kind]
        placed = generate_poised_set(2, p, 0.1, 20.0, seed=3, center=[0.3, -0.2])
        fresh = SampleSet(placed.points, placed.radius)
        object.__setattr__(fresh, "_normalized", normalized_points(placed))
        assert fresh._system is None
        values = np.sin(placed.points).sum(axis=1)
        a = fit_model(kind, placed, values)
        b = fit_model(kind, fresh, values)
        assert np.array_equal(a.model.coeffs(), b.model.coeffs())
        assert a.condition == b.condition
        assert a.residual == b.residual

    def test_failed_check_not_memoized(self):
        collinear = SampleSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]), 1.0)
        for _ in range(2):
            with pytest.raises(NotPoisedError):
                fit_model(ModelKind.LIN_DET, collinear, [0.0, 1.0, 2.0])
            assert collinear._system is None

    def test_memo_cannot_be_injected(self, simplex_set):
        assert simplex_set._system is None
        system = geometry_module._system(simplex_set, PoisednessKind.LINEAR)
        with pytest.raises(TypeError):
            SampleSet(simplex_set.points, 1.0, _system=system)


# Exactly singular sets: collinear points in the plane leave the second
# coordinate's column of the affine block zero.
SINGULAR = {
    ModelKind.LIN_DET: ([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]], "interpolation"),
    ModelKind.MFN: ([[0.0, 0.0], [0.25, 0.0], [0.5, 0.0], [1.0, 0.0]], "saddle"),
}


def _eager_condition(sample_set, kind):
    # The system matrix and its cond as they were computed before the guard
    # read the inverse, built here without the library's helpers.
    Yh = normalized_points(sample_set)
    n = sample_set.n
    M = basis_matrix(Yh)
    Ml, Mq = M[:, : n + 1], M[:, n + 1 :]
    if kind is ModelKind.LIN_DET:
        M = Ml
    elif kind is ModelKind.MFN:
        M = np.block([[Mq @ Mq.T, Ml], [Ml.T, np.zeros((n + 1, n + 1))]])
    return float(np.linalg.cond(M))


class TestConditionGuard:
    """The guard reads the inverse; the exact cond decides when it must."""

    @pytest.mark.parametrize("kind", list(SINGULAR), ids=lambda k: k.name)
    def test_singular_set_raises_with_infinite_condition(self, kind):
        points, system = SINGULAR[kind]
        ss = SampleSet(np.array(points), 1.0)
        M = geometry_module._matrix(normalized_points(ss), kind)[1]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(M, np.eye(M.shape[0]))
        message = f"{system} system condition inf exceeds 1.0e+12"
        for call in (
            lambda: lambda_poisedness(ss, kind),
            lambda: fit_model(kind, ss, np.arange(ss.p + 1.0)),
        ):
            with pytest.raises(NotPoisedError) as err:
                call()
            assert str(err.value) == message
            assert err.value.condition == np.inf
            assert ss._system is None

    @pytest.mark.parametrize("kind", [ModelKind.LIN_DET, ModelKind.QUAD_DET, ModelKind.MFN])
    def test_exact_condition_decides_above_the_bound(self, monkeypatch, kind):
        p = {ModelKind.LIN_DET: 2, ModelKind.QUAD_DET: 5, ModelKind.MFN: 4}[kind]
        points = generate_poised_set(2, p, 1.0, 20.0, seed=3).points
        M = geometry_module._matrix(normalized_points(SampleSet(points, 1.0)), kind)[1]
        exact = float(np.linalg.cond(M))
        bound = np.linalg.norm(M) * np.linalg.norm(np.linalg.inv(M))
        assert exact < bound
        # Between the exact cond and the bound the inverse cannot pass the
        # set, so the exact cond must, and does.
        threshold = float(np.sqrt(exact * bound))
        monkeypatch.setattr(geometry_module, "COND_THRESHOLD", threshold)
        fit = fit_model(kind, SampleSet(points, 1.0), np.ones(p + 1))
        assert fit.condition == exact
        # Just below the exact cond it fails, with the exact cond.
        threshold = exact * (1.0 - 1e-9)
        monkeypatch.setattr(geometry_module, "COND_THRESHOLD", threshold)
        with pytest.raises(NotPoisedError) as err:
            lambda_poisedness(SampleSet(points, 1.0), kind)
        assert err.value.condition == exact
        system = "saddle" if kind is ModelKind.MFN else "interpolation"
        assert str(err.value) == (
            f"{system} system condition {exact:.3e} exceeds {threshold:.1e}"
        )

    def test_campaign_takes_no_svd_for_the_guard(self, monkeypatch):
        calls = []
        original = np.linalg.cond

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counted)
        report = run_campaign(default_sweep(5))
        assert not report.failures
        assert calls == []

    @pytest.mark.parametrize("n,p", [(2, 2), (2, 4), (2, 5), (3, 6), (4, 10), (8, 8)])
    def test_fit_condition_lazy_and_unchanged(self, monkeypatch, n, p):
        kind = geometry_module._kind_for_shape(n, p)
        placed = generate_poised_set(n, p, 0.1, 20.0, seed=3, center=np.linspace(-0.3, 0.4, n))
        fresh = SampleSet(placed.points, placed.radius)
        calls = []
        original = np.linalg.cond
        monkeypatch.setattr(
            np.linalg, "cond", lambda M: calls.append(M.shape) or original(M)
        )
        for ss in (placed, fresh):
            fit = fit_model(kind, ss, np.cos(ss.points).sum(axis=1))
            assert calls == []
            assert fit.condition == _eager_condition(ss, kind)
            assert len(calls) == 2  # the fit's, then the check's own
            assert fit.condition is fit.condition
            calls.clear()


# The (n, p) shapes of the high-dimensional benchmark sweep, certified to
# lambda 5 there.
HIGHDIM_SHAPES = ((8, 8), (4, 10), (6, 20), (8, 30), (4, 14), (6, 27))


def _loop(key):
    n, p, lambda_max, seed = key
    return geometry_module._improve_shape(
        geometry_module._kind_for_shape(n, p), n, p, lambda_max, seed
    )


def _lockstep_shapes(keys):
    # What the campaign's lockstep pass gives keys: each key's shape, or the
    # exception its loop raised.
    return geometry_module._certify_shapes(keys)


def _solves_alone(key):
    # Ball solves the improvement loop of key takes when it runs alone.
    loop = _loop(key)
    steps = 0
    coeffs = next(loop)
    while True:
        steps += 1
        try:
            coeffs = loop.send(max_abs_on_ball(coeffs, np.zeros(key[0]), 1.0))
        except StopIteration:
            return steps


class TestLockstep:
    def test_stacked_solve_equals_separate_solves(self):
        # The ball solver treats rows independently, so one solve of several
        # candidates' Lagrange stacks gives each stack its own solve's rows.
        for n, ps, lambda_max in ((2, (2, 4, 5), 100.0), (4, (4, 10, 14), 5.0)):
            stacks = [
                next(_loop((n, p, lambda_max, seed))) for p in ps for seed in range(4)
            ]
            origin = np.zeros(n)
            values, args = max_abs_on_ball(np.vstack(stacks), origin, 1.0)
            alone = [max_abs_on_ball(c, origin, 1.0) for c in stacks]
            assert np.array_equal(values, np.concatenate([v for v, _ in alone]))
            assert np.array_equal(args, np.concatenate([a for _, a in alone]))

    @pytest.mark.parametrize(
        "keys",
        [
            sorted({(c.n, c.p, float(c.lambda_max), c.seed) for c in default_sweep(20)}),
            [(n, p, 5.0, seed) for n, p in HIGHDIM_SHAPES for seed in range(3)],
        ],
        ids=["default_sweep_20", "highdim"],
    )
    def test_lockstep_shapes_equal_shapes_generated_alone(self, keys):
        shapes = _lockstep_shapes(keys)
        assert set(shapes) == set(keys)
        for (n, p, lambda_max, seed), shape in shapes.items():
            alone = generate_poised_set(n, p, 1.0, lambda_max, seed=seed)
            assert np.array_equal(normalized_points(shape), normalized_points(alone))
            assert shape.certificate == alone.certificate

    def test_one_ball_solve_per_n_per_step(self, monkeypatch):
        # Each step solves the stacks of every loop still improving, of every
        # n, at once, handing the solver a list of each n's rows and a list
        # of centers: the solves are those of the slowest loop, and the rows
        # solved are every loop's own.
        keys = [(n, p, 5.0, seed) for n, p in HIGHDIM_SHAPES for seed in range(2)]
        keys += [(2, p, 100.0, seed) for p in (2, 4, 5) for seed in range(3)]
        steps = {key: _solves_alone(key) for key in keys}
        solves = []  # {n: rows} per call
        original = geometry_module.max_abs_on_ball

        def counted(coeffs, center, radius):
            solves.append({len(c): len(a) for a, c in zip(coeffs, center)})
            return original(coeffs, center, radius)

        monkeypatch.setattr(geometry_module, "max_abs_on_ball", counted)
        _lockstep_shapes(keys)
        assert len(solves) == max(steps.values())
        for n in {key[0] for key in keys}:
            mine = [k for k in keys if k[0] == n]
            calls = [call[n] for call in solves if n in call]
            assert len(calls) == max(steps[k] for k in mine)
            assert sum(calls) == sum(steps[k] * (k[1] + 1) for k in mine)
        assert max(len(call) for call in solves) == len({key[0] for key in keys})

    def test_failed_solve_lands_on_its_key(self, monkeypatch):
        # A stack the solver rejects makes the step's batched solve raise;
        # the step is solved again n by n, then key by key, so only that key
        # fails, with the error its solve alone raises, and the others, of
        # both n, go on unchanged.
        original = geometry_module._improve_shape
        bad = (2, 4, 100.0, 1)

        def poisoned(kind, n, p, lambda_max, seed):
            if (n, p, lambda_max, seed) == bad:
                yield np.full((p + 1, space_dim(2, n)), np.nan)
                raise AssertionError("a failed solve is not answered")
            return (yield from original(kind, n, p, lambda_max, seed))

        keys = [(2, p, 100.0, seed) for p in (2, 4, 5) for seed in range(3)]
        keys += [(4, 10, 5.0, seed) for seed in range(2)]
        reference = _lockstep_shapes(keys)
        monkeypatch.setattr(geometry_module, "_improve_shape", poisoned)
        ended = geometry_module._certify_shapes(keys)
        assert isinstance(ended[bad], ValueError)
        with pytest.raises(ValueError, match=str(ended[bad])):
            generate_poised_set(2, 4, 0.5, 100.0, seed=1)
        shapes = _lockstep_shapes(keys)
        assert set(shapes) == set(keys)
        failed = shapes.pop(bad)
        assert type(failed) is ValueError and str(failed) == str(ended[bad])
        for key, shape in shapes.items():
            assert np.array_equal(shape.points, reference[key].points)
            assert shape.certificate == reference[key].certificate
            assert ended[key].certificate == shape.certificate

    @pytest.mark.parametrize(
        "key",
        [(2, 2, 5.0, 0), (2, 4, 5.0, 1), (2, 5, 2.0, 2), (*HIGHDIM_SHAPES[0], 5.0, 0)],
    )
    def test_generator_alone_is_a_campaign_of_one(self, monkeypatch, key):
        # generate_poised_set certifies through the campaigns' driver: one
        # _certify_shapes call for its key, making the ball solves of its
        # loop run alone and no more.
        steps = _solves_alone(key)
        solves = []
        calls = []
        original_solve = geometry_module.max_abs_on_ball
        original_certify = geometry_module._certify_shapes

        def counted_solve(coeffs, center, radius):
            solves.append(len(coeffs))
            return original_solve(coeffs, center, radius)

        def counted_certify(keys):
            calls.append(list(keys))
            return original_certify(keys)

        monkeypatch.setattr(geometry_module, "max_abs_on_ball", counted_solve)
        monkeypatch.setattr(geometry_module, "_certify_shapes", counted_certify)
        n, p, lambda_max, seed = key
        generate_poised_set(n, p, 0.5, lambda_max, seed=seed)
        assert len(solves) == steps
        assert calls == [[key]]

    def test_keys_the_generator_rejects_are_left_to_it(self):
        # No interpolation kind for p = 6 at n = 2, and lambda_max <= 1:
        # generate_poised_set rejects both, and so does TrialConfig, so no
        # such key reaches a campaign's lockstep pass.
        for p, kind, lambda_max in ((6, "mfn", 100.0), (4, "mfn", 1.0)):
            with pytest.raises(ValueError):
                generate_poised_set(2, p, 0.1, lambda_max, seed=0)
            with pytest.raises(ValueError):
                TrialConfig("quartic", kind, 2, p, 0.1, lambda_max=lambda_max)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_poisedness_shift_invariance(seed):
    rng = np.random.default_rng(seed)
    ss = generate_poised_set(2, 4, 0.5, 25.0, seed=seed)
    shift = rng.standard_normal(2) * 10.0
    moved = SampleSet(ss.points + shift, ss.radius)
    a = lambda_poisedness(ss, PoisednessKind.MFN).lam
    b = lambda_poisedness(moved, PoisednessKind.MFN).lam
    assert np.isclose(a, b, rtol=1e-7)


@pytest.mark.parametrize(
    "kind, n, p",
    [
        (PoisednessKind.LINEAR, 2, 2),
        (PoisednessKind.QUADRATIC, 2, 5),
        (PoisednessKind.QUADRATIC, 4, 14),
        (PoisednessKind.MFN, 2, 4),
        (PoisednessKind.MFN, 6, 20),
    ],
    ids=kind_id,
)
def test_normalized_certificate_matches_pulled_back_basis(kind, n, p):
    # Sets are certified on their normalized Lagrange coefficients on the
    # unit ball; the constant, the per-point maxima and the maximizers must
    # be those of the pulled-back polynomials on the ball itself.
    from dfobounds.geometry import _lagrange_coeffs

    center = np.where(np.arange(n) % 2 == 0, 5.0, -3.0)
    delta = 1e-3
    ss = generate_poised_set(n, p, delta, 100.0, seed=1, center=center)
    cert = lambda_poisedness(ss, kind)
    values, z = max_abs_on_ball(_lagrange_coeffs(ss, kind), np.zeros(n), 1.0)
    polys = lagrange_for(ss, kind)
    ref_values, ref_args = max_abs_on_ball(
        np.array([m.coeffs() for m in polys]), ss.y0, delta
    )
    # Evaluating a pulled-back polynomial in absolute coordinates cancels
    # terms of size |x|^2 ||H|| ~ 1e7 |l_j| here, so the reference itself
    # carries the roundoff of that sum; the normalized values do not.
    terms = np.array(
        [
            abs(m.constant)
            + np.abs(m.gradient) @ np.abs(x)
            + 0.5 * np.abs(x) @ np.abs(m.hessian) @ np.abs(x)
            for m, x in zip(polys, ref_args)
        ]
    )
    tol = 1e-12 * ref_values + 16.0 * np.finfo(float).eps * terms
    assert np.all(np.abs(values - ref_values) <= tol)
    assert np.array_equal(values, np.array(cert.per_point_max))
    assert cert.lam == values.max()
    assert np.max(np.abs(ss.y0 + delta * z - ref_args)) <= 1e-9 * delta

    # Centred at the origin with radius 1 the pull-back is the identity and
    # both paths agree to roundoff.
    ss = generate_poised_set(n, p, 1.0, 100.0, seed=1)
    cert = lambda_poisedness(ss, kind)
    polys = lagrange_for(ss, kind)
    ref_values, _ = max_abs_on_ball(np.array([m.coeffs() for m in polys]), ss.y0, 1.0)
    assert np.allclose(cert.per_point_max, ref_values, rtol=1e-12, atol=0.0)
