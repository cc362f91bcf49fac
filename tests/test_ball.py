import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfobounds import (
    ModelKind,
    QuadraticPolynomial,
    extremize_batch,
    extremize_on_ball,
    generate_poised_set,
    grid_oracle,
    lipschitz_on_ball,
    max_abs_on_ball,
    space_dim,
)
from dfobounds.bounds import _kind_for_shape
from dfobounds.geometry import _lagrange_coeffs

import dfobounds.ball as ball_module
import dfobounds.geometry as geometry_module

from conftest import random_quadratic


def affine(n, c, g):
    return QuadraticPolynomial(n, c, np.asarray(g, float), np.zeros((n, n)))


def test_affine_witness_value():
    # max |1 - x1 - x2| over the unit ball is 1 + sqrt(2), attained at
    # -(sqrt(2)/2, sqrt(2)/2)
    m = affine(2, 1.0, [-1.0, -1.0])
    value, arg = max_abs_on_ball(m, np.zeros(2), 1.0)
    assert np.isclose(value, 1.0 + np.sqrt(2.0), atol=1e-10)
    assert np.allclose(arg, [-np.sqrt(0.5), -np.sqrt(0.5)], atol=1e-8)


def test_affine_witness_grid():
    m = affine(2, 1.0, [-1.0, -1.0])
    value, _ = grid_oracle(m, np.zeros(2), 1.0, 1e-3)
    assert abs(value - (1.0 + np.sqrt(2.0))) <= 1e-3


def _affine_stack(rng, k, n):
    # Rows c + g.x with c > 0 and ||g|| from 1e-12 to 1e3, except that row 0
    # has g = 0 and row 1 a g whose squares underflow.
    g = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-12, 3, size=(k, 1))
    g[0] = 0.0
    g[1] *= 1e-200 / np.abs(g[1]).max()
    c = np.abs(rng.standard_normal(k))
    A = np.zeros((k, space_dim(2, n)))
    A[:, 0], A[:, 1 : n + 1] = c, g
    return A, c, g


def test_affine_stack_takes_no_eigendecomposition(monkeypatch, rng):
    calls = []
    real = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    for n in (1, 3, 8):
        A, _, g = _affine_stack(rng, 9, n)
        max_abs_on_ball(A, np.zeros(n), 0.5)
        extremize_on_ball(A, rng.standard_normal(n), 2.0)
        extremize_batch(g, np.zeros((9, n, n)), 0.5)
    assert calls == []
    # One curved row brings the eigendecomposition back, for that row alone.
    A[3, -1] = 1.0
    max_abs_on_ball(A, np.zeros(8), 0.5)
    assert [a[0].shape for a in calls] == [(1, 8, 8)]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_affine_rows_in_closed_form(rng, n):
    # Each value is |c + g.center| + r ||g||, at center +- r g / ||g||; the
    # center of every row lies in the orthant of g, so no term cancels.
    A, c, g = _affine_stack(rng, 40, n)
    top = np.abs(g[1:]).max(axis=1, keepdims=True)
    unit = (g[1:] / top) / np.linalg.norm(g[1:] / top, axis=1, keepdims=True)
    for r in 10.0 ** rng.uniform(-3, 3, size=4):
        center = np.abs(rng.standard_normal((40, n))) * np.sign(g)
        for i in range(40):
            ext = extremize_on_ball(A[i : i + 1], center[i], r)
            assert ext.solver_residual <= 1e-15
            expected = c[i] + g[i] @ center[i] + r * (g[i] @ unit[i - 1] if i else 0.0)
            assert abs(ext.max_value[0] - expected) <= 4.0 * np.spacing(expected)
            if i == 0:
                # g = 0: the center, at |c|.
                value, arg = max_abs_on_ball(A[:1], center[0], r)
                assert arg[0].tobytes() == center[0].tobytes() and value[0] == c[0]
                continue
            tol = 4.0 * np.finfo(float).eps * (np.abs(center[i]) + r)
            assert np.all(np.abs(ext.argmax[0] - (center[i] + r * unit[i - 1])) <= tol)
            assert np.all(np.abs(ext.argmin[0] - (center[i] - r * unit[i - 1])) <= tol)


def test_affine_row_same_in_batch_and_on_ball(rng):
    n, r = 4, 0.8
    A, _, g = _affine_stack(rng, 12, n)
    center = rng.standard_normal(n)
    ext = extremize_on_ball(A, center, r)
    low = extremize_batch(g, np.zeros((12, n, n)), r)
    high = extremize_batch(-g, np.zeros((12, n, n)), r)
    assert np.array_equal(ext.argmin, center + low.z)
    assert np.array_equal(ext.argmax, center + high.z)
    for sol in (low, high):
        assert np.all(sol.mu == low.mu)
        assert np.allclose(np.linalg.norm(sol.z[1:], axis=1), r, rtol=4e-16, atol=0.0)
        assert np.all(sol.complementarity <= 1e-15) and np.all(sol.stationarity <= 1e-15)
    # An affine row in a stack of curved rows gives the same answer.
    mixed = np.vstack([A[:1], rng.standard_normal((3, A.shape[1])), A[1:]])
    both = extremize_on_ball(mixed, center, r)
    keep = [0] + list(range(4, 15))
    assert np.array_equal(both.argmin[keep], ext.argmin)
    assert np.array_equal(both.max_value[keep], ext.max_value)


def test_pure_quadratic_indefinite():
    # x'Hx/2 with H = diag(2, -4): max 1 at +-e1, min -2 at +-e2
    m = QuadraticPolynomial(2, 0.0, np.zeros(2), np.diag([2.0, -4.0]))
    ext = extremize_on_ball(m, np.zeros(2), 1.0)
    assert np.isclose(ext.max_value, 1.0, atol=1e-10)
    assert np.isclose(ext.min_value, -2.0, atol=1e-10)
    assert np.isclose(abs(ext.argmax[0]), 1.0, atol=1e-8)
    assert np.isclose(abs(ext.argmin[1]), 1.0, atol=1e-8)


def test_interior_maximum():
    # 1 - |x|^2 peaks at the center, strictly inside the ball
    m = QuadraticPolynomial(2, 1.0, np.zeros(2), -2.0 * np.eye(2))
    ext = extremize_on_ball(m, np.zeros(2), 1.0)
    assert np.isclose(ext.max_value, 1.0, atol=1e-12)
    assert np.allclose(ext.argmax, 0.0, atol=1e-8)
    assert np.isclose(ext.min_value, 0.0, atol=1e-10)


def test_lexicographic_tie_break():
    # x1^2 has two antipodal maxima; the tie resolves to the smaller one
    m = QuadraticPolynomial(2, 0.0, np.zeros(2), np.diag([2.0, 0.0]))
    _, arg = max_abs_on_ball(m, np.zeros(2), 1.0)
    assert np.allclose(arg, [-1.0, 0.0], atol=1e-8)


def test_shift_and_scale_invariance(rng):
    m = random_quadratic(rng, 3)
    center = rng.standard_normal(3)
    radius = 0.7
    direct, _ = max_abs_on_ball(m, center, radius)
    normalized, _ = max_abs_on_ball(
        m.compose_affine(center, radius), np.zeros(3), 1.0
    )
    assert np.isclose(direct, normalized, rtol=1e-10)


def test_residual_reported_small(rng):
    for _ in range(20):
        n = int(rng.integers(1, 5))
        m = random_quadratic(rng, n)
        ext = extremize_on_ball(m, rng.standard_normal(n), float(rng.uniform(0.2, 2.0)))
        assert ext.solver_residual <= 1e-10
        assert ext.max_value >= ext.min_value


def test_max_dominates_grid(rng):
    for _ in range(10):
        n = int(rng.integers(1, 4))
        m = random_quadratic(rng, n)
        center = rng.standard_normal(n) * 0.3
        value, arg = max_abs_on_ball(m, center, 1.0)
        gvalue, garg = grid_oracle(m, center, 1.0, 0.05)
        lip = lipschitz_on_ball(m, center, 1.0)
        assert gvalue <= value + 1e-9 * max(1.0, value)
        assert value - gvalue <= lip * 0.05
        assert np.linalg.norm(garg - center) <= 1.0 + 1e-6


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(1, 3))
def test_extremum_never_beaten_by_samples(seed, n):
    # no sampled point of the ball may exceed the reported extremes
    rng = np.random.default_rng(seed)
    m = random_quadratic(rng, n)
    center = rng.standard_normal(n)
    radius = float(rng.uniform(0.3, 2.0))
    ext = extremize_on_ball(m, center, radius)
    z = rng.standard_normal((256, n))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    z *= rng.uniform(0.0, 1.0, size=(256, 1)) ** (1.0 / n)
    vals = m.eval_batch(center + radius * z)
    slack = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
    assert np.max(vals) <= ext.max_value + slack
    assert np.min(vals) >= ext.min_value - slack


def test_extremes_on_argument_points(rng):
    # reported values must be attained by the reported arguments
    for _ in range(10):
        n = int(rng.integers(1, 5))
        m = random_quadratic(rng, n)
        center = rng.standard_normal(n)
        radius = float(rng.uniform(0.2, 1.5))
        ext = extremize_on_ball(m, center, radius)
        assert np.isclose(m(ext.argmax), ext.max_value, rtol=1e-12, atol=1e-12)
        assert np.isclose(m(ext.argmin), ext.min_value, rtol=1e-12, atol=1e-12)
        assert np.linalg.norm(ext.argmax - center) <= radius * (1.0 + 1e-9)
        assert np.linalg.norm(ext.argmin - center) <= radius * (1.0 + 1e-9)


def test_lipschitz_affine_exact():
    m = affine(3, 0.5, [3.0, 0.0, -4.0])
    assert np.isclose(lipschitz_on_ball(m, np.zeros(3), 2.0), 5.0)


def test_grid_oracle_guards():
    m = affine(5, 0.0, np.zeros(5))
    with pytest.raises(ValueError):
        grid_oracle(m, np.zeros(5), 1.0, 0.1)
    m2 = affine(4, 0.0, np.zeros(4))
    with pytest.raises(ValueError):
        grid_oracle(m2, np.zeros(4), 1.0, 1e-4)


def test_bad_radius_raises():
    m = affine(2, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        extremize_on_ball(m, np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        extremize_on_ball(m, np.zeros(2), -1.0)
    with pytest.raises(ValueError):
        grid_oracle(m, np.zeros(2), 1.0, -0.5)


def test_constant_polynomial():
    m = QuadraticPolynomial(2, 3.0, np.zeros(2), np.zeros((2, 2)))
    ext = extremize_on_ball(m, np.ones(2), 1.0)
    assert ext.max_value == ext.min_value == 3.0
    value, _ = max_abs_on_ball(m, np.ones(2), 1.0)
    assert value == 3.0


def ball_samples(rng, n, count):
    z = rng.standard_normal((count, n))
    z /= np.maximum(np.linalg.norm(z, axis=1, keepdims=True), 1e-12)
    return z * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / n)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 4),
    repeated=st.booleans(),
    log_component=st.floats(-16.0, -6.0),
    flip=st.booleans(),
)
def test_near_hard_case_certified_and_unbeaten(seed, n, repeated, log_component, flip):
    # A gradient component of 1e-16..1e-6 on the lowest eigenspace puts the
    # boundary multiplier within roundoff of the pole at -lambda_min.
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = np.sort(2.0 * rng.standard_normal(n))
    mult = 2 if repeated else 1
    w[:mult] = w[0]
    H = Q @ np.diag(w) @ Q.T
    E = Q[:, :mult]
    g = rng.standard_normal(n)
    g -= E @ (E.T @ g)
    u = rng.standard_normal(mult)
    g += 10.0**log_component * (E @ (u / np.linalg.norm(u)))
    center = rng.standard_normal(n)
    radius = float(rng.uniform(0.3, 2.0))
    c = float(rng.standard_normal())
    s = -1.0 if flip else 1.0  # -1 puts the near-hard case on the max side
    m = QuadraticPolynomial(n, s * c, s * (g - H @ center), s * H)
    ext = extremize_on_ball(m, center, radius)
    assert ext.solver_residual <= 1e-10
    vals = m.eval_batch(center + radius * ball_samples(rng, n, 20_000))
    slack = 1e-9 * max(1.0, float(np.max(np.abs(vals))))
    assert np.max(vals) <= ext.max_value + slack
    assert np.min(vals) >= ext.min_value - slack


def test_batch_matches_single_solves(rng):
    for n in (1, 2, 5):
        polys = [random_quadratic(rng, n) for _ in range(7)]
        polys.append(affine(n, 0.0, np.ones(n)))  # |max| = |min|: a tie
        center = rng.standard_normal(n)
        coeffs = np.array([m.coeffs() for m in polys])
        values, args = max_abs_on_ball(coeffs, center, 0.8)
        for m, value, arg in zip(polys, values, args):
            single, single_arg = max_abs_on_ball(m, center, 0.8)
            assert np.isclose(value, single, rtol=1e-12, atol=1e-12)
            assert np.allclose(arg, single_arg, atol=1e-10)
    assert np.allclose(args[-1], -np.ones(n) / np.sqrt(n) * 0.8 + center)


def test_batch_certificate_fields(rng):
    n, k, radius = 4, 9, 1.3
    G = rng.standard_normal((k, n))
    B = rng.standard_normal((k, n, n))
    H = B + np.transpose(B, (0, 2, 1))
    sol = extremize_batch(G, H, radius)
    assert sol.z.shape == (k, n) and sol.mu.shape == (k,)
    assert np.all(np.linalg.norm(sol.z, axis=1) <= radius * (1.0 + 1e-12))
    lam_min = np.linalg.eigvalsh(H)[:, 0]
    assert np.all(sol.mu >= np.maximum(0.0, -lam_min) - 1e-10)
    assert np.all(sol.complementarity <= 1e-10)
    assert np.all(sol.stationarity <= 1e-10)


def test_batch_bad_input_raises():
    with pytest.raises(ValueError):
        extremize_batch(np.zeros((2, 3)), np.zeros((2, 3, 2)), 1.0)
    with pytest.raises(ValueError):
        extremize_batch(np.zeros((1, 2)), np.zeros((1, 2, 2)), 0.0)
    with pytest.raises(ValueError):
        extremize_batch(np.full((1, 2), np.nan), np.zeros((1, 2, 2)), 1.0)


def test_coefficient_array_matches_polynomials(rng):
    # A row of a (k, q+1) array of FULL-basis coefficients solves as the
    # polynomial built from it, which the solver reads as its coefficient
    # row; each value is |m| at its argument and beats every sampled point.
    for n in (1, 3, 6):
        polys = [random_quadratic(rng, n) for _ in range(5)]
        coeffs = np.array([m.coeffs() for m in polys])
        center = rng.standard_normal(n)
        values, args = max_abs_on_ball(coeffs, center, 0.7)
        for m, value, arg in zip(polys, values, args):
            ref_value, ref_arg = max_abs_on_ball(m, center, 0.7)
            assert value == ref_value
            assert np.array_equal(arg, ref_arg)
        samples = center + 0.7 * ball_samples(rng, n, 2000)
        for m, value, arg in zip(polys, values, args):
            assert np.isclose(value, abs(m(arg)), rtol=1e-12, atol=1e-12)
            assert np.max(np.abs(m.eval_batch(samples))) <= value * (1.0 + 1e-9)


def test_coefficient_array_bad_shape_raises():
    with pytest.raises(ValueError):
        max_abs_on_ball(np.zeros((2, 5)), np.zeros(2), 1.0)  # q+1 = 6 at n = 2
    with pytest.raises(ValueError):
        max_abs_on_ball(np.zeros(6), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        max_abs_on_ball(np.zeros((0, 6)), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        max_abs_on_ball(np.full((1, 6), np.inf), np.zeros(2), 1.0)


@pytest.mark.parametrize("n, k", [(1, 4), (4, 15), (8, 31)])
def test_shared_eigh_matches_separate_solves(rng, n, k):
    # extremize_on_ball takes eigh(-H) from eigh(H); extremize_batch on the
    # stacked [H; -H] decomposes both halves itself.
    polys = [random_quadratic(rng, n) for _ in range(k)]
    polys.append(QuadraticPolynomial(n, 0.0, rng.standard_normal(n), np.eye(n)))
    center, radius = rng.standard_normal(n), 0.9
    ext = extremize_on_ball(np.array([m.coeffs() for m in polys]), center, radius)
    G = np.array([m.grad(center) for m in polys])
    H = np.array([m.hessian for m in polys])
    sol = extremize_batch(np.vstack([G, -G]), np.concatenate([H, -H]), radius)
    X = center + sol.z
    values = np.array([m(x) for m, x in zip(polys + polys, X)])
    m = len(polys)
    scale = np.maximum(1.0, np.abs(values))
    assert np.all(np.abs(ext.min_value - values[:m]) <= 1e-12 * scale[:m])
    assert np.all(np.abs(ext.max_value - values[m:]) <= 1e-12 * scale[m:])
    assert np.allclose(ext.argmin, X[:m], rtol=0.0, atol=1e-12)
    assert np.allclose(ext.argmax, X[m:], rtol=0.0, atol=1e-12)


@functools.lru_cache(maxsize=None)
def _lagrange_rows(n):
    # Real Lagrange stacks of dimension n, every kind n admits (QUAD_DET for
    # n <= 3 only, to keep the sets small), and each row's solve alone.
    q = space_dim(2, n) - 1
    shapes = [n, q] if n <= 3 else [n]
    if n >= 2:
        shapes.append((n + q) // 2)
    A = np.vstack(
        [
            _lagrange_coeffs(generate_poised_set(n, p, 1.0, 50.0, seed=n), _kind_for_shape(n, p))
            for p in shapes
        ]
    )
    alone = [max_abs_on_ball(A[j : j + 1], np.zeros(n), 1.0) for j in range(len(A))]
    return A, alone


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_row_result_independent_of_stack_and_layout(n, data):
    # A row gives the same bits alone, in any subset of rows and in C or
    # Fortran order (Lagrange stacks are transposed views).
    A, alone = _lagrange_rows(n)
    rows = data.draw(st.lists(st.integers(0, len(A) - 1), min_size=1, max_size=len(A)))
    order = data.draw(st.sampled_from("CF"))
    stack = np.asarray(A[rows], order=order)
    values, args = max_abs_on_ball(stack, np.zeros(n), 1.0)
    for i, j in enumerate(rows):
        assert values[i].tobytes() == alone[j][0][0].tobytes()
        assert args[i].tobytes() == alone[j][1][0].tobytes()


def test_fortran_stack_row_matches_row_alone():
    # Row 6 of this MFN stack, a Fortran-ordered view, once came out 1 ulp
    # off its solve alone.
    ss = generate_poised_set(3, 7, 1.0, 8.0, seed=5, center=np.full(3, 0.25))
    A = _lagrange_coeffs(ss, ModelKind.MFN)
    assert A.flags.f_contiguous and not A.flags.c_contiguous
    values, args = max_abs_on_ball(A, np.zeros(3), 1.0)
    for j in range(len(A)):
        value, arg = max_abs_on_ball(A[j : j + 1], np.zeros(3), 1.0)
        assert value[0].tobytes() == values[j].tobytes()
        assert arg[0].tobytes() == args[j].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    dims=st.lists(st.integers(1, 8), min_size=2, max_size=3, unique=True), data=st.data()
)
def test_mixed_n_call_equals_each_stack_alone(dims, data):
    # Stacks of 2-3 dimensions in one call, as a list with a list of
    # centers: each stack gets the bits it gets alone, and the residual is
    # the largest of theirs.
    stacks = []
    for n in dims:
        A, _ = _lagrange_rows(n)
        rows = data.draw(st.lists(st.integers(0, len(A) - 1), min_size=1, max_size=len(A)))
        stacks.append(np.asarray(A[rows], order=data.draw(st.sampled_from("CF"))))
    centers = [np.zeros(n) for n in dims]
    values, args = max_abs_on_ball(stacks, centers, 1.0)
    assert len(values) == len(args) == len(dims)
    for stack, center, v, a in zip(stacks, centers, values, args):
        alone_values, alone_args = max_abs_on_ball(stack, center, 1.0)
        assert v.tobytes() == alone_values.tobytes()
        assert a.tobytes() == alone_args.tobytes()
    ext = extremize_on_ball(stacks, centers, 1.0)
    residuals = [extremize_on_ball(s, c, 1.0).solver_residual for s, c in zip(stacks, centers)]
    assert ext.solver_residual == max(residuals)


def test_mixed_n_full_stacks_equal_each_stack_alone():
    # Every pair of n in 1..8, whole stacks: a sum over padded components
    # would change rows of the (7, 8) pair, since NumPy sums 8 or more
    # terms pairwise and fewer in order.
    for low in range(1, 9):
        for high in range(low + 1, 9):
            stacks = [_lagrange_rows(low)[0], _lagrange_rows(high)[0]]
            centers = [np.zeros(low), np.zeros(high)]
            values, args = max_abs_on_ball(stacks, centers, 1.0)
            for stack, center, v, a in zip(stacks, centers, values, args):
                alone_values, alone_args = max_abs_on_ball(stack, center, 1.0)
                assert v.tobytes() == alone_values.tobytes(), (low, high)
                assert a.tobytes() == alone_args.tobytes(), (low, high)


def test_mixed_n_call_needs_a_center_per_stack():
    stacks = [_lagrange_rows(2)[0], _lagrange_rows(3)[0]]
    for centers in (np.zeros(2), [np.zeros(2)], (np.zeros(2), np.zeros(3))):
        with pytest.raises(ValueError, match="need a list of 2 centers"):
            max_abs_on_ball(stacks, centers, 1.0)


def test_mixed_n_nan_stack_fails_alone():
    # A NaN row in the n = 4 stack makes the call of every n raise; the
    # driver's fallback solves each stack alone, so only that stack fails,
    # with the error it raises alone, and the other stacks keep their bits.
    dims = (2, 4, 7)
    stacks = [_lagrange_rows(n)[0] for n in dims]
    bad = stacks[1] = stacks[1].copy()
    bad[1, 3] = np.nan
    with pytest.raises(ValueError):
        max_abs_on_ball(stacks, [np.zeros(n) for n in dims], 1.0)
    solved = geometry_module._solve_stacks(stacks, max_abs_on_ball)
    with pytest.raises(ValueError) as alone:
        max_abs_on_ball(bad, np.zeros(4), 1.0)
    failed = solved.pop(1)
    assert type(failed) is ValueError and str(failed) == str(alone.value)
    for n, stack, (values, args) in zip((2, 7), (stacks[0], stacks[2]), solved):
        alone_values, alone_args = max_abs_on_ball(stack, np.zeros(n), 1.0)
        assert values.tobytes() == alone_values.tobytes()
        assert args.tobytes() == alone_args.tobytes()


def test_solve_stacks_interleaved_dimensions():
    # Stacks of n = 2, 4, 2, 4 with different row counts: one call holds
    # each n's rows in order, and each reply is its stack's alone, in the
    # input order.
    two, four = _lagrange_rows(2)[0], _lagrange_rows(4)[0]
    stacks = [two[:3], four[:5], two[3:4], four[5:12]]
    dims = [2, 4, 2, 4]
    calls = []

    def counted(coeffs, centers, radius):
        calls.append([(len(c), len(a)) for a, c in zip(coeffs, centers)])
        return max_abs_on_ball(coeffs, centers, radius)

    solved = geometry_module._solve_stacks(stacks, counted)
    assert calls == [[(2, 4), (4, 12)]]
    assert len(solved) == len(stacks)
    for stack, n, (values, args) in zip(stacks, dims, solved):
        alone_values, alone_args = max_abs_on_ball(stack, np.zeros(n), 1.0)
        assert values.tobytes() == alone_values.tobytes()
        assert args.tobytes() == alone_args.tobytes()


def test_solve_stacks_failed_call_falls_back_per_stack():
    # One NaN stack makes the merged call raise; each stack is then solved
    # alone, so only that stack gets its ValueError.
    two, four = _lagrange_rows(2)[0], _lagrange_rows(4)[0]
    bad = four[5:12].copy()
    bad[2, 0] = np.nan
    stacks = [two[:3], four[:5], two[3:4], bad]
    dims = [2, 4, 2, 4]
    calls = []

    def counted(coeffs, centers, radius):
        calls.append([len(a) for a in coeffs])
        return max_abs_on_ball(coeffs, centers, radius)

    solved = geometry_module._solve_stacks(stacks, counted)
    assert calls == [[4, 12], [3], [5], [1], [7]]
    with pytest.raises(ValueError) as alone:
        max_abs_on_ball(bad, np.zeros(4), 1.0)
    failed = solved.pop()
    assert type(failed) is ValueError and str(failed) == str(alone.value)
    for stack, n, (values, args) in zip(stacks, dims, solved):
        alone_values, alone_args = max_abs_on_ball(stack, np.zeros(n), 1.0)
        assert values.tobytes() == alone_values.tobytes()
        assert args.tobytes() == alone_args.tobytes()


@pytest.mark.parametrize("solver", [max_abs_on_ball, extremize_on_ball])
def test_empty_list_needs_a_stack(solver):
    # An empty list is a list of stacks, with none in it.
    with pytest.raises(ValueError, match="need at least one stack, got an empty list"):
        solver([], [], 1.0)


def test_uncertified_row_is_named_as_the_caller_counts_it(monkeypatch):
    # With no residual small enough, the first curved row raises.  Its name
    # counts the caller's rows, affine ones included, then the maximization
    # rows after the k minimization rows, and in a list call names the
    # stack.
    A = _lagrange_rows(3)[0][4:8].copy()  # four rows of a fully quadratic set
    assert np.all(A[:, 4:].any(axis=1))
    A[0, 4:] = 0.0  # an affine row, solved in closed form
    affine = np.zeros((2, space_dim(2, 2)))
    affine[:, 1] = 1.0
    monkeypatch.setattr(ball_module, "_TOL", -1.0)
    with pytest.raises(RuntimeError, match="certifies for item 1: "):
        extremize_on_ball(A, np.zeros(3), 1.0)
    with pytest.raises(RuntimeError, match="certifies for item 1 of stack 1: "):
        max_abs_on_ball([affine, A], [np.zeros(2), np.zeros(3)], 1.0)
    B = A.copy()
    B[:, 4:] = 0.0
    B[3] = A[3]
    # Rows 0-2 of B are affine, so the first curved row is row 3's minimum.
    with pytest.raises(RuntimeError, match="certifies for item 3 of stack 0: "):
        extremize_on_ball([B, A], [np.zeros(3), np.zeros(3)], 1.0)
