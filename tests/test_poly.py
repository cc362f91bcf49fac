import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dfobounds import QuadraticPolynomial, basis_matrix, space_dim
from dfobounds.poly import _second_order_index, _split_coeffs

from conftest import fd_gradient, random_quadratic


@pytest.mark.parametrize(
    "degree,n,expected",
    [(1, 1, 2), (1, 4, 5), (2, 1, 3), (2, 2, 6), (2, 3, 10), (2, 5, 21)],
)
def test_space_dim(degree, n, expected):
    assert space_dim(degree, n) == expected


def test_natural_basis_order_n2():
    # column order is frozen: 1, x1, x2, x1^2/2, x1*x2, x2^2/2
    x = np.array([2.0, 3.0])
    phi = basis_matrix(x[None])[0]
    assert np.allclose(phi, [1.0, 2.0, 3.0, 2.0, 6.0, 4.5])


def test_natural_basis_order_n3_cross_terms():
    # cross terms iterate as x1x2, x1x3, x2x3 between the halved squares
    x = np.array([2.0, 3.0, 5.0])
    phi = basis_matrix(x[None])[0]
    expected = [1.0, 2.0, 3.0, 5.0, 2.0, 6.0, 10.0, 4.5, 15.0, 12.5]
    assert np.allclose(phi, expected)


def test_basis_matrix_rows_match_pointwise(rng):
    pts = rng.standard_normal((7, 3))
    M = basis_matrix(pts)
    assert M.shape == (7, space_dim(2, 3))
    for i, x in enumerate(pts):
        assert np.array_equal(M[i], basis_matrix(x[None])[0])


def test_basis_matrix_rejects_bad_points():
    with pytest.raises(ValueError, match="2-D"):
        basis_matrix(np.ones(3))
    with pytest.raises(ValueError, match="at least one coordinate"):
        basis_matrix(np.ones((2, 0)))


def test_coeff_roundtrip(rng):
    for n in (1, 2, 3, 5):
        m = random_quadratic(rng, n)
        m2 = QuadraticPolynomial.from_coeffs(m.coeffs(), n)
        assert np.allclose(m2.constant, m.constant)
        assert np.allclose(m2.gradient, m.gradient)
        assert np.allclose(m2.hessian, m.hessian)


def loop_second_order(values, halve):
    # The second-order layout written out: (i, i) then (i, j) for j > i,
    # i ascending; halve scales the (i, i) entries by 1/2.
    n = values.shape[0]
    out = []
    for i in range(n):
        out.append(0.5 * values[i, i] if halve else values[i, i])
        out.extend(values[i, j] for j in range(i + 1, n))
    return out


def test_coefficient_layout_matches_loop_reference(rng):
    for n in (1, 2, 3, 6):
        m = random_quadratic(rng, n)
        reference = [m.constant, *m.gradient, *loop_second_order(m.hessian, False)]
        assert np.array_equal(m.coeffs(), reference)
        a = rng.standard_normal(space_dim(2, n))
        rebuilt = QuadraticPolynomial.from_coeffs(a, n)
        assert np.array_equal(rebuilt.coeffs(), a)
        assert np.array_equal(rebuilt.hessian, rebuilt.hessian.T)
        X = rng.standard_normal((4, n))
        rows = [[1.0, *x, *loop_second_order(np.outer(x, x), True)] for x in X]
        assert np.array_equal(basis_matrix(X), rows)


@pytest.mark.parametrize("n", range(1, 9))
def test_split_coeffs_matches_scatter(rng, n):
    # The Hessians are one C-order gather whose bits are those of the
    # zeros-plus-scatter form, for C-ordered rows and for transposed ones
    # (a Lagrange stack is the transpose of its solve).
    rows, cols = _second_order_index(n)
    for k in (1, 5, 31):
        B = rng.standard_normal((space_dim(2, n), k))
        for A in (np.ascontiguousarray(B.T), B.T):
            H = np.zeros((k, n, n))
            H[:, rows, cols] = A[:, n + 1 :]
            H[:, cols, rows] = A[:, n + 1 :]
            c, g, split = _split_coeffs(A, n)
            assert split.flags.c_contiguous
            assert np.array_equal(split, H)
            assert np.array_equal(c, A[:, 0]) and np.array_equal(g, A[:, 1 : n + 1])


@pytest.mark.parametrize("n", range(1, 9))
def test_basis_matrix_matches_column_stack(rng, n):
    # The basis written into one array has the bits of the stacked blocks.
    rows, cols = _second_order_index(n)
    X = rng.standard_normal((7, n))
    second = X[:, rows] * X[:, cols]
    second[:, rows == cols] *= 0.5
    assert np.array_equal(basis_matrix(X), np.column_stack([np.ones(7), X, second]))


def test_eval_equals_coeff_dot_basis(rng):
    # the two evaluation routes (c + g.x + x'Hx/2 versus coeffs . basis)
    # must agree, pinning the coefficient <-> Hessian mapping
    for n in (1, 2, 4):
        m = random_quadratic(rng, n)
        for _ in range(10):
            x = rng.standard_normal(n)
            assert np.isclose(m(x), float(m.coeffs() @ basis_matrix(x[None])[0]))


def test_halved_square_convention():
    # the coefficient of x_i^2/2 is H_ii itself
    m = QuadraticPolynomial.from_coeffs(np.array([0.0, 0.0, 0.0, 4.0, 0.0, 0.0]), 2)
    assert np.isclose(m.hessian[0, 0], 4.0)
    assert np.isclose(m(np.array([1.0, 0.0])), 2.0)


def test_asymmetric_hessian_is_symmetrized():
    m = QuadraticPolynomial(2, 0.0, np.zeros(2), np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert np.allclose(m.hessian, [[0.0, 1.0], [1.0, 0.0]])
    assert np.isclose(m(np.array([1.0, 1.0])), 1.0)


def test_arrays_read_only(rng):
    m = random_quadratic(rng, 2)
    with pytest.raises(ValueError):
        m.gradient[0] = 1.0
    with pytest.raises(ValueError):
        m.hessian[0, 0] = 1.0


def test_batch_eval_matches_scalar(rng):
    m = random_quadratic(rng, 3)
    X = rng.standard_normal((20, 3))
    assert np.allclose(m.eval_batch(X), [m(x) for x in X])
    G = m.grad_batch(X)
    for i, x in enumerate(X):
        assert np.allclose(G[i], m.grad(x))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4))
def test_gradient_finite_difference(seed, n):
    rng = np.random.default_rng(seed)
    m = random_quadratic(rng, n)
    x = rng.standard_normal(n)
    fd = fd_gradient(m, x)
    assert np.allclose(m.grad(x), fd, atol=1e-5, rtol=1e-5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_compose_affine_pointwise(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    m = random_quadratic(rng, n)
    offset = rng.standard_normal(n)
    scale = float(rng.uniform(0.1, 3.0))
    composed = m.compose_affine(offset, scale)
    for _ in range(5):
        x = rng.standard_normal(n)
        assert np.isclose(composed(x), m(offset + scale * x), rtol=1e-10, atol=1e-10)


def test_compose_affine_roundtrip(rng):
    m = random_quadratic(rng, 3)
    offset = rng.standard_normal(3)
    scale = 0.25
    back = m.compose_affine(offset, scale).compose_affine(-offset / scale, 1.0 / scale)
    assert np.allclose(back.coeffs(), m.coeffs(), atol=1e-12)


def test_dimension_mismatch_raises(rng):
    m = random_quadratic(rng, 2)
    with pytest.raises(ValueError):
        m(np.ones(3))
