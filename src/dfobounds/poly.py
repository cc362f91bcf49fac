"""Quadratic polynomials over R^n and the natural monomial basis."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bounds import _integer, _q

__all__ = [
    "QuadraticPolynomial",
    "space_dim",
    "basis_matrix",
]


def space_dim(degree: int, n: int) -> int:
    """Dimension of the space of polynomials of the given degree over R^n."""
    n = _integer("n", n, 1)
    if _integer("degree", degree, 1) == 1:
        return n + 1
    if degree == 2:
        return _q(n) + 1
    raise ValueError(f"degree must be 1 or 2, got {degree}")


@functools.lru_cache(maxsize=None)
def _second_order_index(n: int):
    """Row i and column j of each second-order basis function, in basis order.

    The order is x_i^2/2 then x_i x_j (j > i), i ascending: the upper
    triangle row by row.
    """
    rows, cols = np.triu_indices(n)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _split_coeffs(A: np.ndarray, n: int):
    """Constants, gradients and Hessians of rows of FULL degree-2 coefficients.

    ``A`` has shape (k, q+1); returns arrays of shapes (k,), (k, n) and
    (k, n, n).  The coefficient of x_i^2/2 is H_ii and that of x_i x_j is
    H_ij = H_ji, so the Hessians reproduce the monomial weights.
    """
    rows, cols = _second_order_index(n)
    H = np.zeros((A.shape[0], n, n))
    H[:, rows, cols] = A[:, n + 1 :]
    H[:, cols, rows] = A[:, n + 1 :]
    return A[:, 0], A[:, 1 : n + 1], H


def basis_matrix(points: np.ndarray) -> np.ndarray:
    """The FULL degree-2 natural basis at each row of ``points``.

    Row i is 1, x_1..x_n, x_1^2/2, x_1 x_2, ..., x_n^2/2 at points[i]; the
    result has shape (len(points), q+1).  Columns 0..n are the affine block
    and columns n+1.. the second-order block, which callers slice.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"points must be 2-D, got shape {X.shape}")
    m, n = X.shape
    if n < 1:
        raise ValueError("points must have at least one coordinate")
    rows, cols = _second_order_index(n)
    second = X[:, rows] * X[:, cols]
    second[:, rows == cols] *= 0.5
    return np.column_stack([np.ones(m), X, second])


@dataclass(frozen=True, eq=False)
class QuadraticPolynomial:
    """m(x) = constant + gradient . x + x^T hessian x / 2.

    The Hessian is symmetrized on construction and stored symmetrically.
    """

    dim: int
    constant: float
    gradient: np.ndarray
    hessian: np.ndarray

    def __post_init__(self) -> None:
        n = _integer("dim", self.dim, 1)
        c = float(self.constant)
        g = np.array(self.gradient, dtype=float).reshape(-1)
        H = np.array(self.hessian, dtype=float)
        if g.shape != (n,):
            raise ValueError(f"gradient must have shape ({n},), got {g.shape}")
        if H.shape != (n, n):
            raise ValueError(f"hessian must have shape ({n},{n}), got {H.shape}")
        H = 0.5 * (H + H.T)
        g.setflags(write=False)
        H.setflags(write=False)
        object.__setattr__(self, "dim", n)
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "gradient", g)
        object.__setattr__(self, "hessian", H)

    @classmethod
    def from_coeffs(cls, alpha: np.ndarray, n: int) -> "QuadraticPolynomial":
        """Build from coefficients over the FULL degree-2 basis (see _split_coeffs)."""
        a = np.asarray(alpha, dtype=float).ravel()
        expected = space_dim(2, n)
        if a.shape != (expected,):
            raise ValueError(
                f"expected {expected} coefficients for n={n}, got {a.shape[0]}"
            )
        c, g, H = _split_coeffs(a[None, :], n)
        return cls(n, c[0], g[0], H[0])

    def coeffs(self) -> np.ndarray:
        """Coefficients over the FULL degree-2 basis (inverse of from_coeffs)."""
        n = self.dim
        rows, cols = _second_order_index(n)
        return np.concatenate([[self.constant], self.gradient, self.hessian[rows, cols]])

    def _check_point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (self.dim,):
            raise ValueError(f"point must have shape ({self.dim},), got {x.shape}")
        return x

    def eval(self, x) -> float:
        x = self._check_point(x)
        return float(self.constant + self.gradient @ x + 0.5 * x @ (self.hessian @ x))

    __call__ = eval

    def grad(self, x) -> np.ndarray:
        x = self._check_point(x)
        return self.gradient + self.hessian @ x

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        HX = X @ self.hessian
        return self.constant + X @ self.gradient + 0.5 * np.einsum("ij,ij->i", X, HX)

    def grad_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        return self.gradient + X @ self.hessian

    def compose_affine(self, offset, scale: float) -> "QuadraticPolynomial":
        """Polynomial x -> self(offset + scale * x).

        Exact coefficient substitution, and the one pull-back: fits and
        Lagrange builders solve on a shifted and scaled sample set and map
        their polynomials back to original coordinates through it.
        """
        o = self._check_point(offset)
        s = float(scale)
        Ho = self.hessian @ o
        c = self.constant + self.gradient @ o + 0.5 * o @ Ho
        return QuadraticPolynomial(
            self.dim, c, s * (self.gradient + Ho), (s * s) * self.hessian
        )
