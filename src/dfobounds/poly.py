"""Quadratic polynomials over R^n and the natural monomial basis."""

from __future__ import annotations

import functools
import numbers
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


def _nests_numbers(value, depth: int) -> bool:
    """Whether value is depth levels of lists or tuples around numbers only."""
    if depth:
        return isinstance(value, (list, tuple)) and all(
            _nests_numbers(item, depth - 1) for item in value
        )
    # A bool, such as JSON true or false, is an int but not a number here.
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _finite_array(value, depth: int, name: str) -> np.ndarray:
    """value, depth levels of lists around numbers, as a finite float array.

    A NumPy array is read as the nested lists it holds.  ValueError naming
    ``name`` (the argument, or the file or key it was read from) if value is
    anything else, has rows of different lengths, or holds NaN, an infinity
    or an integer beyond the float range.
    """
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not _nests_numbers(value, depth):
        what = ("a number", "a list of numbers", "a list of lists of numbers")[depth]
        raise ValueError(f"{name} must be {what}")
    try:
        array = np.asarray(value, dtype=float)
    except ValueError:  # NumPy rejects rows of different lengths
        raise ValueError(f"{name} has rows of different lengths") from None
    except OverflowError:  # an integer beyond the float range
        array = None
    if array is None or not np.isfinite(array).all():
        raise ValueError(f"{name} must be finite")
    return array


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


@functools.lru_cache(maxsize=None)
def _square_weights(n: int) -> np.ndarray:
    # 1/2 at each x_i^2/2 in the second-order block, 1 (which keeps every
    # bit) at each x_i x_j.  Read-only.
    rows, cols = _second_order_index(n)
    weights = np.where(rows == cols, 0.5, 1.0)
    weights.setflags(write=False)
    return weights


@functools.lru_cache(maxsize=None)
def _hessian_index(n: int) -> np.ndarray:
    """Entry (i, j) is the column of a FULL row that holds H_ij = H_ji.

    Read-only, so ``take`` gathers all n^2 Hessian entries in one pass.
    """
    rows, cols = _second_order_index(n)
    index = np.empty((n, n), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(n + 1, space_dim(2, n))
    index.setflags(write=False)
    return index


def _split_coeffs(A: np.ndarray, n: int):
    """Constants, gradients and Hessians of rows of FULL degree-2 coefficients.

    ``A`` has shape (k, q+1), or (q+1,) for one row; returns arrays of
    shapes (k,), (k, n) and (k, n, n), or (), (n,) and (n, n).  The
    coefficient of x_i^2/2 is H_ii and that of x_i x_j is H_ij = H_ji, so
    the Hessians reproduce the monomial weights.  They are one C-order
    gather, whatever the layout of ``A``.
    """
    return A[..., 0], A[..., 1 : n + 1], A.take(_hessian_index(n), axis=-1)


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
    M = np.empty((m, space_dim(2, n)))
    M[:, 0] = 1.0
    M[:, 1 : n + 1] = X
    second = M[:, n + 1 :]
    np.multiply(X.take(rows, axis=1), X.take(cols, axis=1), out=second)
    second *= _square_weights(n)
    return M


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
        return cls(n, *_split_coeffs(a, n))

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
        their polynomials back to original coordinates through it, the
        builders through its ``_pull_back`` on each row of a split stack.
        """
        o = self._check_point(offset)
        return QuadraticPolynomial(
            self.dim, *_pull_back(self.constant, self.gradient, self.hessian, o, float(scale))
        )


def _pull_back(c, g, H, offset: np.ndarray, scale: float) -> tuple:
    # The constant, gradient and Hessian of x -> m(offset + scale * x) for
    # m = (c, g, H) with H symmetric: the substitution of compose_affine.
    Ho = H @ offset
    return c + g @ offset + 0.5 * offset @ Ho, scale * (g + Ho), (scale * scale) * H
