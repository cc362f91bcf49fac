"""Fit interpolation models to sampled values, exactly or with relaxation."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .geometry import (
    COND_THRESHOLD,
    NotPoisedError,
    SampleSet,
    _checked_mfn_system,
    _pullback,
    lagrange_determined,
    lagrange_mfn,
    normalized_points,
)
from .poly import (
    BasisPart,
    BasisSelector,
    QuadraticPolynomial,
    basis_matrix,
    space_dim,
    weighted_sum,
)

__all__ = [
    "ModelKind",
    "RelaxationSpec",
    "RelaxationError",
    "FitResult",
    "fit_model",
    "fit_relaxed",
    "interpolation_residual",
]


class ModelKind(Enum):
    LIN_DET = "lin_det"
    QUAD_DET = "quad_det"
    MFN = "mfn"


class RelaxationError(ValueError):
    """A supplied relaxed value leaves the kappa delta^2 envelope."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = int(index)


@dataclass(frozen=True)
class RelaxationSpec:
    """How to relax the interpolation conditions.

    Explicit ``gamma`` values are validated against the envelope
    |gamma_j - f(y_j)| <= kappa delta^2; otherwise gamma is sampled
    uniformly from that envelope with ``noise_seed``.
    """

    kappa: float
    gamma: Optional[np.ndarray] = None
    noise_seed: Optional[int] = None

    def __post_init__(self) -> None:
        kappa = float(self.kappa)
        if not np.isfinite(kappa) or kappa < 0.0:
            raise ValueError(f"kappa must be finite and nonnegative, got {kappa}")
        object.__setattr__(self, "kappa", kappa)
        if self.gamma is not None:
            g = np.asarray(self.gamma, dtype=float).ravel()
            if not np.all(np.isfinite(g)):
                raise ValueError("gamma values must be finite")
            object.__setattr__(self, "gamma", g)


@dataclass(frozen=True)
class FitResult:
    """Fitted model, worst re-substitution residual, condition estimate."""

    model: QuadraticPolynomial
    residual: float
    condition: float


def _check_values(sample_set: SampleSet, values) -> np.ndarray:
    v = np.asarray(values, dtype=float).ravel()
    if v.shape != (sample_set.p + 1,):
        raise ValueError(
            f"expected {sample_set.p + 1} values, got {v.shape[0]}"
        )
    if not np.all(np.isfinite(v)):
        raise ValueError("values must be finite")
    return v


def _check_shape(kind: ModelKind, sample_set: SampleSet) -> None:
    n, p = sample_set.n, sample_set.p
    q = space_dim(2, n) - 1
    if kind is ModelKind.LIN_DET and p != n:
        raise ValueError(f"LIN_DET needs p = n, got p={p}, n={n}")
    if kind is ModelKind.QUAD_DET and p != q:
        raise ValueError(f"QUAD_DET needs p = q = {q}, got p={p}")
    if kind is ModelKind.MFN and not (n < p < q):
        raise ValueError(f"MFN needs n < p < q, got n={n}, p={p}, q={q}")


def interpolation_residual(
    model: QuadraticPolynomial, sample_set: SampleSet, values
) -> float:
    """max_j |model(y_j) - values_j|."""
    v = _check_values(sample_set, values)
    fitted = model.eval_batch(sample_set.points)
    return float(np.max(np.abs(fitted - v)))


def fit_model(kind: ModelKind, sample_set: SampleSet, values) -> FitResult:
    """Interpolate the values exactly with the requested model kind.

    Determined kinds solve the square basis system; MFN minimizes the
    Euclidean norm of the second-order coefficients subject to the
    interpolation conditions, through one factorization of the saddle
    system.  All solves run on the shifted/scaled set.
    """
    _check_shape(kind, sample_set)
    v = _check_values(sample_set, values)
    n = sample_set.n
    Yh = normalized_points(sample_set)

    if kind in (ModelKind.LIN_DET, ModelKind.QUAD_DET):
        degree = 1 if kind is ModelKind.LIN_DET else 2
        M = basis_matrix(BasisSelector(degree, BasisPart.FULL), Yh)
        cond = float(np.linalg.cond(M))
        if not np.isfinite(cond) or cond > COND_THRESHOLD:
            raise NotPoisedError(
                f"interpolation system condition {cond:.3e} exceeds "
                f"{COND_THRESHOLD:.1e}",
                condition=cond,
            )
        alpha = np.linalg.solve(M, v)
        if kind is ModelKind.LIN_DET:
            model_hat = QuadraticPolynomial(
                n, float(alpha[0]), alpha[1:].copy(), np.zeros((n, n))
            )
        else:
            model_hat = QuadraticPolynomial.from_coeffs(alpha, n)
    else:
        Ml, Mq, F, cond = _checked_mfn_system(sample_set)
        rhs = np.concatenate([v, np.zeros(n + 1)])
        sol = np.linalg.solve(F, rhs)
        mult = sol[: sample_set.p + 1]
        alpha_lin = sol[sample_set.p + 1 :]
        alpha_quad = Mq.T @ mult
        model_hat = QuadraticPolynomial.from_coeffs(
            np.concatenate([alpha_lin, alpha_quad]), n
        )

    model = _pullback(model_hat, sample_set)
    return FitResult(
        model=model,
        residual=interpolation_residual(model, sample_set, v),
        condition=cond,
    )


def _lagrange_basis(kind: ModelKind, sample_set: SampleSet):
    if kind is ModelKind.LIN_DET:
        return lagrange_determined(sample_set, 1)
    if kind is ModelKind.QUAD_DET:
        return lagrange_determined(sample_set, 2)
    return lagrange_mfn(sample_set)


def fit_relaxed(
    kind: ModelKind, sample_set: SampleSet, values, spec: RelaxationSpec
) -> FitResult:
    """Fit a model interpolating relaxed values gamma.

    The model is the Lagrange expansion sum_j gamma_j l_j.  Explicit gamma
    values are validated against the envelope; otherwise gamma is drawn
    uniformly from [values_j - kappa delta^2, values_j + kappa delta^2]
    seeded by ``spec.noise_seed``.  The residual is measured against the
    original values, so it is at most kappa delta^2 up to roundoff.
    """
    _check_shape(kind, sample_set)
    v = _check_values(sample_set, values)
    envelope = spec.kappa * sample_set.radius**2

    if spec.gamma is not None:
        gamma = spec.gamma
        if gamma.shape != v.shape:
            raise ValueError(
                f"expected {v.shape[0]} gamma values, got {gamma.shape[0]}"
            )
        slack = envelope * (1.0 + 1e-12) + 1e-15
        for j, (gj, vj) in enumerate(zip(gamma, v)):
            if abs(gj - vj) > slack:
                raise RelaxationError(
                    f"gamma[{j}] = {gj} deviates from value {vj} by "
                    f"{abs(gj - vj):.6g}, beyond the envelope {envelope:.6g}",
                    index=j,
                )
    else:
        rng = np.random.default_rng(spec.noise_seed)
        gamma = v + rng.uniform(-envelope, envelope, size=v.shape)

    basis = _lagrange_basis(kind, sample_set)
    cond = _system_condition(kind, sample_set)
    model = weighted_sum(basis, gamma)
    return FitResult(
        model=model,
        residual=interpolation_residual(model, sample_set, v),
        condition=cond,
    )


def _system_condition(kind: ModelKind, sample_set: SampleSet) -> float:
    Yh = normalized_points(sample_set)
    if kind is ModelKind.LIN_DET:
        M = basis_matrix(BasisSelector(1, BasisPart.FULL), Yh)
    elif kind is ModelKind.QUAD_DET:
        M = basis_matrix(BasisSelector(2, BasisPart.FULL), Yh)
    else:
        _, _, _, cond = _checked_mfn_system(sample_set)
        return cond
    return float(np.linalg.cond(M))
