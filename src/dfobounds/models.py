"""Fit interpolation models to sampled values, exactly or with relaxation."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bounds import ModelKind, RelaxationError, _integer, _number
from .geometry import (
    SampleSet,
    _interpolate,
    _matrix,
    normalized_points,
    # Bound here so callers and tracers that look the Lagrange builders up
    # in this module keep finding them.
    lagrange_determined,  # noqa: F401
    lagrange_mfn,  # noqa: F401
)
from .poly import QuadraticPolynomial, _finite_array, _pull_back, _split_coeffs

__all__ = [
    "ModelKind",
    "RelaxationSpec",
    "RelaxationError",
    "FitResult",
    "fit_model",
    "fit_relaxed",
]


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
        object.__setattr__(self, "kappa", _number("kappa", self.kappa, 0.0))
        if self.gamma is not None:
            object.__setattr__(self, "gamma", _finite_array(self.gamma, 1, "gamma"))
        if self.noise_seed is not None:
            _integer("noise_seed", self.noise_seed, 0)


_OVERFLOW = "values overflow the fit: its coefficients are not finite"


@dataclass(frozen=True, eq=False)
class FitResult:
    """A fit: its read-only FULL degree-2 ``coeffs`` on the normalized set.

    The absolute ``model`` (ValueError if it overflows), its worst
    re-substitution ``residual`` and the 2-norm ``condition`` of the
    kind's normalized system are computed on first read; the fit itself
    reads the set's memoized basis and needs none of them.
    """

    coeffs: np.ndarray
    _sample_set: SampleSet = field(repr=False)
    _values: np.ndarray = field(repr=False)
    _kind: ModelKind = field(repr=False)

    @functools.cached_property
    def condition(self) -> float:
        return float(np.linalg.cond(_matrix(normalized_points(self._sample_set), self._kind)[1]))

    @functools.cached_property
    def model(self) -> QuadraticPolynomial:
        # The fit pulled back from the normalized set, x -> fit((x - y0) /
        # delta): compose_affine's substitution on the split row, one build.
        ss = self._sample_set
        with np.errstate(over="ignore", invalid="ignore"):
            pulled = _pull_back(
                *_split_coeffs(self.coeffs, ss.n), -ss.y0 / ss.radius, 1.0 / ss.radius
            )
            model = QuadraticPolynomial(ss.n, *pulled)
            if not np.isfinite(model.coeffs()).all():
                raise ValueError(_OVERFLOW)
        return model

    @functools.cached_property
    def residual(self) -> float:
        return float(np.abs(self.model.eval_batch(self._sample_set.points) - self._values).max())


def _check_values(sample_set: SampleSet, values) -> np.ndarray:
    v = np.array(values, dtype=float).ravel()  # a copy: residuals read it later
    if v.shape != (sample_set.p + 1,):
        raise ValueError(
            f"expected {sample_set.p + 1} values, got {v.shape[0]}"
        )
    if not np.isfinite(v).all():
        raise ValueError("values must be finite")
    return v


def _fit(kind, sample_set: SampleSet, rhs, values) -> FitResult:
    # The caller checked rhs and values; finite ones can still overflow.
    kind = ModelKind(kind)
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _interpolate(sample_set, kind, rhs)
    if not np.isfinite(coeffs).all():
        raise ValueError(_OVERFLOW)
    coeffs.setflags(write=False)
    return FitResult(coeffs, sample_set, values, kind)


def fit_model(kind, sample_set: SampleSet, values) -> FitResult:
    """Interpolate the values exactly with the requested model kind.

    The model is sum_j values_j l_j in the set's memoized Lagrange basis.
    The determined kinds' basis solves the square basis system; MFN's
    minimizes the Euclidean norm of the second-order coefficients subject
    to the interpolation conditions, through the saddle system.  ``kind``
    is anything ``ModelKind`` takes, such as ModelKind.MFN or "mfn".
    """
    v = _check_values(sample_set, values)
    return _fit(kind, sample_set, v, v)


def fit_relaxed(kind, sample_set: SampleSet, values, spec: RelaxationSpec) -> FitResult:
    """Fit a model interpolating relaxed values gamma.

    The model is the kind's interpolant of gamma, the Lagrange expansion
    sum_j gamma_j l_j.  Explicit gamma values are validated against the
    envelope; otherwise gamma is drawn uniformly from
    [values_j - kappa delta^2, values_j + kappa delta^2] seeded by
    ``spec.noise_seed``.  The residual is measured against the original
    values, so it is at most kappa delta^2 up to roundoff.
    """
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

    return _fit(kind, sample_set, gamma, v)
