"""Error-bound constants for interpolation models on a ball.

Every bound has the shape |f - m| <= C_f delta^2, ||grad f - grad m|| <=
C_g delta, ||hess m|| <= C_H, with constants assembled from the Lipschitz
constant of the objective's gradient (L), the relaxation level (kappa), and
either raw matrix-norm constants or the measured poisedness constant.  The
constants can be requested in the raw form (user-supplied kappa_L, kappa_Q,
kappa_s, kappa_H) or fully composed from the poisedness constant; reports
record which path produced each number.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

__all__ = [
    "ModelKind",
    "BoundKind",
    "BoundInputs",
    "BoundReport",
    "c_delta_max",
    "constants_from_lambda",
    "hessian_bound_mfn",
    "error_bounds",
    "closed_form_bounds",
    "NotPoisedError",
    "RelaxationError",
]


# The library's two mathematical failures live here, in the module without
# NumPy, so the CLI can catch them by name without loading what raises them.
class NotPoisedError(Exception):
    """The interpolation system is singular or numerically unusable."""

    def __init__(self, message: str, condition: float = math.inf):
        super().__init__(message)
        self.condition = float(condition)


class RelaxationError(ValueError):
    """A supplied relaxed value leaves the kappa delta^2 envelope."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = int(index)


class ModelKind(Enum):
    """Interpolation model on p + 1 points in R^n, with q = (n^2 + 3n)/2.

    LIN_DET is linear interpolation (p = n), QUAD_DET quadratic (p = q) and
    MFN minimum-Frobenius-norm quadratic (n < p < q).  LINEAR and QUADRATIC
    are the determined kinds' poisedness names, and UNDER is MFN with the
    matrix constants kappa_s and kappa_H supplied.  ``ModelKind(kind)``
    coerces a kind: it takes a member, or a member or alias name in any
    case, and raises ValueError naming anything else.
    """

    # value, certificate label, name of the inverse-norm check
    LIN_DET = "lin_det", "LINEAR", "linear_inverse_norm"
    QUAD_DET = "quad_det", "QUADRATIC", "quadratic_inverse_norm"
    MFN = "mfn", "MFN", "pseudoinverse_norm"
    LINEAR = LIN_DET
    QUADRATIC = QUAD_DET
    UNDER = MFN

    def __new__(cls, value, label, norm_check):
        member = object.__new__(cls)
        member._value_ = value
        member._label = label
        member._norm_check = norm_check
        return member

    @classmethod
    def _missing_(cls, value):
        member = cls.__members__.get(value.upper()) if isinstance(value, str) else None
        if member is None:
            raise ValueError(f"unknown model kind {value!r}")
        return member


# The model kinds by the names the bounds give them.
BoundKind = ModelKind


# The least poisedness constant: 1, less room for roundoff in a measured one.
_LAM_LOW = 1.0 - 1e-9


def _integer(name: str, value, least: int) -> int:
    """value as an int of at least least; ValueError naming the field if not."""
    # operator.index takes ints and NumPy integers; bool, an int, is no count.
    try:
        if not isinstance(value, bool) and operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")


def _number(name: str, value, low: float, strict: bool = False) -> float:
    """value as a finite float > low (>= unless strict); ValueError naming the field if not."""
    # The comparisons are False for NaN, raise TypeError for a str or None and
    # ValueError for an array, and float() raises OverflowError for an int
    # beyond the float range.
    try:
        if not isinstance(value, bool) and (low < value if strict else low <= value):
            if value < math.inf:
                return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    relation = ">" if strict else ">="
    raise ValueError(f"{name} must be a finite number {relation} {low:g}, got {value!r}")


def _q(n: int) -> int:
    # (n^2 + 3n)/2, the quadratic space size in R^n minus one.
    return (n * n + 3 * n) // 2


def _kind_for_shape(n: int, p: int, kind: Optional[ModelKind] = None) -> ModelKind:
    # The kind p + 1 points in R^n interpolate with: p = n is degree 1,
    # p = q is degree 2, n < p < q is minimum-norm.  ValueError if there is
    # none, or if kind is given and is not it.
    q = _q(n)
    if p == n:
        found = ModelKind.LIN_DET
    elif p == q:
        found = ModelKind.QUAD_DET
    else:
        found = ModelKind.MFN if n < p < q else None
    if kind is None and found is None:
        raise ValueError(
            f"p={p} fits no interpolation kind for n={n} (p=n, p={q}, or n<p<{q})"
        )
    if kind is not None and found is not kind:
        rule = {
            ModelKind.LIN_DET: "p = n",
            ModelKind.QUAD_DET: f"p = q = {q}",
            ModelKind.MFN: "n < p < q",
        }[kind]
        raise ValueError(
            f"{kind._label} interpolation needs {rule}, got n={n}, p={p}, q={q}"
        )
    return found


def c_delta_max(delta_max: float) -> float:
    """min(1, 1/delta_max, 1/delta_max^2); the radius-cap normalizer."""
    delta_max = _number("delta_max", delta_max, 0.0, strict=True)
    return min(1.0, 1.0 / delta_max, 1.0 / (delta_max * delta_max))


def constants_from_lambda(kind, lam: float, n: int, p: Optional[int] = None) -> float:
    """Scaled-matrix norm constant implied by the poisedness constant.

    LINEAR gives the inverse-norm cap lam * sqrt(n); QUADRATIC gives
    4 lam sqrt((q+1)^3); MFN gives the pseudoinverse cap
    lam sqrt(2(n+1)) (p+1).  ``kind`` is anything ``ModelKind`` takes: a
    member or alias, such as PoisednessKind.LINEAR, or its name.  Given p,
    it must be the kind p + 1 points in R^n interpolate with.
    """
    kind = ModelKind(kind)
    lam = _number("lam", lam, _LAM_LOW)
    _integer("n", n, 1)
    if p is not None:
        _kind_for_shape(n, _integer("p", p, 1), kind)
    elif kind is ModelKind.MFN:
        raise ValueError("MFN needs p")
    return _constants_from_lambda(kind, lam, n, p)


def _constants_from_lambda(kind: ModelKind, lam: float, n: int, p: Optional[int]) -> float:
    # constants_from_lambda on checked inputs of the kind's shape.  lam is
    # made a float, as the public form's check makes it, whatever its type.
    lam = float(lam)
    if kind is ModelKind.LIN_DET:
        return lam * math.sqrt(n)
    if kind is ModelKind.QUAD_DET:
        return 4.0 * lam * math.sqrt((_q(n) + 1.0) ** 3)
    return lam * math.sqrt(2.0 * (n + 1.0)) * (p + 1.0)


def hessian_bound_mfn(
    L: float, kappa: float, lam: float, *, n: int, p: int, delta_max: float
) -> float:
    """Cap on the model Hessian norm of a relaxed minimum-norm fit.

    (kappa + L/2) * 4 lam (p+1) sqrt(2(q+1)) / c(delta_max)^2, for n < p < q.
    """
    _number("L", L, 0.0)
    _number("kappa", kappa, 0.0)
    _number("lam", lam, _LAM_LOW)
    _kind_for_shape(_integer("n", n, 1), _integer("p", p, 1), ModelKind.MFN)
    return _hessian_bound_mfn(L, kappa, lam, n, p, delta_max)


def _hessian_bound_mfn(L, kappa, lam, n: int, p: int, delta_max) -> float:
    # hessian_bound_mfn on checked inputs of an MFN shape.
    c = c_delta_max(delta_max)
    return (kappa + 0.5 * L) * 4.0 * lam * (p + 1.0) * math.sqrt(2.0 * (_q(n) + 1.0)) / (c * c)


@dataclass(frozen=True)
class BoundInputs:
    """Inputs for the bound constants.

    lam is the measured poisedness constant; kappa_L/kappa_Q/kappa_s/kappa_H
    are raw matrix-norm constants that, when supplied, take precedence over
    the lam-derived values.  q, the quadratic space size minus one, follows
    from n.
    """

    L: float
    kappa: float = 0.0
    lam: Optional[float] = None
    kappa_L: Optional[float] = None
    kappa_Q: Optional[float] = None
    kappa_s: Optional[float] = None
    kappa_H: Optional[float] = None
    n: Optional[int] = None
    p: Optional[int] = None
    delta: Optional[float] = None
    delta_max: Optional[float] = None

    def __post_init__(self) -> None:
        _number("L", self.L, 0.0)
        _number("kappa", self.kappa, 0.0)
        for name, low, strict in (
            ("kappa_L", 0.0, False), ("kappa_Q", 0.0, False), ("kappa_s", 0.0, False),
            ("kappa_H", 0.0, False), ("lam", _LAM_LOW, False),
            ("delta", 0.0, True), ("delta_max", 0.0, True),
        ):
            if getattr(self, name) is not None:
                _number(name, getattr(self, name), low, strict)
        for name in ("n", "p"):
            if getattr(self, name) is not None:
                _integer(name, getattr(self, name), 1)
        if self.n is not None and self.p is not None and self.p < self.n:
            raise ValueError(f"p must be at least n = {self.n}, got {self.p}")
        if self.delta is not None and self.delta_max is None:
            object.__setattr__(self, "delta_max", float(self.delta))
        if (
            self.delta is not None
            and self.delta_max is not None
            and self.delta > self.delta_max * (1.0 + 1e-12)
        ):
            raise ValueError(
                f"delta {self.delta} exceeds delta_max {self.delta_max}"
            )

    @property
    def q(self) -> Optional[int]:
        """(n^2 + 3n)/2, the quadratic space size minus one; None without n."""
        return None if self.n is None else _q(self.n)


@dataclass(frozen=True)
class BoundReport:
    """Bound constants plus a record of how each one was obtained."""

    kind: ModelKind
    C_f: float
    C_g: float
    C_H: float
    provenance: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.name,
            "C_f": self.C_f,
            "C_g": self.C_g,
            "C_H": self.C_H,
            "provenance": dict(self.provenance),
        }


def _require(inputs: BoundInputs, *names: str):
    out = []
    for name in names:
        value = getattr(inputs, name)
        if value is None:
            raise ValueError(f"bound computation needs {name}")
        out.append(value)
    return out


def _checked_kind(kind, inputs: BoundInputs) -> ModelKind:
    # The kind, which must be the one the inputs' n and p admit if given.
    kind = ModelKind(kind)
    if inputs.n is not None and inputs.p is not None:
        _kind_for_shape(inputs.n, inputs.p, kind)
    return kind


def error_bounds(kind, inputs: BoundInputs) -> BoundReport:
    """Bound constants for the given model kind.

    ``kind`` is anything ``ModelKind`` takes.  For the determined kinds the
    matrix constant comes from kappa_L/kappa_Q when supplied, otherwise from
    the poisedness constant.  MFN takes kappa_s and kappa_H when supplied
    and derives each missing one from the poisedness constant; UNDER is MFN
    with both supplied.  Inputs holding n and p must have the kind's shape.
    """
    kind = _checked_kind(kind, inputs)
    L, kappa = inputs.L, inputs.kappa
    prov: dict = {}
    # BoundInputs checked every field and _checked_kind the shape, so the
    # constants come from the helpers' unchecked forms.

    def constant(name, derive, needs):
        # The supplied matrix constant, else derive() of the inputs in needs.
        if getattr(inputs, name) is not None:
            prov[name] = "supplied"
            return getattr(inputs, name)
        prov[name] = "from_lambda"
        return derive(*_require(inputs, *needs))

    if kind is ModelKind.LIN_DET:
        (n,) = _require(inputs, "n")
        kappa_L = constant(
            "kappa_L", lambda lam: _constants_from_lambda(kind, lam, n, None), ("lam",)
        )
        term = (0.5 * L + 2.0 * kappa) * kappa_L * math.sqrt(n)
        C_g = L + term
        C_f = 0.5 * L + kappa + term
        C_H = 0.0
        prov.update(C_f="linear_determined", C_g="linear_determined", C_H="zero")
        return BoundReport(kind, C_f, C_g, C_H, prov)

    if kind is ModelKind.QUAD_DET:
        (n, q) = _require(inputs, "n", "q")
        kappa_Q = constant(
            "kappa_Q", lambda lam: _constants_from_lambda(kind, lam, n, None), ("lam",)
        )
        C_H = 2.0 * kappa_Q * math.sqrt(2.0 * q) * (kappa + L)
        C_g = 2.0 * kappa_Q * math.sqrt(q) * (1.0 + math.sqrt(2.0)) * (kappa + L)
        C_f = 0.5 * L + kappa + kappa_Q * math.sqrt(q) * (2.0 + 3.0 * math.sqrt(2.0)) * (kappa + L)
        prov.update(
            C_f="quadratic_determined",
            C_g="quadratic_determined",
            C_H="quadratic_determined",
        )
        return BoundReport(kind, C_f, C_g, C_H, prov)

    (p,) = _require(inputs, "p")
    kappa_s = constant(
        "kappa_s",
        lambda n, lam: _constants_from_lambda(kind, lam, n, p),
        ("n", "lam"),
    )
    kappa_H = constant(
        "kappa_H",
        lambda n, lam, dm: _hessian_bound_mfn(L, kappa, lam, n, p, dm),
        ("n", "lam", "delta_max"),
    )
    bracket = L + kappa + 0.75 * kappa_H
    C_g = 2.0 * kappa_s * math.sqrt(p) * bracket
    C_f = 0.5 * (L + kappa_H) + kappa + C_g
    C_H = kappa_H
    prov.update(C_f="underdetermined", C_g="underdetermined", C_H="hessian_cap")
    return BoundReport(kind, C_f, C_g, C_H, prov)


def closed_form_bounds(kind, inputs: BoundInputs) -> BoundReport:
    """Fully expanded closed forms of the composed bound constants.

    Evaluates the printed one-line expressions (matrix constants substituted
    by their poisedness-derived values, except for MFN given both kappa_s
    and kappa_H, that is UNDER) instead of composing step by step; equal to
    ``error_bounds`` up to floating-point roundoff and used to cross-check
    the composition.
    """
    kind = _checked_kind(kind, inputs)
    L, kappa = inputs.L, inputs.kappa
    prov = {"form": "closed"}

    if kind is ModelKind.LIN_DET:
        (n, lam) = _require(inputs, "n", "lam")
        term = (0.5 * L + 2.0 * kappa) * lam * n
        return BoundReport(kind, 0.5 * L + kappa + term, L + term, 0.0, prov)

    if kind is ModelKind.QUAD_DET:
        (n, q, lam) = _require(inputs, "n", "q", "lam")
        root = math.sqrt(q * (q + 1.0) ** 3)
        C_H = 8.0 * lam * math.sqrt(2.0 * q * (q + 1.0) ** 3) * (kappa + L)
        C_g = 8.0 * lam * root * (1.0 + math.sqrt(2.0)) * (kappa + L)
        C_f = 0.5 * L + kappa + 4.0 * lam * root * (2.0 + 3.0 * math.sqrt(2.0)) * (kappa + L)
        return BoundReport(kind, C_f, C_g, C_H, prov)

    if inputs.kappa_s is not None and inputs.kappa_H is not None:
        (p, kappa_s, kappa_H) = _require(inputs, "p", "kappa_s", "kappa_H")
        bracket = L + kappa + 0.75 * kappa_H
        C_g = 2.0 * kappa_s * math.sqrt(p) * bracket
        return BoundReport(
            kind, 0.5 * (L + kappa_H) + kappa + C_g, C_g, kappa_H, prov
        )

    (n, p, q, lam, delta_max) = _require(inputs, "n", "p", "q", "lam", "delta_max")
    c = c_delta_max(delta_max)
    hess = (kappa + 0.5 * L) * lam * 4.0 * (p + 1.0) * math.sqrt(2.0 * (q + 1.0)) / (c * c)
    inner = (kappa + 0.5 * L) * lam * 3.0 * (p + 1.0) * math.sqrt(2.0 * (q + 1.0)) / (c * c)
    C_g = 2.0 * lam * math.sqrt(2.0 * p * (n + 1.0)) * (p + 1.0) * (L + kappa + inner)
    C_f = 0.5 * (L + hess) + kappa + C_g
    return BoundReport(kind, C_f, C_g, hess, prov)
