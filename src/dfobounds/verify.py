"""Empirical verification of the bound constants on test functions.

A trial builds a certified sample set inside a test function's domain, fits
a model, computes the theoretical bound constants from the measured
poisedness constant, probes the ball for the worst empirical errors, and
reports margins (empirical / theoretical).  Campaigns sweep trial configs
and emit a fixed-column CSV plus a JSON summary, byte-identical across runs
for the same config.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .ball import max_abs_on_ball
from .bounds import (
    BoundInputs, ModelKind, _integer, _kind_for_shape, _number, _q, c_delta_max, error_bounds
)
from .geometry import (
    SampleSet,
    generate_poised_set,
    lambda_poisedness,
    _certify_shapes,
    _drive,
    _lagrange_coeffs,
    _read,
    normalized_points,
)
from .models import RelaxationSpec, fit_model, fit_relaxed
from .poly import QuadraticPolynomial, _finite_array, _split_coeffs, basis_matrix, space_dim

__all__ = [
    "TestFunction",
    "quadratic_function",
    "quartic_function",
    "rosenbrock_function",
    "builtin_functions",
    "resolve_function",
    "InequalityCheck",
    "basis_floor_checks",
    "check_theory",
    "TrialConfig",
    "TrialResult",
    "run_trial",
    "expand_config",
    "CampaignReport",
    "run_campaign",
    "CSV_COLUMNS",
]


@dataclass(frozen=True)
class TestFunction:
    """Vectorized objective with a certified gradient Lipschitz constant.

    ``f`` maps (N, n) point blocks to (N,) values, ``grad`` to (N, n)
    gradients.  ``lipschitz_L`` bounds the gradient's Lipschitz constant on
    ``domain_box`` (read-only rows of per-coordinate lower/upper limits).
    For exactly quadratic objectives ``quadratic`` holds the polynomial
    itself, which lets trials locate the worst value error exactly.
    """

    name: str
    dim: int
    f: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    lipschitz_L: float
    domain_box: np.ndarray
    quadratic: Optional[QuadraticPolynomial] = None


def quadratic_function(A, b) -> TestFunction:
    """x -> x^T A x / 2 + b . x on [-10, 10]^n with the exact constant L = ||A||.

    ``b`` is a vector of n >= 1 finite numbers and ``A`` an n x n array of
    them; ValueError naming the argument otherwise.
    """
    b = _finite_array(b, 1, "b")
    n = b.size
    A = _finite_array(A, 2, "A")
    if not n or A.shape != (n, n):
        raise ValueError(f"A must be n x n for the n >= 1 entries of b, got {A.shape}")
    poly = QuadraticPolynomial(n, 0.0, b, A)
    box = np.column_stack([np.full(n, -10.0), np.full(n, 10.0)])
    box.setflags(write=False)
    return TestFunction(
        name="quadratic",
        dim=n,
        f=poly.eval_batch,
        grad=poly.grad_batch,
        lipschitz_L=float(np.linalg.norm(poly.hessian, 2)),
        domain_box=box,
        quadratic=poly,
    )


def quartic_function(n: int) -> TestFunction:
    """sum_i x_i^4 on [-1, 1]^n; the Hessian norm there is at most 12."""
    n = _integer("n", n, 1)
    box = np.column_stack([np.full(n, -1.0), np.full(n, 1.0)])
    box.setflags(write=False)
    return TestFunction(
        name="quartic",
        dim=n,
        f=_quartic_value,
        grad=_quartic_grad,
        lipschitz_L=12.0,
        domain_box=box,
    )


# Products, not float pow: X ** 4 and X ** 3 call pow per element.
def _quartic_value(X) -> np.ndarray:
    X = np.asarray(X, float)
    X2 = X * X
    return (X2 * X2).sum(axis=1)


def _quartic_grad(X) -> np.ndarray:
    X = np.asarray(X, float)
    return 4.0 * (X * X * X)


def _rosenbrock_lipschitz() -> float:
    # Largest Hessian spectral norm over [-2, 2]^2.  The Hessian is
    # [[1200 x1^2 - 400 x2 + 2, -400 x1], [-400 x1, 200]]; its top eigenvalue
    # grows with the (1, 1) entry and with |x1|, and both peak at the
    # (+-2, -2) corners, where it also dominates the bottom one in magnitude.
    a = 1200.0 * 4.0 + 800.0 + 2.0
    b = 800.0
    d = 200.0
    return float(0.5 * (a + d) + np.sqrt(0.25 * (a - d) ** 2 + b * b))


def rosenbrock_function(n: int = 2) -> TestFunction:
    """The two-dimensional Rosenbrock function on [-2, 2]^2.

    The Lipschitz constant is the Hessian's spectral norm at the (+-2, -2)
    corners of the box, where it peaks (5717.98...).
    """
    if _integer("n", n, 1) != 2:
        raise ValueError(f"rosenbrock is only defined for n = 2, got n = {n}")

    def f(X):
        X = np.asarray(X, float)
        return 100.0 * (X[:, 1] - X[:, 0] ** 2) ** 2 + (1.0 - X[:, 0]) ** 2

    def grad(X):
        X = np.asarray(X, float)
        g1 = -400.0 * X[:, 0] * (X[:, 1] - X[:, 0] ** 2) - 2.0 * (1.0 - X[:, 0])
        g2 = 200.0 * (X[:, 1] - X[:, 0] ** 2)
        return np.column_stack([g1, g2])

    box = np.array([[-2.0, 2.0], [-2.0, 2.0]])
    box.setflags(write=False)
    return TestFunction(
        name="rosenbrock",
        dim=2,
        f=f,
        grad=grad,
        lipschitz_L=_rosenbrock_lipschitz(),
        domain_box=box,
    )


def _seeded_quadratic(n: int) -> TestFunction:
    rng = np.random.default_rng(1000 + n)
    B = rng.standard_normal((n, n))
    A = 0.5 * (B + B.T)
    b = rng.standard_normal(n)
    return quadratic_function(A, b)


def builtin_functions() -> dict:
    """Registry of named test-function factories, each taking n."""
    return {
        "quadratic": _seeded_quadratic,
        "quartic": quartic_function,
        "rosenbrock": rosenbrock_function,
    }


def resolve_function(name: str, n: int) -> TestFunction:
    """The named builtin test function in R^n.

    Built once per (name, n) and shared, so its arrays are read-only.
    """
    # Both are checked before the cache, which takes True and 1.0 for 1 and
    # cannot hash a list.
    return _resolve(_function_name(name), _integer("n", n, 1))


def _function_name(name) -> str:
    # Campaigns key their stage values by the name, so it must be a string.
    if not isinstance(name, str):
        raise ValueError(f"function must be a string, got {name!r}")
    return name


@functools.lru_cache(maxsize=64)
def _resolve(name: str, n: int) -> TestFunction:
    registry = builtin_functions()
    if name not in registry:
        raise ValueError(
            f"unknown test function {name!r}; known: {sorted(registry)}"
        )
    return registry[name](n)


@dataclass(frozen=True)
class InequalityCheck:
    """One certified inequality: lhs relation rhs, with a small tolerance."""

    name: str
    lhs: float
    rhs: float
    relation: str
    passed: bool


def _le(name: str, lhs: float, rhs: float, tol: float = 1e-9) -> InequalityCheck:
    return InequalityCheck(name, float(lhs), float(rhs), "<=", bool(lhs <= rhs + tol))


def _ge(name: str, lhs: float, rhs: float, tol: float = 1e-9) -> InequalityCheck:
    return InequalityCheck(name, float(lhs), float(rhs), ">=", bool(lhs >= rhs - tol))


def basis_floor_checks(n: int, count: int = 200, seed: int = 0):
    """Sampled floors on how small a unit-coefficient polynomial can stay.

    Over the unit ball, a degree-2 natural-basis polynomial with sup-norm-1
    coefficients reaches at least 1/4 in absolute value; a degree-1 one
    reaches at least 1; a degree-1 one with unit Euclidean coefficient norm
    reaches at least 1/sqrt(n+1).
    """
    count = _integer("count", count, 1)
    rng = np.random.default_rng(_integer("seed", seed, 0))
    dim_quad = space_dim(2, n)
    # The three families' draws interleave, one of each per sample.
    quad, lin, unit = map(np.array, zip(*[
        (rng.uniform(-1.0, 1.0, size=dim_quad), rng.uniform(-1.0, 1.0, size=n + 1),
         rng.standard_normal(n + 1))
        for _ in range(count)
    ]))
    # Rows of FULL degree-2 coefficients; affine rows end in zeros.  Each
    # unit row takes its own norm, which a batched norm would round apart.
    zeros = np.zeros((count, dim_quad - n - 1))
    quad /= np.abs(quad).max(axis=1, keepdims=True)
    lin = np.hstack([lin / np.abs(lin).max(axis=1, keepdims=True), zeros])
    unit = np.hstack([unit / np.array([[np.linalg.norm(u)] for u in unit]), zeros])
    origin = np.zeros(n)
    # One batched ball solve per family.
    worst_quad, worst_lin, worst_unit = (
        np.min(max_abs_on_ball(family, origin, 1.0)[0]) for family in (quad, lin, unit)
    )
    return [
        _ge("quadratic_basis_floor", worst_quad, 0.25),
        _ge("linear_basis_floor", worst_lin, 1.0),
        _ge("unit_coeff_floor", worst_unit, 1.0 / np.sqrt(n + 1.0)),
    ]


def check_theory(
    sample_set: SampleSet,
    kind,
    delta_max: Optional[float] = None,
    floor_samples: int = 200,
    seed: int = 0,
):
    """All certified inequalities for a sample set, as a list of checks.

    Every kind gets its scaled-matrix norm cap, the factorization of the
    absolute affine matrix through the normalized points
    (``shifted_factorization``) and the basis floors; MFN also gets one
    Hessian cap per Lagrange polynomial.  ``kind`` is anything
    ``ModelKind`` takes.  ``delta_max`` defaults to the set's radius and
    may not be below it.  Raises NotPoisedError for degenerate sets (no
    inequalities are emitted in that case).
    """
    floor_samples = _integer("floor_samples", floor_samples, 1)
    kind = ModelKind(kind)
    delta = sample_set.radius
    # BoundInputs' rule for the radius cap, which it defaults to delta.
    delta_max = BoundInputs(L=0.0, delta=delta, delta_max=delta_max).delta_max
    cert = lambda_poisedness(sample_set, kind)
    n, p = sample_set.n, sample_set.p
    q = _q(n)
    checks = [_le(kind._norm_check, cert.matrix_norm, cert.norm_bound)]

    if kind is ModelKind.MFN:
        c = c_delta_max(delta_max)
        cap = 4.0 * cert.lam * np.sqrt(2.0 * (q + 1.0)) / (delta * delta * c * c)
        # The absolute Hessian of l_j is the normalized one over delta^2; the
        # coefficients are the set's memoized basis, which cert was measured on.
        H_hat = _split_coeffs(_lagrange_coeffs(sample_set, kind), n)[2]
        norms = np.linalg.norm(H_hat, 2, axis=(1, 2)) / (delta * delta)
        for j, norm in enumerate(norms):
            checks.append(
                _le(f"lagrange_hessian_norm_{j}", norm, cap, tol=1e-9 * max(1.0, cap))
            )

    # Every solve runs on the normalized points Y_hat = (Y - y0) / delta, so
    # the absolute affine interpolation matrix must factor through them:
    # [1, y_i] = [1, (y_i - y0) / delta] [[1, y0^T], [0, delta I]].
    points = sample_set.points
    expected = np.zeros((p + 1, n + 1))
    expected[:, 0] = 1.0
    expected[1:, 1:] = normalized_points(sample_set)[1:]
    scale = np.diag([1.0] + [delta] * n)
    scale[0, 1:] = sample_set.y0
    Ml = basis_matrix(points)[:, : n + 1]
    diff = float(np.abs(Ml - expected @ scale).max())
    tol = 1e-12 * max(1.0, float(np.abs(points).max()))
    checks.append(_le("shifted_factorization", diff, tol, tol=0.0))

    checks.extend(basis_floor_checks(n, count=floor_samples, seed=seed))
    return checks


@dataclass(frozen=True)
class TrialConfig:
    """One verification trial.

    The ball center is sampled per-seed from the middle half of the
    function's domain box, so the same seed reuses the same geometry across
    a delta sweep.
    """

    function: str
    kind: ModelKind
    n: int
    p: int
    delta: float
    delta_max: Optional[float] = None
    kappa: float = 0.0
    lambda_max: float = 100.0
    seed: int = 0

    def __post_init__(self) -> None:
        _function_name(self.function)
        object.__setattr__(self, "kind", ModelKind(self.kind))
        for name, least in (("n", 1), ("p", 1), ("seed", 0)):
            _integer(name, getattr(self, name), least)
        # The generator infers the interpolation kind from (n, p); it must be
        # the model kind.
        _kind_for_shape(self.n, self.p, self.kind)
        # The reals are stored as floats, so that configs equal as numbers
        # (lambda_max 2 and 2.0) run and report alike.
        for name, low, strict in (("delta", 0.0, True), ("kappa", 0.0, False),
                                  ("lambda_max", 1.0, True)):
            object.__setattr__(self, name, _number(name, getattr(self, name), low, strict))
        # The radius cap follows BoundInputs' rule.
        BoundInputs(L=0.0, delta=self.delta, delta_max=self.delta_max)
        if self.delta_max is not None:
            object.__setattr__(self, "delta_max", float(self.delta_max))


@dataclass(frozen=True)
class TrialResult:
    lam: float
    C_f: float
    C_g: float
    C_H: float
    emp_f: float
    emp_g: float
    emp_H: float
    margin_f: float
    margin_g: float
    margin_H: float
    passed: bool


@functools.lru_cache(maxsize=256)
def _center_draw(seed: int, dim: int) -> np.ndarray:
    """The seed's uniform(-0.5, 0.5) draw of the trial center, read-only.

    Drawn once per (seed, dim), since every trial with that seed places its
    ball from the same draw.
    """
    draw = np.random.default_rng(seed).uniform(-0.5, 0.5, size=dim)
    draw.setflags(write=False)
    return draw


def _first_primes(count: int) -> np.ndarray:
    """The first ``count`` primes, by trial division by the primes found so far."""
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % prime for prime in primes if prime * prime <= candidate):
            primes.append(candidate)
        candidate += 1
    return np.array(primes, dtype=np.intp)


def _halton_points(d: int, count: int) -> np.ndarray:
    """The first ``count`` points of the unscrambled Halton sequence in [0, 1)^d.

    Coordinate k is the radical inverse of the point index 0, 1, 2, ... in
    the k-th prime base (Halton, Numer. Math. 2, 1960); digits are summed
    lowest first, so the points equal SciPy's ``qmc.Halton(d,
    scramble=False).random(count)`` bit for bit.
    """
    out = np.zeros((count, d))
    for k, base in enumerate(_first_primes(d)):
        index = np.arange(count)
        scale = 1.0 / base
        while np.any(index):
            out[:, k] += (index % base) * scale
            scale /= base
            index //= base
    return out


_PROBE_COUNT = 1000  # Halton points in every trial's probe block


@functools.lru_cache(maxsize=8)
def _unit_probe_block(n: int) -> np.ndarray:
    """The probe points on the unit ball at the origin, built once per n.

    Rows are the Halton points, the origin, the +-axes and, when n <= 6,
    the +-1 corners over sqrt(n).  Read-only, since every trial shares it.
    """
    # Low-discrepancy cube points pushed radially onto the ball; boundary
    # coverage matters because the worst errors tend to sit there.
    z = 2.0 * _halton_points(n, _PROBE_COUNT) - 1.0
    norms = np.linalg.norm(z, axis=1)
    outside = norms > 1.0
    z[outside] /= norms[outside][:, None]
    cube = itertools.product((-1.0, 1.0), repeat=n) if n <= 6 else ()
    corners = np.array(list(cube)).reshape(-1, n) / np.sqrt(n)
    unit = np.vstack([z, np.zeros((1, n)), np.eye(n), -np.eye(n), corners])
    unit.setflags(write=False)
    return unit


@dataclass(frozen=True)
class _ProbePlan:
    """What every trial at one (function, n, delta, seed) probes.

    ``fn`` is the objective, ``center`` the ball center, and ``f`` and
    ``grad`` the objective on the probe points center + delta * U (see
    _unit_probe_block).  The arrays are read-only, since the trials of a
    campaign share them.
    """

    fn: TestFunction
    center: np.ndarray
    f: np.ndarray
    grad: np.ndarray


def _ball_center(fn: TestFunction, delta: float, seed: int) -> np.ndarray:
    """The ball center of a trial key, checked against the domain box.

    The center is the seed's draw scaled into the middle half of the domain
    box; a ball of radius ``delta`` that does not fit the box raises.
    """
    lo = fn.domain_box[:, 0]
    hi = fn.domain_box[:, 1]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    center = mid + _center_draw(seed, fn.dim) * half
    if (center - delta < lo - 1e-12).any() or (center + delta > hi + 1e-12).any():
        raise ValueError(
            f"ball of radius {delta} around the sampled center does not fit "
            f"inside the domain box of {fn.name}"
        )
    return center


def _probe_plan(fn: TestFunction, delta: float, seed: int) -> _ProbePlan:
    """Build the probe plan of a trial key (see _ball_center and _plan_around)."""
    return _plan_around(fn, delta, _ball_center(fn, delta, seed))


def _plan_around(fn: TestFunction, delta: float, center: np.ndarray) -> _ProbePlan:
    """The probe plan around a ball center that _ball_center checked."""
    block = center + delta * _unit_probe_block(fn.dim)
    plan = _ProbePlan(fn, center, fn.f(block), fn.grad(block))
    for array in (plan.center, plan.f, plan.grad):
        array.setflags(write=False)
    return plan


def _plan_key(config: TrialConfig) -> tuple:
    return (config.function, config.n, config.delta, config.seed)


def _shape_key(config: TrialConfig) -> tuple:
    return (config.n, config.p, config.lambda_max, config.seed)


def _margin(emp: float, cap: float) -> float:
    if cap > 0.0:
        return emp / cap
    return 0.0 if emp <= 1e-12 else np.inf


def _fits(trials: list) -> dict:
    # Each distinct config's fitted state (plan, placed set, the unit rows
    # its score reads beside the probe block with the objective's values and
    # gradients there, fit and caps), or the exception that fails its
    # trials, built in dependency order.  Each plan key first resolves its
    # function and checks that its ball fits the domain box; the shapes of
    # the configs that passed are certified together; only then is each
    # plan built around its checked center: probe-block arrays held across
    # the shape pass left the heap to be trimmed and grown back in every
    # campaign (100 to 200 minor page faults per campaign_highdim round).
    # Then one loop per config places, fits and bounds through the names
    # this module binds.  Only a quadratic objective's loop yields its error
    # row, so every worst point comes from one solve across every n (see
    # _drive).  A failed key holds its exception, which each reader raises
    # afresh (see _read).
    configs = dict.fromkeys(trials)
    plans = {}
    for config in configs:
        key = _plan_key(config)
        if key not in plans:
            try:
                fn = resolve_function(config.function, config.n)
                plans[key] = fn, config.delta, _ball_center(fn, config.delta, config.seed)
            except Exception as exc:
                plans[key] = exc
    shapes = _certify_shapes(
        [_shape_key(c) for c in configs if not isinstance(plans[_plan_key(c)], Exception)]
    )
    for key, placed in plans.items():
        if not isinstance(placed, Exception):
            plans[key] = _plan_around(*placed)

    def loop(config):
        plan = _read(plans, _plan_key(config))
        fn = plan.fn
        sample_set = generate_poised_set(
            config.n, config.p, config.delta, config.lambda_max, seed=config.seed,
            center=plan.center, shape=_read(shapes, _shape_key(config)),
        )
        values = fn.f(sample_set.points)
        if config.kappa > 0.0:
            spec = RelaxationSpec(kappa=config.kappa, noise_seed=config.seed)
            fit = fit_relaxed(config.kind, sample_set, values, spec)
        else:
            fit = fit_model(config.kind, sample_set, values)
        inputs = BoundInputs(
            L=fn.lipschitz_L, kappa=config.kappa, lam=sample_set.certificate.lam,
            n=config.n, p=config.p, delta=config.delta, delta_max=config.delta_max,
        )
        report = error_bounds(config.kind, inputs)
        # The set's points and, for a quadratic objective, the exact worst
        # point, as its error is itself quadratic.
        rows = (normalized_points(sample_set), values, fn.grad(sample_set.points))
        if fn.quadratic is not None:
            exact = fn.quadratic.compose_affine(plan.center, config.delta)
            _, arg = yield (exact.coeffs() - fit.coeffs)[None]
            worst = plan.center + config.delta * arg
            rows = [np.concatenate(pair) for pair in zip(rows, (arg, fn.f(worst), fn.grad(worst)))]
        return plan, sample_set, rows, fit, report

    return _drive({c: loop(c) for c in configs}, max_abs_on_ball)


def _model_on_rows(coeffs: np.ndarray, n: int, U: np.ndarray) -> tuple:
    """Values and gradients at the rows of U, and the Hessian, of a FULL row.

    The expressions of ``QuadraticPolynomial.eval_batch`` and ``grad_batch``
    with U @ H formed once, so both equal the built polynomial's bit for
    bit; a trial scores its fit without building it.  The gradients are
    written into the buffer of U @ H.
    """
    c, g, H = _split_coeffs(coeffs, n)
    UH = U @ H
    values = c + U @ g + 0.5 * np.einsum("ij,ij->i", U, UH)
    return values, np.add(g, UH, out=UH), H


def _max_row_norm(G: np.ndarray) -> float:
    """The largest Euclidean norm of a row of G, NaN if G holds a NaN.

    The squares are summed column by column: NumPy's per-row reduction
    costs several times the arithmetic on n columns.  Where a square
    overflows, the norms are taken of G over its largest |entry|, as
    ``ball._affine`` takes them, so a finite norm reads finite.
    """
    def top_square(G):
        sq = G[:, 0] * G[:, 0]
        for k in range(1, G.shape[1]):
            sq += G[:, k] * G[:, k]
        return np.maximum.reduce(sq)

    with np.errstate(over="ignore"):
        top = top_square(G)
    if top == math.inf:
        scale = np.maximum.reduce(np.abs(G), axis=None)
        if scale < math.inf:
            return float(scale) * math.sqrt(top_square(G / scale))
    return math.sqrt(top)


def run_trial(config: TrialConfig, fits: Optional[dict] = None) -> TrialResult:
    """Run one verification trial; margins <= 1 mean the theory held.

    ``fits`` is a campaign's fitted states, keyed by config (see
    ``run_campaign``); the trial only scores its own, with arithmetic on the
    rows the fit stage evaluated.  Without it the trial fits a campaign of
    this one config, so a campaign's row equals its config's alone.
    """
    plan, sample_set, (rows, f, g), fit, report = _read(
        _fits([config]) if fits is None else fits, config
    )
    # The fit is scored where it was solved, at u = (x - center) / delta (the
    # set's base point and radius): on the block's unit rows and the rows
    # beside it.  Absolute gradients are the normalized ones over delta, and
    # the absolute Hessian the normalized one over delta^2.  The errors are
    # written over the model's values and gradients, block rows first.
    n, delta = config.n, config.delta
    U = np.concatenate([_unit_probe_block(n), rows])
    f_err, g_err, H = _model_on_rows(fit.coeffs, n, U)
    g_err /= delta
    block = len(plan.f)
    for part, f_ref, g_ref in ((slice(block), plan.f, plan.grad), (slice(block, None), f, g)):
        np.subtract(f_ref, f_err[part], out=f_err[part])
        np.subtract(g_ref, g_err[part], out=g_err[part])
    emp_f = float(np.maximum.reduce(np.abs(f_err, out=f_err))) / (delta * delta)
    emp_g = _max_row_norm(g_err) / delta
    # The Hessian is symmetric, so its spectral norm is its largest |eigenvalue|;
    # a LIN_DET model's Hessian is exactly zero, whose norm needs no solve.
    emp_H = (
        float(np.maximum.reduce(np.abs(np.linalg.eigvalsh(H)))) / (delta * delta)
        if H.any() else 0.0
    )

    margin_f = _margin(emp_f, report.C_f)
    margin_g = _margin(emp_g, report.C_g)
    margin_H = _margin(emp_H, report.C_H)
    passed = bool(max(margin_f, margin_g, margin_H) <= 1.0 + 1e-8)
    return TrialResult(
        lam=sample_set.certificate.lam,
        C_f=report.C_f,
        C_g=report.C_g,
        C_H=report.C_H,
        emp_f=emp_f,
        emp_g=emp_g,
        emp_H=emp_H,
        margin_f=margin_f,
        margin_g=margin_g,
        margin_H=margin_H,
        passed=passed,
    )


CSV_COLUMNS = [
    "trial_id",
    "function",
    "kind",
    "n",
    "p",
    "delta",
    "delta_max",
    "kappa",
    "seed",
    "lambda",
    "C_f",
    "C_g",
    "C_H",
    "emp_f",
    "emp_g",
    "emp_H",
    "margin_f",
    "margin_g",
    "margin_H",
    "pass",
]

# The result columns, in TrialResult's field order, and those fields.
_RESULT_COLUMNS = CSV_COLUMNS[CSV_COLUMNS.index("lambda") :]
_RESULT_FIELDS = [f.name for f in fields(TrialResult)]


def expand_config(config: dict):
    """Expand a flat config mapping into trial configs.

    Keys mirror TrialConfig fields; a list value sweeps that field and the
    expansion is the cross product, ordered by field declaration order.
    """
    names = [f.name for f in fields(TrialConfig)]
    unknown = sorted(set(config) - set(names))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    required = (f.name for f in fields(TrialConfig) if f.default is MISSING)
    missing = sorted(name for name in required if name not in config)
    if missing:
        raise ValueError(f"config is missing keys: {', '.join(missing)}")
    axes = []
    for name in names:
        if name in config:
            value = config[name]
            options = list(value) if isinstance(value, (list, tuple)) else [value]
            if not options:
                raise ValueError(f"config key {name!r} has no options")
            axes.append((name, options))
    trials = []
    for combo in itertools.product(*(options for _, options in axes)):
        kwargs = {name: value for (name, _), value in zip(axes, combo)}
        trials.append(TrialConfig(**kwargs))
    return trials


@dataclass
class CampaignReport:
    """Per-trial rows (CSV-ready), aggregate summary, and failures."""

    rows: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)


def _config_columns(trial_id: int, config: TrialConfig) -> dict:
    return {
        "trial_id": trial_id,
        "function": config.function,
        "kind": config.kind.name,
        "n": config.n,
        "p": config.p,
        "delta": config.delta,
        "delta_max": config.delta if config.delta_max is None else config.delta_max,
        "kappa": config.kappa,
        "seed": config.seed,
    }


def _result_columns(result: Optional[TrialResult]) -> dict:
    if result is None:
        return {**dict.fromkeys(_RESULT_COLUMNS, ""), "pass": False}
    return {
        column: getattr(result, name)
        for column, name in zip(_RESULT_COLUMNS, _RESULT_FIELDS)
    }


_MARGINS = ("margin_f", "margin_g", "margin_H")


def _quantiles(margins) -> dict:
    """q50, q90 and max of each of the three margin rows, keyed by margin.

    Each row holds m >= 1 numbers, since a kind is summarized only when
    some trial of it ran.  The quantiles are np.quantile's default linear
    rule, bit for bit, on one sort of Python floats: position (m - 1) q
    between the sorted neighbours lo and hi, interpolated from the nearer
    end.  A row with a NaN, which np.sort puts last, has NaN for all
    three.  Strict JSON has no infinity: a non-finite value is None.
    """
    out = {}
    for name, row in zip(_MARGINS, margins):
        # Python floats before any arithmetic: inf - inf warns on NumPy scalars.
        values = [float(v) for v in row]
        s = sorted(v for v in values if v == v)
        if len(s) < len(values):
            out[name] = dict.fromkeys(("q50", "q90", "max"))
            continue
        m = len(s)
        picked = {}
        for key, q in (("q50", 0.5), ("q90", 0.9)):
            lo = math.floor((m - 1) * q)
            t = (m - 1) * q - lo
            a, b = s[lo], s[min(lo + 1, m - 1)]
            picked[key] = b - (b - a) * (1.0 - t) if t >= 0.5 else a + (b - a) * t
        picked["max"] = s[-1]
        out[name] = {
            key: value if math.isfinite(value) else None for key, value in picked.items()
        }
    return out


def run_campaign(
    trials,
    csv_path=None,
    json_path=None,
    progress: Optional[Callable[[str], None]] = None,
) -> CampaignReport:
    """Run trials sequentially, recording failures without stopping.

    A trial that raises is recorded as ``{"trial_id", "type", "error"}``:
    the exception's class name and message.

    The trials run in two stages.  (1) Every trial is fitted before the
    first one is scored, each input after those it needs: first, per
    (function, n, delta, seed), the resolved function and the check that
    its ball fits the domain box; then one certified shape per (n, p,
    lambda_max, seed) of a config that passed, the improvement loops of
    every n in one lockstep; then one probe plan per (function, n, delta,
    seed), shared by trials such as the kinds of one sweep point (the ball
    center and the objective on the probe block, evaluated only now so
    that no shape work runs while its arrays are held); then each
    distinct config is placed, fitted and bounded once, and the objective
    evaluated at its set's points and, for the quadratic objective, at the
    exact worst point of the fit's error, which comes from one solve
    across every n, as the shapes do (both under ``geometry._drive``).  A
    solve that fails fails only its own trial.  (2) Each trial in turn,
    after ``progress`` gets its line, is scored by ``run_trial`` on its
    config's fitted state, with arithmetic only and in place; a state is
    dropped after the last trial that reads it, or when the call returns
    or raises.

    A function, plan, shape or fit that cannot be built is tried once:
    each of its trials fails with the same type and message, and a config
    that cannot be placed costs no shape work.  ``run_trial`` run alone
    fits a campaign of its one config, so every row equals the one its
    config gives alone.

    Writes the fixed-column CSV and the JSON summary when paths are given;
    both are byte-identical across runs of the same trial list.
    """
    trials = list(trials)
    rows, failures, results = [], [], []
    fits = _fits(trials)
    last = {config: i for i, config in enumerate(trials)}
    try:
        for trial_id, config in enumerate(trials):
            if progress is not None:
                progress(
                    f"trial {trial_id + 1}/{len(trials)}: {config.function} "
                    f"{config.kind.name} n={config.n} p={config.p} "
                    f"delta={config.delta} seed={config.seed}"
                )
            row = _config_columns(trial_id, config)
            try:
                result = run_trial(config, fits)
                results.append((config, result))
            except Exception as exc:  # record per-trial failure, keep going
                result = None
                failures.append(
                    {"trial_id": trial_id, "type": type(exc).__name__, "error": str(exc)}
                )
                # A failed key's exception is raised again by its later
                # trials; until then its traceback would hold this trial's.
                exc.__traceback__ = None
            row.update(_result_columns(result))
            rows.append(row)
            if last[config] == trial_id:
                del fits[config]
    finally:
        fits.clear()

    per_kind = {}
    for kind in sorted({config.kind.name for config, _ in results}):
        picked = [r for c, r in results if c.kind.name == kind]
        margins = [[getattr(r, name) for r in picked] for name in _MARGINS]
        per_kind[kind] = {
            "trials": len(picked),
            **_quantiles(margins),
            "all_passed": bool(all(r.passed for r in picked)),
        }
    summary = {
        "n_trials": len(trials),
        "n_failed": len(failures),
        "all_passed": bool(
            not failures and all(r.passed for _, r in results)
        ),
        "per_kind": per_kind,
        "failures": failures,
    }

    report = CampaignReport(rows=rows, summary=summary, failures=failures)
    if csv_path is not None:
        write_campaign_csv(report, csv_path)
    if json_path is not None:
        Path(json_path).write_text(
            json.dumps(summary, indent=2, sort_keys=True, allow_nan=False) + "\n"
        )
    return report


def write_campaign_csv(report: CampaignReport, path) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # The writer writes each cell as str() does.
        writer.writerows([row[col] for col in CSV_COLUMNS] for row in report.rows)
