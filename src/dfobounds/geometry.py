"""Sample sets, interpolation systems, Lagrange polynomials, poisedness.

All linear solves run on a shifted and scaled copy of the sample set (points
mapped to (y - y0) / delta, so the set lives in the unit ball around the
origin).  This keeps conditioning independent of where the set sits and how
small delta is.  The poisedness constant is invariant under the map, so sets
are certified on the stack of normalized Lagrange coefficients on the unit
ball; only fitted models and the public Lagrange builders' polynomials are
pulled back through the exact affine substitution.  Each set is solved once,
for the identity; that inverse bounds the condition number, which only a
set near the guard's threshold computes exactly.  The Lagrange basis is
memoized on the set, and every fit (sum_j f(y_j) l_j), Lagrange builder,
weight vector and certificate of that set reads it.  The generator works on
the unit ball and only places its certified shape at the end; the placed
set shares the shape's basis.  Its improvement loop is a generator that
yields each candidate's Lagrange stack for the ball solver; ``_drive`` runs
such loops of every n in one lockstep, one solve per step for all of them,
and a campaign's worst-point loops the same way.  A campaign certifies its
shapes together, a single ``generate_poised_set`` call is a campaign of one
shape, and each shape equals the one certified alone.  Placing a shape
re-checks only what rounding can break (the placed points stay finite,
pairwise distinct and inside the ball, the checks every SampleSet runs) and
reuses the shape's normalized points, basis and certificate.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ball import _rownorm, max_abs_on_ball
from .bounds import (
    ModelKind, NotPoisedError, _integer, _kind_for_shape, _number, constants_from_lambda
)
from .poly import QuadraticPolynomial, _pull_back, _split_coeffs, basis_matrix, space_dim

__all__ = [
    "COND_THRESHOLD",
    "SampleSet",
    "PoisednessKind",
    "PoisednessCertificate",
    "NotPoisedError",
    "design_matrix",
    "lagrange_determined",
    "lagrange_mfn",
    "lambda_poisedness",
    "generate_poised_set",
    "normalized_points",
]

COND_THRESHOLD = 1e12
_MAX_ITERS = 200  # improvement steps generate_poised_set takes before it gives up

# The model kinds by their poisedness names: LINEAR, QUADRATIC and MFN.
PoisednessKind = ModelKind


@dataclass(frozen=True, eq=False)
class SampleSet:
    """p+1 pairwise-distinct points in the closed ball around the first one.

    Row 0 of ``points`` is the base point y0 and doubles as the ball center;
    ``radius`` is the ball radius delta.  ``certificate`` is the poisedness
    certificate ``generate_poised_set`` measured on its final iteration, and
    None for a set built any other way; it cannot be passed in.
    """

    points: np.ndarray
    radius: float
    certificate: Optional[PoisednessCertificate] = field(
        default=None, init=False, repr=False
    )
    # The points mapped to (y - y0) / radius, which every solve uses.  A
    # generated set keeps the exact unit set it was certified on.
    _normalized: np.ndarray = field(default=None, init=False, repr=False)
    # The Lagrange coefficients, set by the first _system call that passes
    # the condition guard.  A generated set shares its shape's.
    _system: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must be 2-D, got shape {pts.shape}")
        if pts.shape[0] < 2:
            raise ValueError("need at least two sample points")
        if pts.shape[1] < 1:
            raise ValueError("points need at least one coordinate")
        radius = _number("radius", self.radius, 0.0, strict=True)
        _check_points(pts, radius)
        normalized = (pts - pts[0]) / radius
        pts.setflags(write=False)
        normalized.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "_normalized", normalized)

    @property
    def n(self) -> int:
        return self.points.shape[1]

    @property
    def p(self) -> int:
        return self.points.shape[0] - 1

    @property
    def y0(self) -> np.ndarray:
        return self.points[0]


def _check_points(pts: np.ndarray, radius: float) -> None:
    # ValueError unless the (p+1, n) points are finite, pairwise distinct
    # and inside the ball of the given radius around row 0: the checks a
    # placed shape's rounding can break.
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    # Equal rows are neighbours once sorted lexicographically; -0.0 and
    # 0.0 compare equal in both the sort and the test.
    ordered = pts[np.lexsort(pts.T)]
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        raise ValueError("sample points must be pairwise distinct")
    dist = _rownorm(pts - pts[0], 1)
    if (dist > radius * (1.0 + 1e-9)).any():
        worst = int(dist.argmax())
        error = ValueError(
            f"point {worst} lies at distance {dist[worst]:.6g} from the "
            f"base point, outside the ball of radius {radius:.6g}"
        )
        error.index = worst  # the row, for a reader that numbers rows its own way
        raise error


def normalized_points(sample_set: SampleSet) -> np.ndarray:
    """All p+1 points mapped to (y - y0) / radius; row 0 becomes the origin.

    The array is read-only.  For a generated set it is the certified unit
    set itself, not the placed points mapped back.
    """
    return sample_set._normalized


def design_matrix(kind, sample_set: SampleSet) -> np.ndarray:
    """The kind's scaled design matrix, whose inverse norm lambda caps.

    It is built on the normalized displacements (y^i - y0) / delta,
    i = 1..p, so it describes exactly the geometry the set's solves use.
    LIN_DET (p = n) and MFN (n < p < q) stack them row-wise, a square or a
    rectangular (p, n) matrix; QUAD_DET (p = q) evaluates the constant-free
    degree-2 basis on them.  ``kind`` is anything ``ModelKind`` takes;
    ValueError if the set's shape is not the kind's.
    """
    kind = ModelKind(kind)
    _kind_for_shape(sample_set.n, sample_set.p, kind)
    return np.array(_design(kind, normalized_points(sample_set)))


def _design(kind: ModelKind, normalized: np.ndarray) -> np.ndarray:
    # design_matrix on the normalized points, row 0 the origin; LIN_DET and
    # MFN give a read-only view of them.
    D = normalized[1:]
    if kind is ModelKind.QUAD_DET:
        return basis_matrix(D)[:, 1:]
    return D


def _matrix(points: np.ndarray, kind: ModelKind):
    """(Mq, M): the kind's system matrix M at points, and MFN's quadratic block.

    M is the affine block Ml (LIN_DET) or the FULL degree-2 basis (QUAD_DET),
    with Mq None, or the saddle matrix [[Mq Mq^T, Ml], [Ml^T, 0]] (MFN).
    """
    n = points.shape[1]
    M = basis_matrix(points)
    Ml, Mq = M[:, : n + 1], M[:, n + 1 :]
    if kind is ModelKind.LIN_DET:
        return None, Ml
    if kind is ModelKind.QUAD_DET:
        return None, M
    m = points.shape[0]
    saddle = np.zeros((m + n + 1, m + n + 1))
    saddle[:m, :m] = Mq @ Mq.T
    saddle[:m, m:] = Ml
    saddle[m:, :m] = Ml.T
    return Mq, saddle


def _condition(M: np.ndarray, kind: ModelKind) -> float:
    """cond_2(M) from its SVD; NotPoisedError if it exceeds COND_THRESHOLD."""
    cond = float(np.linalg.cond(M))
    if not cond <= COND_THRESHOLD:
        system = "saddle" if kind is ModelKind.MFN else "interpolation"
        raise NotPoisedError(
            f"{system} system condition {cond:.3e} exceeds {COND_THRESHOLD:.1e}",
            condition=cond,
        )
    return cond


def _system(sample_set: SampleSet, kind: ModelKind) -> np.ndarray:
    """The kind's normalized Lagrange basis, solved once per set.

    Column j of the read-only (q+1, p+1) result holds the FULL degree-2
    coefficients of l_j on the normalized set.  M (see ``_matrix``) is
    solved for the identity, and ||M||_F ||M^-1||_F >= cond_2(M) passes the
    guard without an SVD when at most half of COND_THRESHOLD; the half
    covers the computed inverse's relative error, about N eps cond for an
    N-by-N M.  Otherwise, or if M is singular, the exact cond decides, so a
    failing set raises NotPoisedError with it on every call.  A set that
    passes memoizes its basis; (n, p) admits one kind, so it needs no key.
    """
    _kind_for_shape(sample_set.n, sample_set.p, kind)
    if sample_set._system is not None:
        return sample_set._system
    n, p = sample_set.n, sample_set.p
    Mq, M = _matrix(normalized_points(sample_set), kind)
    try:
        inv = np.linalg.solve(M, np.eye(M.shape[0]))
    except np.linalg.LinAlgError:
        _condition(M, kind)
        raise
    # Python floats: a product that overflows is inf, without a warning.
    bound = math.sqrt(float(np.vdot(M, M)) * float(np.vdot(inv, inv)))
    if not bound <= 0.5 * COND_THRESHOLD:
        _condition(M, kind)
    # The saddle solution's first p+1 rows are the multipliers, which Mq^T
    # maps to the second-order coefficients, and the rest the affine
    # coefficients; LIN_DET pads.
    sol = inv[:, : p + 1]
    if kind is ModelKind.MFN:
        sol = np.concatenate([sol[p + 1 :], Mq.T @ sol[: p + 1]])
    elif kind is ModelKind.LIN_DET:
        sol = np.concatenate([sol, np.zeros((space_dim(2, n) - n - 1, p + 1))])
    sol.setflags(write=False)
    object.__setattr__(sample_set, "_system", sol)
    return sol


def _interpolate(sample_set: SampleSet, kind: ModelKind, values) -> np.ndarray:
    """The kind's interpolant of values, as the Lagrange expansion.

    Returns its FULL degree-2 coefficients on the normalized set, read off
    the set's memoized basis (see ``_system``).  Each kind reproduces
    constants (sum_j l_j = 1), so the expansion is taken about values_0
    and a constant is fitted exactly.
    """
    sol = _system(sample_set, kind) @ (values - values[0])
    sol[0] += values[0]
    return sol


def _lagrange_coeffs(sample_set: SampleSet, kind: ModelKind) -> np.ndarray:
    # Row j holds the FULL degree-2 coefficients of l_j on the normalized set.
    return _system(sample_set, kind).T


def _lagrange(sample_set: SampleSet, kind: ModelKind):
    # Each l_j pulled back from the normalized set: x -> l_j((x - y0) / delta),
    # the substitution of compose_affine on the stack split once.  C order,
    # so each row's sums run as on the row alone.
    n, delta = sample_set.n, sample_set.radius
    offset, scale = -sample_set.y0 / delta, 1.0 / delta
    C, G, H = _split_coeffs(np.ascontiguousarray(_lagrange_coeffs(sample_set, kind)), n)
    return [
        QuadraticPolynomial(n, *_pull_back(c, g, h, offset, scale))
        for c, g, h in zip(C, G, H)
    ]


def lagrange_determined(sample_set: SampleSet, degree: int):
    """Lagrange basis for determined interpolation of the given degree.

    Reads the set's basis, solved for on the shifted/scaled set, and pulls
    each polynomial back; l_j(y^i) = delta_ij by construction.
    """
    if _integer("degree", degree, 1) not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    kind = ModelKind.LIN_DET if degree == 1 else ModelKind.QUAD_DET
    return _lagrange(sample_set, kind)


def lagrange_mfn(sample_set: SampleSet):
    """Minimum-norm Lagrange basis for n < p < q.

    Each l_j minimizes the Euclidean norm of its second-order coefficients
    subject to l_j(y^i) = delta_ij.  All p+1 polynomials come from the set's
    single solve of the saddle system.
    """
    return _lagrange(sample_set, ModelKind.MFN)


@dataclass(frozen=True)
class PoisednessCertificate:
    """Measured poisedness constant and the matrix-norm check it implies.

    ``lam`` is the constant and ``per_point_max[j]`` the peak of |l_j| over
    the ball.  ``normalized`` holds the normalized points (row 0 the origin)
    the constant was measured on.  ``matrix_norm`` is the spectral norm of the
    inverse (or pseudoinverse) of the kind's scaled design matrix on them,
    ``norm_bound`` the cap that the measured constant places on it, and
    ``satisfied`` whether the norm keeps to the cap; the three are computed
    on first read, as a campaign reads only ``lam``.  Certificates compare
    by kind and measured constants.
    """

    kind: ModelKind
    lam: float
    per_point_max: tuple
    normalized: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def matrix_norm(self) -> float:
        sv = np.linalg.svd(_design(self.kind, self.normalized), compute_uv=False)
        smin = float(sv[-1])
        return float(np.inf if smin == 0.0 else 1.0 / smin)

    @functools.cached_property
    def norm_bound(self) -> float:
        n, p = self.normalized.shape[1], self.normalized.shape[0] - 1
        return float(constants_from_lambda(self.kind, self.lam, n=n, p=p))

    @functools.cached_property
    def satisfied(self) -> bool:
        return bool(self.matrix_norm <= self.norm_bound + 1e-9)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind._label,
            "lambda": self.lam,
            "per_point_max": list(self.per_point_max),
            "matrix_norm": self.matrix_norm,
            "norm_bound": self.norm_bound,
            "satisfied": self.satisfied,
        }


def lambda_poisedness(sample_set: SampleSet, kind) -> PoisednessCertificate:
    """Measure the poisedness constant by maximizing each Lagrange polynomial.

    The constant is max_j max_{x in ball} |l_j(x)|, computed exactly by the
    ball extremizer on the normalized set.  The certificate also records the
    scaled design matrix's inverse (or pseudoinverse) norm and the cap
    implied by the measured constant.  ``kind`` is anything ``ModelKind``
    takes, such as PoisednessKind.LINEAR or "linear".
    """
    kind = ModelKind(kind)
    coeffs = _lagrange_coeffs(sample_set, kind)
    values, _ = max_abs_on_ball(coeffs, np.zeros(sample_set.n), 1.0)
    return _certificate(sample_set, kind, values)


def _certificate(
    sample_set: SampleSet, kind: ModelKind, values
) -> PoisednessCertificate:
    # values[j] is max |l_j| over the ball, for the kind's Lagrange basis.
    # The certificate keeps the set's normalized points, not the set: a
    # generated shape holds its certificate, and a cycle would leave both
    # to the cyclic collector.
    per_point = tuple(float(v) for v in values)
    return PoisednessCertificate(
        kind, float(max(per_point)), per_point, normalized_points(sample_set)
    )


def _unit_ball_points(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    u = rng.standard_normal((count, n))
    norms = _rownorm(u, 1)[:, None]
    norms[norms == 0.0] = 1.0
    radii = rng.uniform(size=(count, 1)) ** (1.0 / n)
    return u / norms * radii


def generate_poised_set(
    n: int,
    p: int,
    delta: float,
    lambda_max: float,
    seed: int,
    center=None,
    *,
    shape: Optional[SampleSet] = None,
) -> SampleSet:
    """Draw a sample set in the ball and improve it until it certifies.

    Points are drawn uniformly in the unit ball.  While the measured
    constant exceeds ``lambda_max``, the non-center point whose Lagrange
    polynomial peaks highest is replaced by that polynomial's own maximizer;
    the center stays fixed because it anchors the ball.

    The interpolation kind is inferred from (n, p): p = n is degree 1,
    p = q is degree 2, n < p < q is minimum-norm.  The returned set carries
    the certificate of that kind in ``certificate``, equal to what
    ``lambda_poisedness`` would compute for it.

    The shape is exactly the same for every center and delta: the loop runs
    on the unit ball at the origin and depends only on (n, p, lambda_max,
    seed); the set is then placed at ``center + delta * U``.  Lambda and the
    Lagrange basis are invariant under that map, so placement only checks
    what rounding can break: the placed points must be finite, pairwise
    distinct and within delta of the center (ValueError otherwise, with the
    message SampleSet gives).  The placed set reuses the certified unit set
    U as its normalized points, the Lagrange basis already solved for on it
    and its certificate, so later fits use exactly the certified geometry.

    ``shape``, when given, is the unit shape ``_certify_shapes`` certified
    for (n, p, lambda_max, seed), and is placed without running the loop;
    ValueError if it holds another (n, p).
    """
    n, p, seed = _integer("n", n, 1), _integer("p", p, 1), _integer("seed", seed, 0)
    delta = _number("delta", delta, 0.0, strict=True)
    _number("lambda_max", lambda_max, 1.0, strict=True)
    _kind_for_shape(n, p)
    center = np.zeros(n) if center is None else np.asarray(center, dtype=float).ravel()
    if center.shape != (n,):
        raise ValueError(f"center must have shape ({n},), got {center.shape}")

    if shape is None:
        key = (n, p, lambda_max, seed)
        shape = _read(_certify_shapes([key]), key)
    elif (shape.n, shape.p) != (n, p):
        raise ValueError(
            f"shape is certified for (n, p) = ({shape.n}, {shape.p}), "
            f"not the requested ({n}, {p})"
        )
    return _place(shape, center, delta)


def _read(store: dict, key):
    # A stage value.  A key that failed holds its exception, which each
    # reader raises with a fresh traceback, not one grown per raise.
    value = store[key]
    if isinstance(value, Exception):
        raise value.with_traceback(None)
    return value


def _place(shape: SampleSet, center: np.ndarray, delta: float) -> SampleSet:
    # The unit shape at center + delta * U.  It passed every SampleSet check;
    # placing it only re-checks what rounding can break, and shares the rest.
    points = center + delta * shape.points
    _check_points(points, delta)
    points.setflags(write=False)
    placed = SampleSet.__new__(SampleSet)
    vars(placed).update(
        points=points,
        radius=delta,
        certificate=shape.certificate,
        _normalized=shape._normalized,
        _system=shape._system,
    )
    return placed


def _certify_shapes(keys) -> dict:
    """Each (n, p, lambda_max, seed) key's certified unit shape, or its exception."""
    loops = {key: _improve_shape(_kind_for_shape(*key[:2]), *key) for key in dict.fromkeys(keys)}
    return _drive(loops, max_abs_on_ball)


def _drive(loops: dict, solve) -> dict:
    """Run the stage loops {key: loop} and return each key's value.

    A loop yields coefficient stacks on the unit ball in R^n, receives their
    (values, args) of max |l_j| and returns its key's value.  The loops, of
    any n, run in one lockstep, one call of ``solve`` (``max_abs_on_ball``,
    as the caller binds it) per step, so each value equals its loop's alone
    and a stage makes as many calls as its slowest loop takes steps.  A
    failed solve is thrown into its own loop (see ``_solve_stacks``), and a
    loop that raises leaves its exception without the traceback and
    context, whose frames would hold other keys' values.
    """
    ended = {}
    replies = dict.fromkeys(loops)  # None starts a loop
    while True:
        stacks = {}
        for key, reply in replies.items():
            advance = loops[key].throw if isinstance(reply, Exception) else loops[key].send
            try:
                stacks[key] = advance(reply)
            except StopIteration as stop:
                ended[key] = stop.value
            except Exception as exc:
                exc.__traceback__ = exc.__context__ = None
                ended[key] = exc
        if not stacks:
            return ended
        replies = dict(zip(stacks, _solve_stacks(list(stacks.values()), solve)))


def _solve_stacks(stacks: list, solve) -> list:
    """(values, args) of max |l_j| over the unit ball for each stack, in order.

    One call of ``solve`` takes them all: a list of each n's rows in order,
    n read off a stack's (n + 1)(n + 2)/2 columns, with a list of centers.
    If that raises, each stack is solved alone, and one that raises gets its
    exception: a failure belongs to its stack, not to the others or the caller.
    """
    try:
        parts = {}  # width: its stacks, in order
        for c in stacks:
            parts.setdefault(c.shape[1], []).append(c)
        centers = [np.zeros((math.isqrt(8 * width + 1) - 3) // 2) for width in parts]
        solved = solve([np.vstack(part) for part in parts.values()], centers, 1.0)
    except Exception as exc:
        if len(stacks) == 1:
            return [exc]
        return [_solve_stacks([c], solve)[0] for c in stacks]
    replies = {}  # width: the replies of its stacks, in order
    for (width, part), values, args in zip(parts.items(), *solved):
        ends = list(itertools.accumulate(len(c) for c in part))
        replies[width] = iter([(values[s:e], args[s:e]) for s, e in zip([0, *ends], ends)])
    return [next(replies[c.shape[1]]) for c in stacks]


def _improve_shape(kind: ModelKind, n: int, p: int, lambda_max: float, seed: int):
    # generate_poised_set's improvement loop on the unit ball at the origin,
    # as a generator: it yields each candidate's Lagrange coefficient stack,
    # receives (values, args) of max |l_j| over the ball, and returns the
    # certified unit set with its certificate attached.
    rng = np.random.default_rng(seed)
    origin = np.zeros(n)
    points = np.vstack([origin, _unit_ball_points(rng, p, n)])
    best = np.inf
    for _ in range(_MAX_ITERS):
        try:
            shape = SampleSet(points, 1.0)
            coeffs = _lagrange_coeffs(shape, kind)
        except (NotPoisedError, ValueError):
            points = np.vstack([origin, _unit_ball_points(rng, p, n)])
            continue
        values, args = yield coeffs
        lam = float(np.maximum.reduce(values))
        best = min(best, lam)
        if lam <= lambda_max:
            object.__setattr__(shape, "certificate", _certificate(shape, kind, values))
            return shape
        # Replace the worst non-center point by its polynomial's maximizer;
        # SampleSet copied the points, so they can change in place.
        j = 1 + int(np.argmax(values[1:]))
        points[j] = args[j]
    raise RuntimeError(
        f"could not reach lambda <= {lambda_max} in {_MAX_ITERS} iterations; "
        f"best found {best:.6g}"
    )
