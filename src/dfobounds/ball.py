"""Exact extremization of quadratic polynomials over closed Euclidean balls.

``extremize_batch`` finds certified global minimizers of a stack of
quadratics g.z + z^T H z / 2 on one ball ||z|| <= r.  A global minimizer
is a feasible z with a multiplier mu such that H + mu I is positive
semidefinite, mu (r - ||z||) = 0 and (H + mu I) z = -g (Moré & Sorensen,
"Computing a trust region step", SIAM J. Sci. Stat. Comput. 4, 1983).

The whole stack shares one batched eigendecomposition.  In the eigenbasis
the boundary multiplier is the root of the secular function
1/||z(mu)|| - 1/r, which is increasing and concave to the right of the pole
at -lambda_min.  A vectorised Newton iteration starts from a lower bound on
the root, so its iterates stay between the pole and the root.

Near the hard case (a tiny gradient component g_cluster on the extreme
eigenspace) the root sits so close to the pole that mu cannot resolve it
in floating point.  The step is then completed instead: its components off
the extreme eigenspace are kept, the extreme component is filled in along
-g_cluster with the length tau that takes the step to the sphere, and mu
is reset to -lambda_min + ||g_cluster|| / tau.  The same completion along
an extreme eigenvector, with both signs, covers the exact hard case.
Where the completed step certifies it replaces the plain Newton step.

Each item keeps the best of its interior, boundary and completed candidates
that passes the certificate: mu >= max(0, -lambda_min), complementarity
mu (r - ||z||) = 0 and stationarity, each to 1e-10 after scaling by the
item's coefficient magnitude.  An item with no certified candidate raises.

An item whose Hessian is all exact zeros is affine, and its minimizer is
known in closed form: z = -r g / ||g|| with mu = ||g|| / r, or the center
with mu = 0 when g = 0 (Cauchy-Schwarz).  Such items skip the
eigendecomposition and the Newton iteration; their residuals are reported
like the others'.

``extremize_on_ball`` and ``max_abs_on_ball`` take one polynomial, read as
its coefficient row, or a stack on one ball: a (k, q+1) array of FULL
degree-2 coefficients, such as the Lagrange basis of a sample set.  A stack
is one batched solve for both signs, on one shared eigendecomposition.  A
list of stacks of several dimensions, each with its own center, is one
solve as well: one eigendecomposition per stack, then one Newton iteration
and one certificate for all rows, in which a row of dimension n pads the
wider eigenbases with inactive components.  Each sum over the n axis runs
per stack, so every stack gets the bits it gets alone.
A brute-force lattice oracle is provided as an independent cross-check for
low dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _number
from .poly import QuadraticPolynomial, _split_coeffs, space_dim

__all__ = [
    "BallExtremum",
    "BallSolution",
    "extremize_batch",
    "extremize_on_ball",
    "max_abs_on_ball",
    "grid_oracle",
    "lipschitz_on_ball",
]

GRID_BUDGET = 10_000_000
GRID_MAX_DIM = 4
_CHUNK_POINTS = 1_000_000
_NEWTON_ITERS = 100
_TOL = 1e-10  # cap on each scaled certificate residual
_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class BallExtremum:
    """Global extrema of a quadratic over a closed ball.

    ``solver_residual`` is the largest certificate residual (stationarity
    or complementarity) of the two one-sided solves, scaled by the
    coefficient magnitude.
    """

    max_value: float
    argmax: np.ndarray
    min_value: float
    argmin: np.ndarray
    solver_residual: float


@dataclass(frozen=True)
class BallSolution:
    """Certified global minimizers of a stack of k quadratics on one ball.

    Row i of ``z`` (shape (k, n)) minimizes g_i.z + z^T H_i z / 2 over
    ||z|| <= radius, with multiplier ``mu[i]``.  ``complementarity`` is
    |mu (radius - ||z||)| and ``stationarity`` is ||(H + mu I) z + g||,
    both divided by ||g|| + ||H|| radius; each is at most 1e-10.
    """

    z: np.ndarray
    mu: np.ndarray
    complementarity: np.ndarray
    stationarity: np.ndarray


def extremize_batch(G, H, radius: float) -> BallSolution:
    """Certified global minimizers of g_i.z + z^T H_i z / 2 over ||z|| <= radius.

    Parameters
    ----------
    G : array_like, shape (k, n)
        Gradients at the ball center.
    H : array_like, shape (k, n, n)
        Symmetric Hessians.
    radius : float
        Positive ball radius.

    Raises RuntimeError when some item has no candidate that certifies.
    Candidates whose values tie to 1e-14 relative (to the larger of the
    value and the item's scale ||g|| r + ||H|| r^2) resolve to the
    lexicographically smallest step.  Maximizers are the minimizers of
    (-G, -H).
    """
    G = np.asarray(G, dtype=float)
    H = np.asarray(H, dtype=float)
    if G.ndim != 2 or H.shape != G.shape + (G.shape[1],):
        raise ValueError(
            f"need G of shape (k, n) and H of shape (k, n, n), got {G.shape} and {H.shape}"
        )
    r = _number("radius", radius, 0.0, strict=True)
    if not (np.isfinite(G).all() and np.isfinite(H).all()):
        raise ValueError("gradients and Hessians must be finite")
    return _extremize([(G, H)], r)[0]


def _rownorm(x: np.ndarray, axis: int) -> np.ndarray:
    # np.linalg.norm(x, axis=axis) for real x, without its dispatch.
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _extremize(stacks, r: float, both: bool = False) -> list:
    # extremize_batch on checked float arrays and radius, for a list of
    # (G, H) stacks of any dimensions: one BallSolution per stack.  With
    # both, the rows of (-G, -H) follow those of (G, H) in each.  A row whose
    # Hessian is all exact zeros takes the closed form (_affine); the others
    # of every stack share one general solve, with one eigendecomposition per
    # stack, which a stack of affine rows alone does not run.
    out, parts, curves = [], [], []
    for G, H in stacks:
        curved = np.logical_or.reduce(H != 0.0, axis=(1, 2))
        every = np.logical_and.reduce(curved)
        if both:
            G = np.vstack([G, -G])
        flat = None
        if not every:
            # Every row in closed form; the curved rows' answers are replaced.
            flat = _affine(G, r)
            if not np.logical_or.reduce(curved):
                out.append(flat)
                continue
            H = H[curved]
        # Ascending eigenvalues, eigenvectors in columns.  eigh(-H) is eigh(H)
        # with the eigenvalues negated and their order, and the eigenvector
        # columns with them, reversed.
        w, Q = np.linalg.eigh(H)
        if both:
            w, Q = np.concatenate([w, -w[:, ::-1]]), np.concatenate([Q, Q[:, :, ::-1]])
            H, curved = np.concatenate([H, -H]), np.concatenate([curved, curved])
        parts.append((G if every else G[curved], H, w, Q))
        curves.append((len(out), None if every else curved))
        out.append(flat)
    if not parts:
        return out

    def name(p, j):
        # Row j of part p's general solve, as the caller counts its rows.
        stack, curved = curves[p]
        item = j if curved is None else int(np.flatnonzero(curved)[j])
        return f"item {item} of stack {stack}" if len(stacks) > 1 else f"item {item}"

    for (i, curved), sol in zip(curves, _certified(parts, r, name)):
        if curved is None:
            out[i] = sol
            continue
        for field in ("z", "mu", "complementarity", "stationarity"):
            getattr(out[i], field)[curved] = getattr(sol, field)
    return out


def _affine(G, r: float) -> BallSolution:
    # Minimizers of g.z over ||z|| <= r in closed form: z = -r g / ||g||
    # with mu = ||g|| / r, or z = 0 and mu = 0 where g = 0.  ||g|| is taken
    # of g over its largest |g_i|, so no square under- or overflows.
    top = np.maximum.reduce(np.abs(G), axis=1)
    g_norm = top * _rownorm(G / np.where(top > 0.0, top, 1.0)[:, None], 1)
    Z = (G / np.where(g_norm > 0.0, g_norm, 1.0)[:, None]) * -r
    mu = g_norm / r
    scale = np.maximum(_TINY, g_norm)
    return BallSolution(
        z=Z,
        mu=mu,
        complementarity=np.abs(mu * (r - _rownorm(Z, 1))) / scale,
        stationarity=_rownorm(mu[:, None] * Z + G, 1) / scale,
    )


def _nsum(x, spans):
    # Row sums of a (k, N) array x, for spans [(rows, n), ...]: each
    # part's rows sum only their own n components, in the order they would
    # alone, since a sum over padding is not bit-neutral.
    out = np.empty(len(x))
    for rows, n in spans:
        np.add.reduce(x[rows, :n], axis=1, out=out[rows])
    return out


def _certified(parts, r: float, name) -> list:
    # _extremize's general solve of the curved rows of every part (G, H, w,
    # Q), with (w, Q) the eigendecomposition of H, w ascending per row: one
    # BallSolution per part.  The rows of parts of several dimensions share
    # one solve: in the eigenbasis a row of dimension n < N pads components
    # n..N-1 as inactive, with zero gradient and its largest eigenvalue,
    # which no elementwise step, maximum or logical reduction sees.  Every
    # contraction over the n axis runs per part (_nsum, _rotated), so no
    # row's bits depend on what shares its solve; one part has no padding.
    # A row with no certified candidate raises, named by name(part, row).
    spans, k = [], 0
    for G, *_ in parts:
        spans.append((slice(k, k + len(G)), G.shape[1]))
        k += len(G)
    gh = np.zeros((k, max(n for _, n in spans)))
    w, g_norm = np.empty_like(gh), np.empty(k)
    for (rows, n), (G, _, w_part, Q) in zip(spans, parts):
        gh[rows, :n] = np.einsum("kji,kj->ki", Q, G)
        w[rows, :n] = w_part
        w[rows, n:] = w_part[:, -1:]
        g_norm[rows] = _rownorm(G, 1)
    k, n = gh.shape
    lam = w[:, 0]
    h_scale = np.maximum.reduce(np.abs(w), axis=1)
    scale = np.maximum(_TINY, g_norm + h_scale * r)
    mu_lo = np.maximum(0.0, -lam)

    # The extreme eigenspace, and whether the gradient is too small on it to
    # matter; such a component is dropped so the pole at -lambda_min goes.
    # Adding 0.0 turns -0.0 into 0.0, so every inactive component is +0.0.
    cluster = w <= (lam + 1e-12 * h_scale)[:, None]
    g_cluster = np.where(cluster, gh, 0.0)
    g_cluster = np.sqrt(_nsum(g_cluster * g_cluster, spans))
    degenerate = g_cluster <= 1e-11 * g_norm
    gh_eff = np.where(cluster & degenerate[:, None], 0.0, gh) + 0.0
    g_cluster = np.where(degenerate, 0.0, g_cluster)
    active = gh_eff != 0.0
    # Inactive components divide by 1 + mu >= 1, which leaves them +0.0.
    w_act = np.where(active, w, 1.0)

    def step(mu):
        # Eigen-coordinates of -z(mu), and the shifted eigenvalues.
        d = w_act + mu[:, None]
        return gh_eff / d, d

    # Interior candidate: H positive semidefinite and g in its range.  Where
    # no item is, the candidate is never offered and its block is skipped.
    pos_tol = 1e-13 * h_scale
    ok_int = lam >= -pos_tol
    if np.logical_or.reduce(ok_int):
        pos = w > pos_tol[:, None]
        z_int = -np.divide(gh, w, out=np.zeros_like(gh), where=pos)
        n_int = np.sqrt(_nsum(z_int * z_int, spans))
        in_range = np.abs(gh) <= (1e-13 * g_norm)[:, None]
        ok_int &= np.logical_and.reduce(pos | in_range, axis=1) & (n_int <= r * (1.0 + 1e-12))
    else:
        z_int = np.zeros_like(gh)

    # Boundary candidate.  ||z(mu)|| >= |gh_i| / (w_i + mu) for every i, so
    # the root lies right of every |gh_i| / r - w_i; start at the largest.
    bound = np.maximum.reduce(np.where(active, np.abs(gh_eff) / r - w, -np.inf), axis=1)
    mu = np.maximum(mu_lo, bound)
    pole = ~degenerate & (mu <= -lam)
    mu = np.where(pole, -lam + np.maximum(4.0 * _EPS * np.abs(lam), 1e-300), mu)
    t, d = step(mu)
    live = np.logical_and.reduce((d > 0.0) | ~active, axis=1)
    live &= np.logical_or.reduce(active, axis=1)
    ok_bnd = live.copy()
    # One floating-point state for the Newton and completion steps: a step at
    # or past the pole divides by zero or overflows, and the finiteness and
    # certificate checks reject its candidate.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(_NEWTON_ITERS):
            if not np.logical_or.reduce(live):
                break
            tt = t * t
            s2 = _nsum(tt, spans)
            s = np.sqrt(s2)
            slope = _nsum(np.divide(tt, d, out=tt), spans)
            delta = np.maximum((s - r) / r * s2 / slope, 0.0)
            finite = np.isfinite(delta)
            ok_bnd &= finite | ~live
            live &= finite
            np.add(mu, delta, out=mu, where=live)
            live &= delta > 2.0 * _EPS * mu
            np.divide(gh_eff, np.add(w_act, mu[:, None], out=d), out=t)
        # Where Newton stopped inside the sphere (mu = 0 with an interior
        # minimizer, or past the root at the pole) the interior or completed
        # candidate covers the item; a step short of the sphere is not
        # offered as a boundary one.
        reached = np.sqrt(_nsum(t * t, spans)) >= r * (1.0 - _TOL)
        mu_bnd = mu

        # Completion on the extreme eigenspace, from the boundary multiplier
        # when there is one and from the pole otherwise.
        base = np.where(ok_bnd, mu_bnd, mu_lo)
        t_rest, _ = step(base)
        t_rest[cluster] = 0.0
        tau2 = r * r - _nsum(t_rest * t_rest, spans)
        ok_cmp = tau2 > 0.0
        tau = np.sqrt(np.maximum(tau2, 0.0))
        unit = np.where(g_cluster > 0.0, g_cluster, 1.0)
        direction = np.where(cluster, -gh, 0.0) / unit[:, None]
        direction[degenerate, :] = 0.0
        direction[degenerate, 0] = 1.0
        mu_cmp = np.maximum(0.0, -lam + np.where(g_cluster > 0.0, g_cluster / tau, 0.0))
    ok_cmp &= np.isfinite(mu_cmp)

    # Certify every candidate in the original coordinates: interior,
    # completed, completed with the other sign (hard case only), boundary.
    Zh = np.empty((k, 4, n))
    Zh[:, 0] = z_int
    Zh[:, 1] = -t_rest + tau[:, None] * direction
    Zh[:, 2] = -t_rest - tau[:, None] * direction
    Zh[:, 3] = -t
    MU = np.empty((k, 4))
    MU[:, 0] = 0.0
    MU[:, 1] = mu_cmp
    MU[:, 2] = mu_cmp
    MU[:, 3] = mu_bnd
    ok = np.empty((k, 4), dtype=bool)
    ok[:, 0] = ok_int
    ok[:, 1] = ok_cmp
    ok[:, 2] = ok_cmp & degenerate
    ok[:, 3] = ok_bnd & reached
    Zh[~ok] = 0.0
    MU[~ok] = 0.0
    # Pad components stay 0.0 in every candidate, so the lexicographic
    # tie-break below reads a row's own components only.
    Z, norms = np.zeros_like(Zh), np.empty((k, 4))
    stationarity, value = np.empty((k, 4)), np.empty((k, 4))
    for (rows, dim), part in zip(spans, parts):
        Z[rows, :, :dim], norms[rows], stationarity[rows], value[rows] = _rotated(
            part, np.ascontiguousarray(Zh[rows, :, :dim]), MU[rows], scale[rows], r
        )
    complementarity = np.abs(MU * (r - norms)) / scale[:, None]
    dual = (mu_lo[:, None] - MU) * r / scale[:, None]
    residual = np.maximum(np.maximum(stationarity, complementarity), dual)
    certified = ok & (residual <= _TOL)
    # The completed and the plain boundary step approximate the same point:
    # near the pole the completed one is accurate, far from it the plain
    # one.  Where both certify, the smaller residual stays.
    both = certified[:, 1] & certified[:, 3]
    completed_better = residual[:, 1] <= residual[:, 3]
    certified[:, 3] &= ~(both & completed_better)
    certified[:, 1:3] &= ~(both & ~completed_better)[:, None]
    uncertified = ~np.logical_or.reduce(certified, axis=1)
    if np.logical_or.reduce(uncertified):
        i = int(np.flatnonzero(uncertified)[0])
        worst = np.where(ok[i], residual[i], np.inf)
        p = next(p for p, (rows, _) in enumerate(spans) if i < rows.stop)
        raise RuntimeError(
            f"no candidate certifies for {name(p, i - spans[p][0].start)}: smallest "
            f"residual {float(worst.min()):.3e} exceeds tol {_TOL:.3e}"
        )

    value = np.where(certified, value, np.inf)
    best = np.minimum.reduce(value, axis=1)
    tied = value <= (best + 1e-14 * np.maximum(np.abs(best), scale * r))[:, None]
    choice = tied.argmax(axis=1)
    for i in np.flatnonzero(np.add.reduce(tied, axis=1) > 1):
        choice[i] = min(np.flatnonzero(tied[i]), key=lambda c: tuple(Z[i, c]))
    every = np.arange(k)
    z, mu = Z[every, choice], MU[every, choice]
    complementarity = complementarity[every, choice]
    stationarity = stationarity[every, choice]
    return [
        BallSolution(z[rows, :dim], mu[rows], complementarity[rows], stationarity[rows])
        for rows, dim in spans
    ]


def _rotated(part, Zh, MU, scale, r: float) -> tuple:
    # For one part's rows: the candidates Zh (k, 4, n) rotated out of the
    # eigenbasis and clipped to the ball, their norms, stationarity scaled
    # by the rows' scale, and values.
    G, H, _, Q = part
    Z = np.einsum("kij,kcj->kci", Q, Zh)
    norms = _rownorm(Z, 2)
    Z *= np.minimum(1.0, r / np.where(norms > 0.0, norms, 1.0))[:, :, None]
    norms = np.minimum(norms, r)
    HZ = np.einsum("kij,kcj->kci", H, Z)
    gap = HZ + MU[:, :, None] * Z + G[:, None, :]
    stationarity = _rownorm(gap, 2) / scale[:, None]
    value = np.einsum("ki,kci->kc", G, Z) + 0.5 * np.einsum("kci,kci->kc", Z, HZ)
    return Z, norms, stationarity, value


def _stack(coeffs, center):
    """Coefficients of a stack and its gradients at center.

    ``coeffs`` is an array of shape (k, q+1) whose rows are coefficients
    over the FULL degree-2 basis; the center fixes n.
    """
    center = np.asarray(center, dtype=float).ravel()
    A = np.asarray(coeffs)
    width = space_dim(2, center.size)
    if A.ndim != 2 or A.shape[1] != width or not len(A):
        raise ValueError(
            f"need a (k, {width}) coefficient array, k >= 1, for a center in "
            f"R^{center.size}, got shape {A.shape}"
        )
    # C order, so each row's sums run in one order whatever the caller's
    # layout: a row's result does not depend on the stack it sits in.
    A = np.ascontiguousarray(A, dtype=float)
    # The Hessians copy the second-order coefficients, so one check covers them.
    if not (
        np.logical_and.reduce(np.isfinite(A), axis=None)
        and np.logical_and.reduce(np.isfinite(center))
    ):
        raise ValueError("polynomial coefficients and center must be finite")
    c, g, H = _split_coeffs(A, center.size)
    return center, c, g, H, g + H @ center


def _pick_abs(vmax, argmax, vmin, argmin):
    """Per item, the larger of |max| and |min| with its argument.

    Values within 1e-12 relative tie, and a tie goes to the
    lexicographically smaller argument.
    """
    amax, amin = np.abs(vmax), np.abs(vmin)
    gap = 1e-12 * np.maximum(1.0, np.maximum(amax, amin))
    # Two arguments compare at the first coordinate where they differ.
    first = (argmin != argmax).argmax(axis=1)
    rows = np.arange(len(first))
    smaller = argmin[rows, first] < argmax[rows, first]
    take_min = (amin > amax + gap) | ((amax <= amin + gap) & (amin <= amax + gap) & smaller)
    return np.where(take_min, amin, amax), np.where(take_min[:, None], argmin, argmax)


def extremize_on_ball(m, center, radius: float) -> BallExtremum:
    """Global max and min of ``m`` over the closed ball B(center, radius).

    Parameters
    ----------
    m : QuadraticPolynomial, an array of shape (k, q+1), or a list of arrays
        A polynomial is read as its ``coeffs()`` row.  Rows are coefficients
        over the FULL degree-2 basis, in the coordinates of ``center``.  A
        stack is solved with one batched eigendecomposition; every field of
        the result but ``solver_residual`` then has a leading axis of length
        k.  A list of stacks, of any dimensions, takes a list of as many
        centers and is one solve (one eigendecomposition per stack); every
        field but ``solver_residual`` is then a list with one entry per
        stack, bit for bit what that stack gives alone.
    center : array_like, shape (n,), or a list of them
    radius : float
        Positive ball radius.

    Returns
    -------
    BallExtremum
        Reported values are evaluations of the polynomials at the returned
        arguments, which lie in the closed ball.  ``solver_residual`` is
        the largest over the whole solve.

    Raises RuntimeError when some row has no candidate that certifies.  The
    message names item j for the minimum of row j of a k-row stack and item
    k + j for its maximum, and the stack's position when a list holds several.
    """
    single = isinstance(m, QuadraticPolynomial)
    # A list of 2-D arrays is a list of stacks; as one array it would be 3-D.
    grouped = isinstance(m, list) and (not m or getattr(m[0], "ndim", 0) == 2)
    if grouped:
        if not m:
            raise ValueError("need at least one stack, got an empty list")
        if not (isinstance(center, list) and len(center) == len(m)):
            raise ValueError(f"need a list of {len(m)} centers, one per stack")
        stacks = [_stack(A, c) for A, c in zip(m, center)]
    else:
        stacks = [_stack(m.coeffs()[None, :] if single else m, center)]
    r = _number("radius", radius, 0.0, strict=True)
    sols = _extremize([(g0, H) for _, _, _, H, g0 in stacks], r, both=True)
    fields = []
    for (center, c, g, H, _), sol in zip(stacks, sols):
        k = len(c)
        X = center + sol.z
        c2, g2, H2 = np.concatenate([c, c]), np.vstack([g, g]), np.concatenate([H, H])
        values = (
            c2 + np.einsum("ki,ki->k", g2, X) + 0.5 * np.einsum("ki,kij,kj->k", X, H2, X)
        )
        fields.append((values[k:], X[k:], values[:k], X[:k]))
    residual = max(
        float(np.maximum.reduce(np.maximum(sol.stationarity, sol.complementarity)))
        for sol in sols
    )
    if single:
        ((vmax, argmax, vmin, argmin),) = fields
        return BallExtremum(float(vmax[0]), argmax[0], float(vmin[0]), argmin[0], residual)
    if grouped:
        return BallExtremum(*map(list, zip(*fields)), residual)
    return BallExtremum(*fields[0], residual)


def max_abs_on_ball(m, center, radius: float):
    """Maximum of |m| over the ball; returns (value, argument).

    For a (k, q+1) coefficient array as in ``extremize_on_ball``, one
    batched solve returns arrays of shapes (k,) and (k, n); for a list of
    stacks and a list of centers, one solve returns a list of each, one
    entry per stack.  Ties between the max and min branches (1e-12
    relative) are broken toward the lexicographically smaller argument.
    """
    single = isinstance(m, QuadraticPolynomial)
    ext = extremize_on_ball(m.coeffs()[None, :] if single else m, center, radius)
    if isinstance(ext.max_value, list):
        picks = map(_pick_abs, ext.max_value, ext.argmax, ext.min_value, ext.argmin)
        return tuple(map(list, zip(*picks)))
    values, args = _pick_abs(ext.max_value, ext.argmax, ext.min_value, ext.argmin)
    if single:
        return float(values[0]), args[0]
    return values, args


def lipschitz_on_ball(m: QuadraticPolynomial, center, radius: float) -> float:
    """Lipschitz constant of m on the ball: ||g|| + ||H|| (||center|| + radius)."""
    radius = _number("radius", radius, 0.0, strict=True)
    center = _center(center, m.dim)
    return float(
        np.linalg.norm(m.gradient)
        + np.linalg.norm(m.hessian, 2) * (np.linalg.norm(center) + radius)
    )


def _center(center, n: int) -> np.ndarray:
    # center as a finite float vector in R^n; ValueError naming it if not.
    center = np.asarray(center, dtype=float).ravel()
    if center.shape != (n,):
        raise ValueError(f"center must have shape ({n},), got {center.shape}")
    if not np.isfinite(center).all():
        raise ValueError("center must be finite")
    return center


def grid_oracle(m: QuadraticPolynomial, center, radius: float, resolution: float):
    """Brute-force max of |m| over lattice points of the ball.

    Enumerates the lattice center + resolution * k, k integer, restricted to
    the closed ball, in lexicographic order, and returns (value, argument)
    with ties resolved to the first, lexicographically smallest, argument.
    The 2n axis points on the sphere are evaluated as well; without them the
    one-dimensional boundary gap makes the Lip * resolution agreement with
    the exact solver sharp rather than conservative.  Intended as an
    independent low-dimensional cross-check: n is capped at GRID_MAX_DIM and
    the lattice at GRID_BUDGET points.
    """
    n = m.dim
    if n > GRID_MAX_DIM:
        raise ValueError(f"grid oracle supports n <= {GRID_MAX_DIM}, got n = {n}")
    radius = _number("radius", radius, 0.0, strict=True)
    resolution = _number("resolution", resolution, 0.0, strict=True)
    center = _center(center, n)

    k = int(np.floor(radius / resolution + 1e-12))
    side = 2 * k + 1
    if float(side) ** n > GRID_BUDGET:
        raise ValueError(f"lattice of {side}^{n} points exceeds {GRID_BUDGET}")
    axis = np.arange(-k, k + 1, dtype=float) * resolution
    r2 = radius * radius * (1.0 + 1e-12)

    # m(center + z) = m(center) + sum_j z_j (g_j + H_jj z_j / 2 + sum_{l>j} H_jl z_l),
    # with g the gradient at the center.  The terms of z_1..z_{n-1} and
    # their squared norm are summed over the trailing lattice block by
    # broadcasting, last axis first; z_0's terms are added one chunk of
    # leading slabs at a time, and the ball is masked afterwards.
    H = m.hessian
    g = m.gradient + H @ center

    def cross(j):
        # sum_{l>j} H_jl z_l over the lattice block of axes j+1..n-1.
        d = n - 1 - j
        out = np.zeros(())
        for i in range(d):
            shape = [side if t == i else 1 for t in range(d)]
            out = out + H[j, j + 1 + i] * axis.reshape(shape)
        return out

    tail = tail_sq = np.zeros(())
    for j in range(n - 1, 0, -1):
        a = axis.reshape((side,) + (1,) * (n - 1 - j))
        tail = a * (g[j] + 0.5 * H[j, j] * a) + a * cross(j) + tail
        tail_sq = a * a + tail_sq
    lead_cross = cross(0)
    m0 = m.eval(center)
    rows_per_chunk = max(1, _CHUNK_POINTS // tail.size)

    best_val = -np.inf
    best_arg = None
    for start in range(0, side, rows_per_chunk):
        a = axis[start : start + rows_per_chunk].reshape((-1,) + (1,) * (n - 1))
        vals = a * lead_cross + tail
        vals += m0 + a * (g[0] + 0.5 * H[0, 0] * a)
        np.abs(vals, out=vals)
        vals[a * a + tail_sq > r2] = -np.inf
        # C order is lexicographic order, so argmax takes the first maximum.
        i = int(vals.argmax())
        if vals.flat[i] > best_val:
            best_val = float(vals.flat[i])
            index = np.unravel_index(i, vals.shape)
            best_arg = center + axis[[start + index[0], *index[1:]]]
    axis_pts = center + radius * np.vstack([np.eye(n), -np.eye(n)])
    axis_vals = np.abs(m.eval_batch(axis_pts))
    i = int(np.argmax(axis_vals))
    if axis_vals[i] > best_val:
        best_val = float(axis_vals[i])
        best_arg = axis_pts[i]
    if best_arg is None:
        best_arg = center.copy()
        best_val = abs(m.eval(center))
    return best_val, best_arg
