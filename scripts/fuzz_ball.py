#!/usr/bin/env python3
"""Fuzz the ball solver near the hard case and on affine rows.

Near-hard-case family: 76,800 seeded quadratics g.z + z^T H z / 2, 640 for
each n from 1 to 15 and each of eight radii from 1e-3 to 1e3.  The lowest
eigenvalue of H is repeated up to three times, and the gradient's component
on that eigenspace is scaled by 1e-18 to 1e-2, which puts the boundary
multiplier within roundoff of the pole.  Each (n, radius) group is one
``extremize_batch`` call.

Affine family: 7,680 rows c + g.x with a zero Hessian, ||g|| from 0 (one
row in eight) through 1e-12 to 1e3, on balls with off-origin centers, one
``extremize_on_ball`` call per (n, radius).

Mixed-n family: 80 calls of ``extremize_on_ball`` (ten per radius), each
a list of near-hard-case stacks of 64 rows at two or three distinct n from
1 to 15.  A case fails if the call or a stack's call alone raises, if any
field of a stack differs by a bit from its call alone, or if a residual
exceeds 1e-10.

A case fails if its solve raises, if it returns an argument outside the
ball, or if a sampled point of the ball beats its minimum (or, for the
affine rows, its maximum) by more than 1e-9 of the item's scale
||g|| r + ||H|| r^2.  The samples are uniform in the ball, plus the sphere
points along +-g, +-g's part off the extreme eigenspace and each
eigenvector.  Prints one line per family and exits 1 on any failure.
"""

import argparse
import sys

import numpy as np

from dfobounds import extremize_batch, extremize_on_ball, space_dim

DIMS = range(1, 16)
RADII = np.logspace(-3.0, 3.0, 8)
CASES = 640  # near-hard cases per (n, radius)
MIXED_CALLS = 10  # mixed-n calls per radius
MIXED_CASES = 64  # near-hard rows per stack of a mixed-n call
AFFINE_CASES = 64  # affine rows per (n, radius)
SAMPLES = 64  # uniform ball samples per case
SLACK = 1e-9
OUTSIDE = 1e-14  # relative distance beyond the radius that counts as outside


def _ball_samples(rng, k, n, r):
    # k sets of SAMPLES points uniform in the ball of radius r, shape (k, SAMPLES, n).
    z = rng.standard_normal((k, SAMPLES, n))
    z /= np.linalg.norm(z, axis=2, keepdims=True)
    return z * (r * rng.uniform(size=(k, SAMPLES, 1)) ** (1.0 / n))


def _on_sphere(v, r):
    # Rows of v scaled to length r; a zero row stays zero.
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    return v * (r / np.where(norm > 0.0, norm, 1.0))


def near_hard_group(rng, n, k=CASES):
    """k near-hard-case items of dimension n: (G, H, Q, E-free gradients)."""
    Q, _ = np.linalg.qr(rng.standard_normal((k, n, n)))
    w = np.sort(rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-1.0, 1.0, (k, 1)), axis=1)
    mult = rng.integers(1, min(n, 3) + 1, size=k)
    cluster = np.arange(n) < mult[:, None]
    w = np.where(cluster, w[:, :1], w)
    H = np.einsum("kij,kj,klj->kil", Q, w, Q)
    H = 0.5 * (H + H.transpose(0, 2, 1))
    # A gradient off the extreme eigenspace, plus a unit component on it
    # scaled by 10^-18 .. 10^-2.
    gh = rng.standard_normal((k, n)) * 10.0 ** rng.uniform(-1.0, 1.0, (k, 1))
    rest = np.where(cluster, 0.0, gh)
    on = np.where(cluster, rng.standard_normal((k, n)), 0.0)
    on /= np.linalg.norm(on, axis=1, keepdims=True)
    on *= 10.0 ** rng.uniform(-18.0, -2.0, (k, 1))
    G = np.einsum("kij,kj->ki", Q, rest + on)
    rest = np.einsum("kij,kj->ki", Q, rest)
    return G, H, Q, rest


def check_near_hard(rng):
    failures = 0
    for n in DIMS:
        for r in RADII:
            G, H, Q, rest = near_hard_group(rng, n)
            try:
                sol = extremize_batch(G, H, r)
            except Exception as exc:  # a raise is a failure, not a crash
                print(f"near-hard n={n} r={r:.0e}: raised {exc}")
                failures += CASES
                continue
            norms = np.linalg.norm(sol.z, axis=1)
            value = np.einsum("ki,ki->k", G, sol.z) + 0.5 * np.einsum(
                "ki,kij,kj->k", sol.z, H, sol.z
            )
            special = np.concatenate(
                [
                    _on_sphere(np.stack([G, -G, rest, -rest], axis=1), r),
                    r * Q.transpose(0, 2, 1),
                    -r * Q.transpose(0, 2, 1),
                ],
                axis=1,
            )
            Z = np.concatenate([_ball_samples(rng, CASES, n, r), special], axis=1)
            sampled = np.einsum("ki,ksi->ks", G, Z) + 0.5 * np.einsum(
                "ksi,kij,ksj->ks", Z, H, Z
            )
            scale = np.linalg.norm(G, axis=1) * r + np.linalg.norm(H, 2, axis=(1, 2)) * r * r
            beaten = sampled.min(axis=1) < value - SLACK * scale
            outside = norms > r * (1.0 + OUTSIDE)
            bad = beaten | outside
            for i in np.flatnonzero(bad)[:3]:
                print(
                    f"near-hard n={n} r={r:.0e} item {i}: value {value[i]!r}, "
                    f"best sample {sampled[i].min()!r}, ||z|| / r {norms[i] / r!r}"
                )
            failures += int(bad.sum())
    print(f"near-hard family: {len(DIMS) * len(RADII) * CASES} cases, {failures} failed")
    return failures


def check_affine(rng):
    failures = 0
    k = AFFINE_CASES
    for n in DIMS:
        for r in RADII:
            A = np.zeros((k, space_dim(2, n)))
            A[:, 0] = rng.standard_normal(k)
            g = rng.standard_normal((k, n))
            g *= 10.0 ** rng.uniform(-12.0, 3.0, (k, 1)) / np.linalg.norm(g, axis=1, keepdims=True)
            g[::8] = 0.0
            A[:, 1 : n + 1] = g
            center = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 3.0)
            try:
                ext = extremize_on_ball(A, center, r)
            except Exception as exc:
                print(f"affine n={n} r={r:.0e}: raised {exc}")
                failures += k
                continue
            X = center + np.concatenate([_ball_samples(rng, k, n, r), _on_sphere(
                np.stack([g, -g], axis=1), r)], axis=1)
            sampled = A[:, :1] + np.einsum("ki,ksi->ks", g, X)
            scale = np.linalg.norm(g, axis=1) * r + np.abs(A[:, 0] + g @ center)
            slack = SLACK * np.maximum(scale, np.finfo(float).tiny)
            # Adding the step to the center rounds by up to eps/2 per coordinate.
            dist = np.linalg.norm(np.concatenate([ext.argmax, ext.argmin]) - center, axis=1)
            far = r * (1.0 + OUTSIDE) + np.finfo(float).eps * (np.linalg.norm(center) + r)
            bad = (
                (sampled.max(axis=1) > ext.max_value + slack)
                | (sampled.min(axis=1) < ext.min_value - slack)
                | (dist.reshape(2, k) > far).any(axis=0)
            )
            for i in np.flatnonzero(bad)[:3]:
                print(f"affine n={n} r={r:.0e} row {i}: max {ext.max_value[i]!r}, "
                      f"min {ext.min_value[i]!r}, sampled {sampled[i].min()!r}..{sampled[i].max()!r}")
            failures += int(bad.sum())
    print(f"affine family: {len(DIMS) * len(RADII) * k} cases, {failures} failed")
    return failures


def _coeff_rows(G, H):
    # FULL degree-2 coefficient rows of g.z + z^T H z / 2, constant 0.
    k, n = G.shape
    rows, cols = np.triu_indices(n)
    A = np.zeros((k, space_dim(2, n)))
    A[:, 1 : n + 1] = G
    A[:, n + 1 :] = H[:, rows, cols]
    return A


def check_mixed(rng):
    failures = calls = 0
    fields = ("max_value", "argmax", "min_value", "argmin")
    for r in RADII:
        for _ in range(MIXED_CALLS):
            dims = [int(n) for n in rng.choice(np.array(DIMS), rng.integers(2, 4), replace=False)]
            stacks = [_coeff_rows(*near_hard_group(rng, n, MIXED_CASES)[:2]) for n in dims]
            centers = [np.zeros(n) for n in dims]
            calls += 1
            try:
                ext = extremize_on_ball(stacks, centers, r)
                alone = [extremize_on_ball(A, c, r) for A, c in zip(stacks, centers)]
            except Exception as exc:
                print(f"mixed n={dims} r={r:.0e}: raised {exc}")
                failures += MIXED_CASES * len(dims)
                continue
            for i, (n, own) in enumerate(zip(dims, alone)):
                same = all(getattr(ext, f)[i].tobytes() == getattr(own, f).tobytes() for f in fields)
                if not same or own.solver_residual > 1e-10:
                    print(f"mixed n={dims} r={r:.0e} stack n={n}: bits equal {same}, "
                          f"residual {own.solver_residual:.3e}")
                    failures += MIXED_CASES
            if ext.solver_residual > 1e-10:
                print(f"mixed n={dims} r={r:.0e}: residual {ext.solver_residual:.3e}")
                failures += MIXED_CASES * len(dims)
    print(f"mixed-n family: {calls} calls of 2-3 stacks of {MIXED_CASES}, {failures} cases failed")
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    failures = check_near_hard(rng) + check_affine(rng) + check_mixed(rng)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
