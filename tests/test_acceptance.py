"""Acceptance suite: ten end-to-end criteria at fixed tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output) and asserts the same condition.
"""

import dataclasses
import json

import numpy as np

import dfobounds as d
from dfobounds.cli import main as cli_main


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:2d} [{name}]: {status}{suffix}")
    return ok


def mixed_kind_sets(count, lambda_max=50.0):
    """Deterministic stream of generated sets cycling kinds and dimensions."""
    sets = []
    seed = 0
    while len(sets) < count:
        for n in (1, 2, 3, 4, 5):
            q = d.space_dim(2, n) - 1
            cardinalities = [n, q]
            if q > n + 1:
                cardinalities.append((n + q) // 2)  # a strictly underdetermined size
            for p in cardinalities:
                if len(sets) >= count:
                    break
                sets.append(d.generate_poised_set(n, p, 0.5, lambda_max, seed=seed))
                seed += 1
    return sets


def kind_of(ss):
    q = d.space_dim(2, ss.n) - 1
    if ss.p == ss.n:
        return d.PoisednessKind.LINEAR
    if ss.p == q:
        return d.PoisednessKind.QUADRATIC
    return d.PoisednessKind.MFN


def lagrange_of(ss):
    kind = kind_of(ss)
    if kind is d.PoisednessKind.LINEAR:
        return d.lagrange_determined(ss, 1)
    if kind is d.PoisednessKind.QUADRATIC:
        return d.lagrange_determined(ss, 2)
    return d.lagrange_mfn(ss)


def test_criterion_1_lagrange_correctness():
    rng = np.random.default_rng(100)
    worst_kron = 0.0
    worst_partition = 0.0
    for ss in mixed_kind_sets(200):
        polys = lagrange_of(ss)
        values = np.column_stack([l.eval_batch(ss.points) for l in polys])
        worst_kron = max(worst_kron, float(np.max(np.abs(values - np.eye(ss.p + 1)))))
        X = ss.y0 + rng.uniform(-1.0, 1.0, (100, ss.n)) * ss.radius
        total = np.sum([l.eval_batch(X) for l in polys], axis=0)
        worst_partition = max(worst_partition, float(np.max(np.abs(total - 1.0))))
    ok = worst_kron <= 1e-8 and worst_partition <= 1e-8
    assert report(
        1,
        "lagrange correctness",
        ok,
        f"kron {worst_kron:.2e}, partition {worst_partition:.2e}",
    )


def test_criterion_2_reproduction_oracles():
    rng = np.random.default_rng(200)
    worst_quad = 0.0
    for i in range(100):
        n = int(rng.integers(1, 4))
        q = d.space_dim(2, n) - 1
        ss = d.generate_poised_set(n, q, 0.6, 50.0, seed=1000 + i)
        B = rng.standard_normal((n, n))
        target = d.QuadraticPolynomial(
            n, float(rng.standard_normal()), rng.standard_normal(n), 0.5 * (B + B.T)
        )
        fit = d.fit_model(d.ModelKind.QUAD_DET, ss, target.eval_batch(ss.points))
        scale = max(1.0, float(np.max(np.abs(target.coeffs()))))
        worst_quad = max(
            worst_quad, float(np.max(np.abs(fit.model.coeffs() - target.coeffs()))) / scale
        )

    worst_affine = 0.0
    for i in range(100):
        n = int(rng.integers(2, 5))
        q = d.space_dim(2, n) - 1
        p = int(rng.integers(n + 1, q))
        ss = d.generate_poised_set(n, p, 0.6, 50.0, seed=2000 + i)
        target = d.QuadraticPolynomial(
            n, float(rng.standard_normal()), rng.standard_normal(n), np.zeros((n, n))
        )
        fit = d.fit_model(d.ModelKind.MFN, ss, target.eval_batch(ss.points))
        scale = max(1.0, float(np.max(np.abs(target.coeffs()))))
        worst_affine = max(
            worst_affine, float(np.max(np.abs(fit.model.coeffs() - target.coeffs()))) / scale
        )

    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    ss4 = d.SampleSet(pts, np.sqrt(2.0))
    fit4 = d.fit_model(d.ModelKind.MFN, ss4, pts[:, 0] * pts[:, 1])
    cross_err = float(
        np.max(np.abs(fit4.model.hessian - np.array([[0.0, 1.0], [1.0, 0.0]])))
    )
    cross_err = max(cross_err, abs(fit4.model.constant), float(np.max(np.abs(fit4.model.gradient))))

    ok = worst_quad <= 1e-7 and worst_affine <= 1e-8 and cross_err <= 1e-10
    assert report(
        2,
        "reproduction oracles",
        ok,
        f"quad {worst_quad:.2e}, affine {worst_affine:.2e}, cross {cross_err:.2e}",
    )


def test_criterion_3_inverse_norm_caps():
    violations = 0
    for i in range(100):
        n = 1 + (i % 5)
        ss = d.generate_poised_set(n, n, 0.4, 40.0, seed=3000 + i)
        cert = d.lambda_poisedness(ss, d.PoisednessKind.LINEAR)
        violations += cert.matrix_norm > cert.norm_bound + 1e-9
    for i in range(100):
        n = 1 + (i % 3)
        q = d.space_dim(2, n) - 1
        ss = d.generate_poised_set(n, q, 0.4, 40.0, seed=4000 + i)
        cert = d.lambda_poisedness(ss, d.PoisednessKind.QUADRATIC)
        violations += cert.matrix_norm > cert.norm_bound + 1e-9
    ok = violations == 0
    assert report(3, "scaled inverse-norm caps", ok, f"{violations} violations")


def test_criterion_4_pseudoinverse_cap_and_factorization():
    violations = 0
    worst_fact = 0.0
    for i in range(100):
        n = 2 + (i % 3)
        q = d.space_dim(2, n) - 1
        p = int(np.clip(n + 1 + (i % (q - n - 1 or 1)), n + 1, q - 1))
        ss = d.generate_poised_set(n, p, 0.5, 40.0, seed=5000 + i)
        cert = d.lambda_poisedness(ss, d.PoisednessKind.MFN)
        violations += cert.matrix_norm > cert.norm_bound + 1e-9
        # the absolute affine interpolation matrix factors as an elimination
        # product of the scaled displacement block, mapped back to absolute
        # coordinates by [[1, y0^T], [0, delta I]]
        Ml = d.basis_matrix(ss.points)[:, : ss.n + 1]
        Ls_hat = d.design_matrix(d.PoisednessKind.MFN, ss)
        E_inv = np.eye(ss.p + 1)
        E_inv[1:, 0] = 1.0
        block = np.zeros((ss.p + 1, ss.n + 1))
        block[0, 0] = 1.0
        block[1:, 1:] = Ls_hat
        S = ss.radius * np.eye(ss.n + 1)
        S[0, 0] = 1.0
        S[0, 1:] = ss.y0
        tol = 1e-12 * max(1.0, np.abs(ss.points).max())
        worst_fact = max(worst_fact, float(np.abs(Ml - E_inv @ block @ S).max()) / tol)
    ok = violations == 0 and worst_fact <= 1.0
    assert report(
        4,
        "pseudoinverse cap + factorization",
        ok,
        f"{violations} violations, factorization {worst_fact:.2e} of tolerance",
    )


def test_criterion_5_hessian_caps():
    plans = [
        ("quartic", 2, 4),
        ("quartic", 3, 7),
        ("rosenbrock", 2, 4),
        ("rosenbrock", 2, 3),
    ]
    violations = 0
    trials = 0
    for i in range(100):
        name, n, p = plans[i % len(plans)]
        kappa = 0.0 if (i // len(plans)) % 2 == 0 else 0.01
        delta = 0.3 if i % 2 == 0 else 0.1
        fn = d.resolve_function(name, n)
        rng = np.random.default_rng(6000 + i)
        lo, hi = fn.domain_box[:, 0], fn.domain_box[:, 1]
        center = 0.5 * (lo + hi) + rng.uniform(-0.5, 0.5, n) * 0.5 * (hi - lo)
        ss = d.generate_poised_set(n, p, delta, 50.0, seed=6000 + i, center=center)
        cert = d.lambda_poisedness(ss, d.PoisednessKind.MFN)
        q = d.space_dim(2, n) - 1
        per_lagrange_cap = (
            4.0 * cert.lam * np.sqrt(2.0 * (q + 1.0)) / (delta * delta)
        )  # c(delta_max) = 1 for delta <= 1
        for l in d.lagrange_mfn(ss):
            lhs = float(np.linalg.norm(l.hessian, 2))
            violations += lhs > per_lagrange_cap * (1.0 + 1e-9)
        fit = d.fit_relaxed(
            d.ModelKind.MFN,
            ss,
            fn.f(ss.points),
            d.RelaxationSpec(kappa=kappa, noise_seed=i),
        )
        cap = d.hessian_bound_mfn(
            L=fn.lipschitz_L, kappa=kappa, lam=cert.lam, n=n, p=p, delta_max=delta
        )
        violations += float(np.linalg.norm(fit.model.hessian, 2)) > cap * (1.0 + 1e-9)
        trials += 1
    ok = violations == 0 and trials == 100
    assert report(5, "model/Lagrange Hessian caps", ok, f"{violations} violations")


def test_criterion_6_end_to_end_campaign():
    config = {
        "function": ["quartic", "rosenbrock"],
        "kind": ["lin_det", "quad_det", "mfn"],
        "n": 2,
        "p": 0,  # placeholder, filled per kind below
        "delta": [0.5, 0.1, 0.02],
        "seed": list(range(20)),
    }
    p_for = {"lin_det": 2, "quad_det": 5, "mfn": 4}
    trials = []
    for kind, p in p_for.items():
        cfg = dict(config)
        cfg["kind"] = kind
        cfg["p"] = p
        trials.extend(d.expand_config(cfg))
    report_obj = d.run_campaign(trials)
    rows = report_obj.rows
    ok_margins = report_obj.summary["n_failed"] == 0 and report_obj.summary["all_passed"]

    # raw-error scaling across the sweep, one per-halving ratio per function,
    # medians across seeds on the linear-model rows
    brackets_ok = True
    detail = []
    for fn in ("quartic", "rosenbrock"):
        med = {}
        for delta in (0.5, 0.02):
            picked = [
                row
                for row in rows
                if row["function"] == fn and row["kind"] == "LIN_DET" and row["delta"] == delta
            ]
            med[delta] = (
                np.median([row["emp_g"] * delta for row in picked]),
                np.median([row["emp_f"] * delta * delta for row in picked]),
            )
        halvings = np.log2(0.5 / 0.02)
        ratio_g = (med[0.5][0] / med[0.02][0]) ** (1.0 / halvings)
        ratio_f = (med[0.5][1] / med[0.02][1]) ** (1.0 / halvings)
        brackets_ok &= 1.3 <= ratio_g <= 3.0 and 2.5 <= ratio_f <= 6.0
        detail.append(f"{fn}: grad x{ratio_g:.2f}, value x{ratio_f:.2f}")
    ok = ok_margins and brackets_ok
    assert report(6, "end-to-end margins + scaling", ok, "; ".join(detail))


def test_criterion_7_basis_floors():
    ok = True
    details = []
    for n in (2, 3):
        checks = d.basis_floor_checks(n, count=1000, seed=70 + n)
        by_name = {c.name: c for c in checks}
        ok &= all(c.passed for c in checks)
        details.append(
            f"n={n}: quad {by_name['quadratic_basis_floor'].lhs:.3f}, "
            f"lin {by_name['linear_basis_floor'].lhs:.3f}, "
            f"unit {by_name['unit_coeff_floor'].lhs:.3f}"
        )
    assert report(7, "basis value floors", ok, "; ".join(details))


def test_criterion_8_subproblem_solver():
    plans = {1: 1e-4, 2: 5e-3, 3: 5e-2, 4: 1e-1}
    rng = np.random.default_rng(800)
    worst = 0.0
    count = 0
    for n, resolution in plans.items():
        for _ in range(125):
            B = rng.standard_normal((n, n))
            m = d.QuadraticPolynomial(
                n,
                float(rng.standard_normal()),
                rng.standard_normal(n),
                0.5 * (B + B.T),
            )
            center = rng.standard_normal(n) * 0.5
            radius = float(rng.uniform(0.5, 2.0))
            exact, _ = d.max_abs_on_ball(m, center, radius)
            grid, _ = d.grid_oracle(m, center, radius, resolution)
            lip = d.lipschitz_on_ball(m, center, radius)
            gap = max(exact - grid, grid - exact - 1e-9 * max(1.0, exact))
            worst = max(worst, gap / (lip * resolution))
            count += 1
    witness = d.max_abs_on_ball(
        d.QuadraticPolynomial(2, 1.0, np.array([-1.0, -1.0]), np.zeros((2, 2))),
        np.zeros(2),
        1.0,
    )[0]
    witness_err = abs(witness - (1.0 + np.sqrt(2.0)))
    ok = worst <= 1.0 and count == 500 and witness_err <= 1e-6
    assert report(
        8,
        "solver vs grid oracle",
        ok,
        f"worst gap {worst:.3f} of Lip*res, witness err {witness_err:.1e}",
    )


def test_criterion_9_table_consistency():
    rng = np.random.default_rng(900)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        q = (n * n + 3 * n) // 2
        p = int(rng.integers(n + 1, q)) if q > n + 1 else n + 1
        delta = float(rng.uniform(0.05, 2.0))
        inputs = d.BoundInputs(
            L=float(rng.uniform(0.0, 10.0)),
            kappa=float(rng.uniform(0.0, 1.0)),
            lam=float(rng.uniform(1.0, 50.0)),
            n=n,
            p=p,
            delta=delta,
            delta_max=delta * float(rng.uniform(1.0, 2.0)),
        )
        # Each kind at its own shape; the determined kinds' caps do not
        # read p, and n = 1 has no MFN shape.
        shapes = {d.BoundKind.LIN_DET: n, d.BoundKind.QUAD_DET: q, d.BoundKind.MFN: p}
        for kind, p_kind in shapes.items():
            if kind is d.BoundKind.MFN and n == 1:
                continue
            a = d.error_bounds(kind, dataclasses.replace(inputs, p=p_kind))
            b = d.closed_form_bounds(kind, dataclasses.replace(inputs, p=p_kind))
            for x, y in ((a.C_f, b.C_f), (a.C_g, b.C_g), (a.C_H, b.C_H)):
                scale = max(abs(x), abs(y), 1e-300)
                worst = max(worst, abs(x - y) / scale)
    ok = worst <= 1e-12
    assert report(9, "printed-constant consistency", ok, f"worst rel {worst:.2e}")


def test_criterion_10_csv_determinism(tmp_path, capsys):
    config = {
        "function": "rosenbrock",
        "kind": "mfn",
        "n": 2,
        "p": 4,
        "delta": [0.3, 0.1],
        "seed": [0, 1],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    outputs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"{tag}.csv"
        code = cli_main(
            [
                "verify",
                "--config",
                str(cfg_path),
                "--csv",
                str(csv_path),
                "--json",
                str(tmp_path / f"{tag}.json"),
                "--quiet",
            ]
        )
        assert code == 0
        outputs.append(csv_path.read_bytes())
    capsys.readouterr()
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    assert report(10, "byte-identical reruns", ok, f"{len(outputs[0])} bytes")
