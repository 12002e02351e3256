"""Acceptance suite: one test per acceptance criterion, each printing a
pass line (run with ``pytest -s tests/test_acceptance.py`` to see them).
All exact claims are checked with zero floating-point involvement; float
tolerances appear only where a criterion states one.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from silverprox.certificate import (
    build_bundle,
    check_laplacian,
    check_multipliers_nonneg,
    check_schur_psd,
    rate_from_certificate,
    tamper_bundle,
    verify_descent_identity,
)
from silverprox.exactnum import ONE, RHO, SQRT2, ZERO, RadicalScalar, rho_pow
from silverprox.schedule import c_sequence, silver_schedule, silver_step
from silverprox.solver import (
    lower_bound_instance,
    proximal_gd_run,
    random_quadratic_instance,
    restart_solve,
)
from sparse_rows import bordered, rows, symmetric

TWO_RHO_MINUS_2 = SQRT2 * 2


def _report(num, name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: PASS{suffix}")


def test_criterion_1_certificate_validity_exact():
    build_bundle.cache_clear()  # time fresh builds, not memoized ones
    started = time.perf_counter()
    for k in range(1, 9):
        bundle = build_bundle(k)
        assert check_multipliers_nonneg(bundle).passed, k
        assert check_laplacian(bundle).passed, k
        assert check_schur_psd(bundle).passed, k
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    _report(1, "certificate validity k=1..8, exact", f"{elapsed:.1f}s")


def test_criterion_2_descent_identity_and_negative_controls():
    for k in range(1, 7):
        report = verify_descent_identity(k, trials=20, dim=4, seed=100 + k)
        assert report.passed, (k, report.failures, report.first_residual)
    detected = {}
    for target in ("lambda", "mu", "slack", "u"):
        bad = tamper_bundle(build_bundle(2), target)
        report = verify_descent_identity(2, trials=20, dim=4, seed=9, bundle=bad)
        assert len(report.failures) >= 1, target
        detected[target] = len(report.failures)
    _report(
        2,
        "descent identity k=1..6 exact; negative controls detected",
        ", ".join(f"{t}:{n}/20" for t, n in detected.items()),
    )


def test_criterion_3_base_case_golden_data():
    bundle = build_bundle(1)
    assert rows(bundle.lam.bar) == [{1: RHO}, {0: ONE}]
    assert bundle.lam.star_row == [SQRT2, RHO]  # [rho-1, rho]
    assert rows(bundle.mu.bar) == [{}]
    assert bundle.mu.star_row == [RHO * 2 - 1]
    assert list(bundle.slack.lap) == [
        {0: TWO_RHO_MINUS_2, 1: -TWO_RHO_MINUS_2}, {1: TWO_RHO_MINUS_2}]
    assert symmetric(bundle.slack.lap) == [
        {0: TWO_RHO_MINUS_2, 1: -TWO_RHO_MINUS_2},
        {0: -TWO_RHO_MINUS_2, 1: TWO_RHO_MINUS_2},
    ]
    s = bordered(bundle.slack)
    assert s[0][0] == RadicalScalar(0, Fraction(1, 2))  # 1/sqrt2
    assert (s[0][1], s[0][2]) == (-ONE, ONE)
    assert (s[1][0], s[2][0]) == (-ONE, ONE)
    assert bundle.u_coeffs == (ONE, -SQRT2, -RHO, -TWO_RHO_MINUS_2, -ONE)
    _report(3, "order-1 golden data reproduced exactly")


def test_criterion_4_tight_lower_bound_exact():
    for k in range(1, 9):
        problem, expected_gap = lower_bound_instance(k)
        trace = proximal_gd_run(problem, silver_schedule(k), [ONE])
        gap = trace.Fs[-1] - trace.F_star
        assert gap == expected_gap, k
        assert gap == ONE / ((rho_pow(k) - ONE) * 4), k
        margin = rate_from_certificate(k) - gap
        assert margin.sign() > 0, k  # exact sign comparison, bound never exceeded
    _report(4, "lower-bound gap equals 1/(4 rho^k - 4) exactly, k=1..8")


def test_criterion_5_rate_soundness_at_desk_scale():
    started = time.perf_counter()
    schedules = {k: [v.to_float() for v in silver_schedule(k)] for k in range(1, 9)}
    bounds = {k: float(rate_from_certificate(k)) for k in range(1, 9)}
    checked = 0
    instances = 0
    for seed in range(54):
        kind = ("zero", "l1", "box")[seed % 3]
        dim = 2 + seed % 9
        rng = np.random.default_rng(1000 + seed)
        problem, x0 = random_quadratic_instance(dim, 0.0, 1.0, kind, rng)
        instances += 1
        d2 = sum((a - b) ** 2 for a, b in zip(x0, problem.optimum))
        for k in range(1, 9):
            trace = proximal_gd_run(problem, schedules[k], x0)
            gap = trace.Fs[-1] - trace.F_star
            assert gap <= bounds[k] * d2 * (1 + 1e-9) + 1e-15, (seed, kind, k)
            checked += 1
    elapsed = time.perf_counter() - started
    assert instances >= 50
    assert elapsed < 300.0
    _report(
        5,
        "rate soundness on random composites",
        f"{instances} instances x k=1..8, {checked} runs, {elapsed:.1f}s",
    )


def test_criterion_6_acceleration_visible_at_n_255():
    problem, _ = lower_bound_instance(8)
    trace = proximal_gd_run(problem, silver_schedule(8), [ONE])
    measured = float(trace.Fs[-1] - trace.F_star)
    n = 255
    constant_rate = 1.0 / (4 * n)
    ratio = measured / constant_rate
    expected = (4 * n) / (4 * float(rho_pow(8)) - 4)
    assert ratio == pytest.approx(expected, rel=1e-9)
    assert ratio == pytest.approx(0.221, abs=5e-4)
    _report(6, "silver/constant gap ratio at n=255", f"{ratio:.6f}")


def test_criterion_7_strongly_convex_restarts():
    total_iters = []
    kappas = (10.0, 100.0, 1000.0)
    for idx, kappa in enumerate(kappas):
        rng = np.random.default_rng(7000 + idx)
        problem, x0 = random_quadratic_instance(
            6, 1.0 / kappa, 1.0, "l1", rng, weight=0.5
        )
        d0 = math.sqrt(sum((a - b) ** 2 for a, b in zip(x0, problem.optimum)))
        eps = 1e-6 * d0
        log = []
        x, total = restart_solve(problem, eps, x0, epoch_log=log)
        final = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, problem.optimum)))
        assert final <= eps + 1e-9
        distances = [d0] + [entry["distance"] for entry in log]
        for before, after in zip(distances, distances[1:]):
            assert after <= before / 2 + 1e-12  # contraction >= 2x per epoch
        total_iters.append(total)
    # fit total iterations ~ C * kappa^p (the log(1/eps) factor is common)
    xs = [math.log(kappa) for kappa in kappas]
    ys = [math.log(n) for n in total_iters]
    x_mean, y_mean = sum(xs) / 3, sum(ys) / 3
    slope = sum((a - x_mean) * (b - y_mean) for a, b in zip(xs, ys)) / sum(
        (a - x_mean) ** 2 for a in xs
    )
    assert 0.70 <= slope <= 0.88
    _report(
        7,
        "restart acceleration",
        f"iters={total_iters}, fitted exponent p={slope:.4f} "
        f"(target {math.log(2) / math.log(float(RHO)):.4f})",
    )


def test_criterion_8_schedule_identity_to_k_12():
    pi12 = silver_schedule(12)
    assert len(pi12) == 2**12 - 1
    assert pi12 == [silver_step(t) for t in range(2**12 - 1)]
    for k in range(1, 13):
        pi_sum = ZERO
        for v in silver_schedule(k):
            pi_sum = pi_sum + v
        assert pi_sum == rho_pow(k) - ONE, k
        c_sum = ZERO
        for v in c_sequence(k):
            c_sum = c_sum + v
        assert c_sum == (rho_pow(k) - ONE) * 2, k
    _report(8, "schedule closed form == recursion up to 2^12 - 1, sums exact")
