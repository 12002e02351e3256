import hashlib
import math
import random
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from silverprox.certificate import rate_from_certificate
from silverprox.exactnum import ONE, SQRT2, ZERO, RadicalScalar, rho_pow
from silverprox import solver
from silverprox.schedule import silver_schedule
from silverprox.solver import (
    ProblemInstance,
    SmoothOracle,
    Trace,
    cocoercivity_f,
    cocoercivity_h,
    constant_baseline,
    lower_bound_instance,
    prox_library,
    proximal_gd_run,
    random_quadratic_instance,
    rate_bound,
    restart_epoch_order,
    restart_solve,
)


def dist(u, v):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def random_pairs(dim, seed, pairs=50):
    rng = random.Random(seed)
    for _ in range(pairs):
        x = [rng.uniform(-3, 3) for _ in range(dim)]
        yield rng, x, [rng.uniform(-3, 3) for _ in range(dim)]


def check_gradient_lipschitz(oracle, dim, seed=0):
    """Largest violation of ||g(x) - g(y)|| <= M ||x - y|| on random pairs."""
    return max(dist(oracle.gradient(x), oracle.gradient(y)) - oracle.smoothness * dist(x, y)
               for _, x, y in random_pairs(dim, seed))


def check_prox_nonexpansive(oracle, dim, seed=0):
    """Largest violation of ||prox(x) - prox(y)|| <= ||x - y|| on random pairs."""
    worst = -math.inf
    for rng, x, y in random_pairs(dim, seed):
        a = rng.uniform(0.1, 3.0)
        worst = max(worst, dist(oracle.prox(x, a), oracle.prox(y, a)) - dist(x, y))
    return worst


def check_optimality(problem, steps=(0.5, 1.0, 2.0)):
    """Largest prox fixed-point residual at the declared optimum."""
    x_star, g = problem.optimum, problem.smooth.gradient(problem.optimum)
    return max(dist(problem.nonsmooth.prox([x - a * gv for x, gv in zip(x_star, g)], a), x_star)
               for a in steps)


def simple_quadratic(dim=1):
    """f(x) = ||x||^2 / 2, minimized at the origin."""
    return ProblemInstance(
        smooth=SmoothOracle(
            value=lambda x: sum(v * v for v in x) / 2,
            gradient=lambda x: list(x),
            smoothness=1,
            strong_convexity=1,
        ),
        nonsmooth=prox_library("zero"),
        dimension=dim,
        optimum=[0.0] * dim,
        optimal_value=0.0,
        name="half-norm-squared",
    )


# ---------------------------------------------------------------------------
# prox oracle library
# ---------------------------------------------------------------------------


def test_prox_zero_is_identity():
    oracle = prox_library("zero")
    assert oracle.prox([3.0, -1.5], 0.7) == [3.0, -1.5]
    assert oracle.value([3.0, -1.5]) == 0


def test_prox_l1_soft_threshold():
    oracle = prox_library("l1", weight=1)
    assert oracle.prox([3], 1) == [2]
    assert oracle.prox([-3.0, 0.5, 2.0], 1.0) == [-2.0, 0.0, 1.0]
    assert oracle.value([1.0, -2.0]) == 3.0
    exact = prox_library("l1", weight=1).prox([SQRT2], ONE)
    assert exact == [SQRT2 - 1]


def test_prox_l1_value_is_a_left_fold():
    # From Python 3.12 sum() adds floats with compensation; a left fold from
    # int 0, as solver._dot is, gives the same bits on every version.
    rng = random.Random(0)
    x = [rng.uniform(-1, 1) * 10 ** rng.randint(-8, 8) for _ in range(256)]
    total = 0
    for v in x:
        total = total + abs(v)
    value = prox_library("l1", weight=0.5).value(x)
    assert value == 0.5 * total == 394281403.83714026


def test_prox_halfline_projection():
    oracle = prox_library("halfline")
    assert oracle.prox([-0.7], 0.3) == [0]
    assert oracle.prox([0.7], 0.3) == [0.7]
    assert oracle.value([-0.1]) == math.inf
    assert oracle.value([0.0, 1.0]) == 0


def test_prox_box_projection():
    oracle = prox_library("box", lo=-1, hi=2)
    assert oracle.prox([-3.0, 0.5, 4.0], 1.0) == [-1, 0.5, 2]
    assert oracle.value([-3.0]) == math.inf
    assert oracle.value([0.0]) == 0


def test_prox_invalid_params():
    with pytest.raises(ValueError):
        prox_library("box", lo=2, hi=-2)
    with pytest.raises(ValueError):
        prox_library("l1", weight=-1)
    with pytest.raises(ValueError):
        prox_library("l1", weight=math.nan)
    with pytest.raises(ValueError):
        prox_library("huber")
    with pytest.raises(ValueError):
        prox_library("ball")
    with pytest.raises(ValueError):
        prox_library("zero", junk=1)  # noqa: unexpected parameter


def test_prox_oracles_nonexpansive():
    for name, params in (
        ("zero", {}),
        ("l1", {"weight": 0.7}),
        ("box", {"lo": -1, "hi": 1}),
        ("halfline", {}),
    ):
        worst = check_prox_nonexpansive(prox_library(name, **params), dim=4, seed=9)
        assert worst <= 1e-9, name


# ---------------------------------------------------------------------------
# proximal gradient runs
# ---------------------------------------------------------------------------


def test_one_step_to_optimum():
    trace = proximal_gd_run(simple_quadratic(), [1.0], [7.3])
    assert trace.xs[-1] == [0.0]
    assert trace.Fs[-1] == 0.0


def test_lower_bound_run_exact():
    problem, gap = lower_bound_instance(2)
    trace = proximal_gd_run(problem, silver_schedule(2), [ONE])
    assert trace.xs[-1] == [RadicalScalar(Fraction(1, 2), 0)]
    assert trace.Fs[-1] - trace.F_star == gap
    # recovered subgradients: no clipping happens, so s = 0 throughout
    assert all(s == [ZERO] for s in trace.ss)
    # without a known optimal value, F_* is f_* + h_* at the optimum
    unvalued = proximal_gd_run(replace(problem, optimal_value=None), silver_schedule(2), [ONE])
    assert unvalued.F_star == unvalued.f_star + unvalued.h_star == trace.F_star


def test_lower_bound_values():
    problem, gap = lower_bound_instance(1)
    assert gap == ONE / (SQRT2 * 4)
    assert float(gap) == pytest.approx(0.17678, abs=1e-4)
    slope = problem.smooth.gradient([ONE])[0]
    assert slope == ONE / (SQRT2 * 2)  # 1 / (2 (rho - 1))
    _, gap2 = lower_bound_instance(2)
    assert float(gap2) == pytest.approx(0.0518, abs=1e-4)


def test_lower_bound_gap_below_certificate():
    for k in range(1, 9):
        _, gap = lower_bound_instance(k)
        margin = rate_from_certificate(k) - gap
        assert margin.sign() > 0


def test_linear_halfline_no_clipping():
    # slope small enough that the trajectory stays strictly positive
    problem, _ = lower_bound_instance(3)
    trace = proximal_gd_run(problem, silver_schedule(3), [ONE])
    assert all(x[0].sign() > 0 for x in trace.xs)
    assert all(s == [ZERO] for s in trace.ss)


def test_infeasible_start_reports_inf_then_recovers():
    problem = ProblemInstance(
        smooth=simple_quadratic().smooth,
        nonsmooth=prox_library("box", lo=-1, hi=1),
        dimension=1,
        optimum=[0.0],
        optimal_value=0.0,
    )
    trace = proximal_gd_run(problem, [1.0, 1.0], [5.0])
    assert trace.Fs[0] == math.inf
    assert math.isfinite(trace.Fs[1])


def test_run_input_validation():
    problem = simple_quadratic()
    with pytest.raises(ValueError):
        proximal_gd_run(problem, [], [1.0])
    with pytest.raises(ValueError):
        proximal_gd_run(problem, [1.0, -0.5], [1.0])
    # an x0 of another length: zip would drop coordinates of the 1-D instance
    # silently, and the quadratic's product would fail deep in the oracle
    quadratic, x0 = random_quadratic_instance(4, 0.0, 1.0, "l1", np.random.default_rng(0))
    for problem, x in ((lower_bound_instance(2, exact=False)[0], [1.0, 2.0]),
                       (quadratic, x0[:3])):
        with pytest.raises(ValueError, match="coordinates"):
            proximal_gd_run(problem, [1.0], x)


def test_divergence_raises_named_iteration():
    with pytest.raises(ArithmeticError, match="iteration"):
        proximal_gd_run(simple_quadratic(), [3.0] * 2000, [1e300])


def test_non_finite_coordinate_behind_clamped_int_raises():
    # The box prox returns the int bound -1 for the clamped first coordinate,
    # so the NaN in the second one must still be caught.
    problem = ProblemInstance(
        smooth=SmoothOracle(value=lambda x: 0.0, gradient=lambda x: [5.0, math.nan],
                            smoothness=1),
        nonsmooth=prox_library("box"),
        dimension=2,
    )
    with pytest.raises(ArithmeticError, match="iteration 1"):
        proximal_gd_run(problem, [1.0], [0.0, 0.0])


def test_reduces_to_vanilla_gd():
    # with h == 0 the trace is plain gradient descent, bit for bit
    problem = ProblemInstance(
        smooth=SmoothOracle(
            value=lambda x: x[0] * x[0] / 2,
            gradient=lambda x: [x[0]],
            smoothness=1,
        ),
        nonsmooth=prox_library("zero"),
        dimension=1,
    )
    steps = silver_schedule(3)
    trace = proximal_gd_run(problem, steps, [Fraction(1)])
    x = Fraction(1)
    for t, a in enumerate(steps):
        x = x - a * x
        assert trace.xs[t + 1] == [x]


def test_reduces_to_projected_gd():
    # with an indicator h the trace is projected gradient descent, bit for bit
    problem, _ = lower_bound_instance(2)
    slope = problem.smooth.gradient([ONE])[0]
    steps = silver_schedule(2)
    trace = proximal_gd_run(problem, steps, [ONE])
    x = ONE
    for t, a in enumerate(steps):
        moved = x - a * slope
        x = moved if moved.sign() > 0 else ZERO
        assert trace.xs[t + 1] == [x]


def test_trace_update_identity_exact():
    # the recorded trace satisfies x_{t+1} = x_t - a_t (g_t + s_{t+1}), exactly
    problem, _ = lower_bound_instance(3)
    steps = silver_schedule(3)
    trace = proximal_gd_run(problem, steps, [ONE])
    for t, a in enumerate(steps):
        recon = trace.xs[t][0] - a * (trace.gs[t][0] + trace.ss[t][0])
        assert trace.xs[t + 1][0] == recon


def test_l1_subgradient_consistency():
    rng = np.random.default_rng(12)
    problem, x0 = random_quadratic_instance(6, 0.0, 1.0, "l1", rng, weight=0.8)
    trace = proximal_gd_run(problem, [v.to_float() for v in silver_schedule(3)], x0)
    for t, s in enumerate(trace.ss):
        for coord, sub in zip(trace.xs[t + 1], s):
            if abs(coord) > 1e-12:
                assert sub == pytest.approx(0.8 * math.copysign(1.0, coord), abs=1e-9)
            else:
                assert abs(sub) <= 0.8 + 1e-9


# ---------------------------------------------------------------------------
# co-coercivities
# ---------------------------------------------------------------------------


def test_cocoercivity_identity_cases():
    trace = proximal_gd_run(simple_quadratic(), [1.0, 1.0], [2.0])
    assert cocoercivity_f(trace, 1, 1) == 0
    assert cocoercivity_h(trace, 2, 2) == 0


def test_cocoercivity_quadratic_is_tight():
    # f(x) = x^2/2 is exactly 1-smooth, so the slack vanishes between any
    # two points
    trace = proximal_gd_run(simple_quadratic(), [0.5], [1.0])
    assert cocoercivity_f(trace, 1, 0) == pytest.approx(0.0, abs=1e-12)
    assert cocoercivity_f(trace, 0, 1) == pytest.approx(0.0, abs=1e-12)


def test_cocoercivity_l1_linear_region():
    # h = |x| between two positive points: slack is exactly zero
    problem = ProblemInstance(
        smooth=SmoothOracle(
            value=lambda x: 0.0, gradient=lambda x: [0.25], smoothness=1
        ),
        nonsmooth=prox_library("l1", weight=1),
        dimension=1,
        optimum=None,
    )
    trace = proximal_gd_run(problem, [1.0, 1.0], [8.0])
    assert all(x[0] > 0 for x in trace.xs)
    assert cocoercivity_h(trace, 2, 1) == pytest.approx(0.0, abs=1e-12)


def _two_point_trace(xs, gs, fs):
    return Trace(steps=[1], xs=xs, gs=gs, ss=[[0] * len(xs[0])], fs=fs,
                 hs=[0, 0], Fs=fs)


def test_cocoercivity_f_halves_ints_exactly():
    # ||g_0 - g_1||^2 = 5 is odd, so "/ 2" would turn the slack into a float
    trace = _two_point_trace([[1, -2], [4, 0]], [[3, 1], [1, 2]], [7, -1])
    got = cocoercivity_f(trace, 0, 1)
    assert not isinstance(got, float)
    assert got == 7 - (-1) - (1 * (1 - 4) + 2 * (-2 - 0)) - Fraction(5, 2)


def test_cocoercivity_f_float_bits_unchanged():
    rng = random.Random(11)

    def old_cocoercivity_f(xi, gi, fi, xj, gj, fj):
        dot = sq = 0
        for a, p, q in zip(gj, xi, xj):
            dot = dot + a * (p - q)
        for p, q in zip(gi, gj):
            sq = sq + (p - q) * (p - q)
        return fi - fj - dot - sq / 2

    # the kernels as list folds: (x, g, f) and (x, s, h) at index t or at the optimum "*"
    def smooth_at(trace, t):
        if t == "*":
            return trace.x_star, [-v for v in trace.s_star], trace.f_star
        return trace.xs[t], trace.gs[t], trace.fs[t]

    def nonsmooth_at(trace, t):
        if t == "*":
            return trace.x_star, trace.s_star, trace.h_star
        return trace.xs[t], trace.ss[t - 1], trace.hs[t]

    def listed_f(trace, i, j):
        (xi, gi, fi), (xj, gj, fj) = smooth_at(trace, i), smooth_at(trace, j)
        return (2 * (fi - fj - solver._dot(gj, solver._sub(xi, xj)))
                - solver._norm2(solver._sub(gi, gj))) * solver.HALF

    def listed_h(trace, i, j):
        (xi, _, hi), (xj, sj, hj) = nonsmooth_at(trace, i), nonsmooth_at(trace, j)
        return hi - hj - solver._dot(sj, solver._sub(xi, xj))

    def one_step_trace(dim, value):
        vectors = [[value() for _ in range(dim)] for _ in range(6)]
        fs, hs = [value(), value()], [value(), value()]
        return Trace(steps=[1], xs=vectors[:2], gs=vectors[2:4], ss=[vectors[4]], fs=fs,
                     hs=hs, Fs=fs, x_star=[value() for _ in range(dim)], s_star=vectors[5],
                     f_star=value(), h_star=value())

    def pairs_agree(trace, same):
        for i, j in (("*", 0), ("*", 1), (0, "*"), (1, 0)):
            assert same(cocoercivity_f(trace, i, j), listed_f(trace, i, j)), (i, j)
        for i, j in (("*", 1), (1, "*")):
            assert same(cocoercivity_h(trace, i, j), listed_h(trace, i, j)), (i, j)

    exact_values = {
        "int": lambda: rng.randint(-9, 9),
        "Fraction": lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        "RadicalScalar": lambda: RadicalScalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                               Fraction(rng.randint(-9, 9), rng.randint(1, 9))),
    }
    for _ in range(500):
        dim = rng.randint(1, 6)
        xs = [[rng.uniform(-1e3, 1e3) for _ in range(dim)] for _ in range(2)]
        gs = [[rng.uniform(-1e3, 1e3) for _ in range(dim)] for _ in range(2)]
        fs = [rng.uniform(-1e3, 1e3) for _ in range(2)]
        got = cocoercivity_f(_two_point_trace(xs, gs, fs), 0, 1)
        want = old_cocoercivity_f(xs[0], gs[0], fs[0], xs[1], gs[1], fs[1])
        assert type(got) is float
        assert got.hex() == want.hex()
        pairs_agree(one_step_trace(dim, lambda: rng.uniform(-1e3, 1e3)),
                    lambda a, b: type(a) is type(b) is float and a.hex() == b.hex())
        for value in exact_values.values():
            pairs_agree(one_step_trace(dim, value),
                        lambda a, b: type(a) is type(b) and a == b)


def test_cocoercivity_star_requires_optimum():
    problem = ProblemInstance(
        smooth=simple_quadratic().smooth,
        nonsmooth=prox_library("zero"),
        dimension=1,
    )
    trace = proximal_gd_run(problem, [1.0], [1.0])
    with pytest.raises(ValueError, match="trace has no optimum data"):
        cocoercivity_f(trace, "*", 0)
    with pytest.raises(ValueError, match="trace has no optimum data"):
        cocoercivity_h(trace, "*", 1)
    with pytest.raises(ValueError):
        cocoercivity_h(trace, 1, 0)  # no subgradient exists at index 0
    # x_* and s_* without the optimum's value of f or of h ended in TypeError
    for kernel, field in ((cocoercivity_f, "f_star"), (cocoercivity_h, "h_star")):
        trace = proximal_gd_run(simple_quadratic(), [1.0], [1.0])
        assert trace.x_star is not None and trace.s_star is not None
        kernel(trace, "*", 1)
        setattr(trace, field, None)
        with pytest.raises(ValueError, match="trace has no optimum data"):
            kernel(trace, "*", 1)
        assert kernel(trace, 1, 1) == 0  # the trace's own points need no optimum


@pytest.mark.parametrize("kernel, i, j", [
    (cocoercivity_f, -1, 0),  # read as the last point, 3
    (cocoercivity_f, 4, 0),  # IndexError
    (cocoercivity_f, 99, 99),  # 0 by the i == j shortcut
    (cocoercivity_f, True, 0),  # read as index 1
    (cocoercivity_f, 1.0, "*"),  # TypeError
    (cocoercivity_f, 0, "x"),  # TypeError
    (cocoercivity_h, 0, 0),  # 0 by the i == j shortcut
    (cocoercivity_h, 2, True),  # read as index 1
    (cocoercivity_h, 1, 4),  # rejected, with no message naming the range
])
def test_cocoercivity_rejects_an_index_outside_the_trace(kernel, i, j):
    trace = proximal_gd_run(simple_quadratic(), [v.to_float() for v in silver_schedule(2)], [2.0])
    assert trace.n == 3
    with pytest.raises(ValueError, match=r'trace index must be "\*" or an int in [01]\.\.3, got'):
        kernel(trace, i, j)


def test_cocoercivity_nonneg_on_random_instances():
    rng = np.random.default_rng(21)
    for kind in ("zero", "l1", "box"):
        problem, x0 = random_quadratic_instance(5, 0.0, 1.0, kind, rng)
        trace = proximal_gd_run(
            problem, [v.to_float() for v in silver_schedule(2)], x0
        )
        for i in [0, 1, 2, 3, "*"]:
            for j in [0, 1, 2, 3, "*"]:
                q = cocoercivity_f(trace, i, j)
                assert q >= -1e-9, (kind, i, j, q)
        for i in [1, 2, 3, "*"]:
            for j in [1, 2, 3, "*"]:
                q = cocoercivity_h(trace, i, j)
                assert q >= -1e-9, (kind, i, j, q)


# ---------------------------------------------------------------------------
# bounds, baselines, restarts
# ---------------------------------------------------------------------------


def test_rate_bound_values():
    assert rate_bound(2, 1.0, 1.0) == pytest.approx(0.08009, abs=1e-4)
    bound1 = rate_bound(1, 1.0, 1.0)
    assert bound1 == pytest.approx(float(rate_from_certificate(1)))
    with pytest.raises(ValueError):
        rate_bound(2, -1.0, 1.0)


def _rounds_to(value, exact):
    """``value`` is the float nearest ``exact``: exact lies strictly between the
    midpoints to value's float neighbours (exact comparisons in Q(sqrt2))."""
    below = (Fraction(value) + Fraction(math.nextafter(value, -math.inf))) / 2
    above = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
    return exact > below and exact < above


@pytest.mark.parametrize("k", range(1, 26))
def test_rate_bound_is_correctly_rounded(k):
    exact = rate_from_certificate(k)
    assert _rounds_to(rate_bound(k, 1.0, 1.0), exact)
    if k == 20:  # the two-component float sum was off by 1.1e-9 relative here
        assert not _rounds_to(exact.to_float(), exact)


def test_constant_baseline_values():
    assert constant_baseline(3, 1.0, 1.0) == pytest.approx(1 / 12)
    assert constant_baseline(255, 1.0, 1.0) == pytest.approx(1 / 1020)
    with pytest.raises(ValueError):
        constant_baseline(0, 1.0, 1.0)


def test_silver_vs_constant_ratio_at_desk_scale():
    _, gap = lower_bound_instance(8)
    ratio = float(gap) / constant_baseline(255, 1.0, 1.0)
    assert ratio == pytest.approx(1020 / (4 * float(rho_pow(8)) - 4), rel=1e-12)
    assert ratio == pytest.approx(0.221, abs=5e-4)


def test_soundness_on_random_instances():
    rng = np.random.default_rng(33)
    for kind in ("zero", "l1", "box"):
        problem, x0 = random_quadratic_instance(6, 0.0, 1.0, kind, rng)
        d2 = sum((a - b) ** 2 for a, b in zip(x0, problem.optimum))
        for k in (1, 3, 5):
            steps = [v.to_float() for v in silver_schedule(k)]
            trace = proximal_gd_run(problem, steps, x0)
            gap = trace.Fs[-1] - trace.F_star
            assert gap <= rate_bound(k, 1.0, d2) * (1 + 1e-9) + 1e-12


def test_restart_contracts_and_reaches_epsilon():
    log = []
    x, total = restart_solve(simple_quadratic(4), 1e-6, [2.0, -1.0, 0.5, 1.5],
                             epoch_log=log)
    assert dist(x, [0.0] * 4) <= 1e-6 + 1e-9
    assert total == sum(entry["iterations"] for entry in log)
    distances = [entry["distance"] for entry in log]
    for before, after in zip(distances, distances[1:]):
        assert after <= before / 2 + 1e-12


def test_restart_epoch_order_monotone():
    orders = [restart_epoch_order(kappa) for kappa in (1, 10, 100, 1000)]
    assert orders == sorted(orders)
    assert orders[0] >= 1
    with pytest.raises(ValueError):
        restart_epoch_order(0.5)


# restart_epoch_order(m * 10**e) for e = 0..15 and m = 1, 2, 5 (row by row), as
# the float comparison it replaced gave them: the exact one agrees there.
EPOCH_ORDERS = [
    [2, 3, 4], [5, 5, 6], [7, 8, 9], [10, 11, 12], [12, 13, 14], [15, 16, 17],
    [18, 18, 19], [20, 21, 22], [23, 24, 25], [25, 26, 27], [28, 29, 30],
    [31, 31, 32], [33, 34, 35], [36, 37, 38], [38, 39, 40], [41, 42, 43],
]


def test_restart_epoch_order_unchanged_below_1e16():
    assert [[restart_epoch_order(m * 10**e) for m in (1, 2, 5)]
            for e in range(16)] == EPOCH_ORDERS


def test_restart_epoch_order_past_float_cancellation():
    # float(B_45) reads 0.0, so every kappa >= 1e16 used to get k = 45
    for kappa, k in ((1e16, 44), (5e16, 46), (1e19, 52)):
        assert restart_epoch_order(kappa) == k
        assert rate_from_certificate(k) <= Fraction(1, 8) / Fraction(kappa)
        assert rate_from_certificate(k - 1) > Fraction(1, 8) / Fraction(kappa)


@pytest.mark.parametrize("call", [
    lambda: random_quadratic_instance(0, 0.0, 1.0, "zero", np.random.default_rng(0)),
    lambda: restart_solve(simple_quadratic(), math.nan, [1.0]),
    lambda: restart_epoch_order(math.nan),
    lambda: restart_epoch_order(math.inf),
    lambda: rate_bound(3, math.nan, 1.0),
    lambda: rate_bound(3, 1.0, math.nan),
    lambda: constant_baseline(3, -1.0, 1.0),
    lambda: constant_baseline(3, 1.0, math.nan),
    lambda: constant_baseline(2.5, 1.0, 1.0),
    lambda: constant_baseline(True, 1.0, 1.0),
    lambda: constant_baseline("3", 1.0, 1.0),
    lambda: random_quadratic_instance(2.5, 0.0, 1.0, "zero", np.random.default_rng(0)),
    lambda: random_quadratic_instance(True, 0.0, 1.0, "zero", np.random.default_rng(0)),
    lambda: random_quadratic_instance("3", 0.0, 1.0, "zero", np.random.default_rng(0)),
], ids=["instance-dim-0", "restart-epsilon-nan", "epoch-kappa-nan", "epoch-kappa-inf",
        "rate-m-nan", "rate-dist2-nan", "baseline-m-negative", "baseline-dist2-nan",
        "baseline-n-float", "baseline-n-bool", "baseline-n-str", "instance-dim-float",
        "instance-dim-bool", "instance-dim-str"])
def test_boundary_rejects_nan_and_bad_signs(call):
    with pytest.raises(ValueError):
        call()


def test_restart_rejects_subnormal_strong_convexity(monkeypatch):
    # M / m overflows to inf; an order picked for it would ask for a schedule
    # of 2**45 steps, so none may be built
    def no_schedule(k):
        raise AssertionError(f"silver_schedule({k}) built for an infinite kappa")

    monkeypatch.setattr(solver, "silver_schedule", no_schedule)
    problem = replace(simple_quadratic(),
                      smooth=replace(simple_quadratic().smooth, strong_convexity=5e-324))
    with pytest.raises(ValueError, match="finite"):
        restart_solve(problem, 1e-3, [1.0])


def test_restart_rejects_an_unknown_optimum_before_building_a_schedule(monkeypatch):
    # the epoch order of a large kappa asks for millions of steps (k=25 at 1e9),
    # so the missing optimum must be found first
    def no_schedule(k):
        raise AssertionError(f"silver_schedule({k}) built for an instance without optimum")

    monkeypatch.setattr(solver, "silver_schedule", no_schedule)
    with pytest.raises(ValueError, match="restart_solve needs an instance with known optimum"):
        restart_solve(replace(simple_quadratic(), optimum=None), 1e-3, [1.0])


def test_restart_requires_strong_convexity():
    problem, _ = lower_bound_instance(1, exact=False)
    with pytest.raises(ValueError):
        restart_solve(problem, 1e-3, [1.0])
    with pytest.raises(ValueError):
        restart_solve(simple_quadratic(), 0.0, [1.0])


# ---------------------------------------------------------------------------
# instance generators and oracle spot checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["zero", "l1", "box"])
def test_random_instance_optimality(kind):
    rng = np.random.default_rng(44)
    for _ in range(5):
        problem, x0 = random_quadratic_instance(7, 0.0, 1.0, kind, rng)
        assert check_optimality(problem) <= 1e-8
        assert len(x0) == 7
        assert check_gradient_lipschitz(problem.smooth, dim=7, seed=3) <= 1e-9


def test_random_instance_spectrum_endpoints():
    rng = np.random.default_rng(45)
    problem, _ = random_quadratic_instance(6, 0.25, 1.0, "zero", rng)
    lin = np.array(problem.smooth.gradient([0.0] * 6))
    cols = [
        np.array(problem.smooth.gradient([1.0 if j == i else 0.0 for j in range(6)]))
        - lin
        for i in range(6)
    ]
    eigs = np.linalg.eigvalsh(np.column_stack(cols))
    assert eigs.min() == pytest.approx(0.25, abs=1e-9)
    assert eigs.max() == pytest.approx(1.0, abs=1e-9)


def test_random_instance_rejects_bad_args():
    rng = np.random.default_rng(46)
    with pytest.raises(ValueError):
        random_quadratic_instance(4, 0.5, 0.25, "zero", rng)
    with pytest.raises(ValueError):
        random_quadratic_instance(4, 0.0, 1.0, "huber", rng)


@pytest.mark.parametrize("dim", [1, 8, 64])
def test_quadratic_oracle_matches_exact_reference(dim):
    rng = np.random.default_rng(100 + dim)
    problem, _ = random_quadratic_instance(dim, 0.0, 1.0, "l1", rng)
    quad = problem.smooth.value.__self__
    mat = [[Fraction(v) for v in row] for row in quad.mat.tolist()]
    lin = [Fraction(v) for v in quad.lin.tolist()]
    for _ in range(5):
        x = [float(v) for v in rng.normal(scale=2.0, size=dim)]
        xq = [Fraction(v) for v in x]
        value = problem.smooth.value(x)
        grad = problem.smooth.gradient(x)
        assert type(value) is float
        assert type(grad) is list and all(type(v) is float for v in grad)
        # The error bound of a float sum scales with the sum of the absolute
        # terms, so each comparison is relative to that magnitude.
        terms = [[a * b for a, b in zip(row, xq)] for row in mat]
        for i in range(dim):
            exact = sum(terms[i]) + lin[i]
            scale = sum(abs(t) for t in terms[i]) + abs(lin[i])
            assert abs(Fraction(grad[i]) - exact) <= Fraction(1e-12) * scale
        exact = sum(xq[i] * (sum(terms[i]) / 2 + lin[i]) for i in range(dim))
        scale = sum(abs(xq[i]) * (sum(abs(t) for t in terms[i]) / 2 + abs(lin[i]))
                    for i in range(dim))
        assert abs(Fraction(value) - exact) <= Fraction(1e-12) * scale


def test_divergence_raises_under_warnings_as_errors():
    rng = np.random.default_rng(47)
    problem, x0 = random_quadratic_instance(8, 0.0, 1.0, "zero", rng)
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="iteration"):
            proximal_gd_run(problem, [1e150] * 8, x0)
    assert np.geterr() == before  # the run does not leak its error state


# ---------------------------------------------------------------------------
# float bits: golden trace digest and the quadratic oracle's shared product
# ---------------------------------------------------------------------------

# SHA-256 of repr(xs, gs, ss, Fs, F_star) over the three seeded float runs of
# _golden_runs, recorded before value and gradient shared a product (numpy
# 2.4.6, OpenBLAS 0.3.31).  It pins every float bit of the loop, the prox
# oracles and the quadratic oracle.  Another BLAS may round its products
# otherwise, so the digest is compared only where the instances and a first
# product hash as they did then (BLAS_DIGEST); on every platform the runs must
# equal those of the two-product oracle, bit for bit.
FLOAT_TRACE_DIGEST = "49e5f0f095f4ef6acab18adb1a4d9060205712af7168be968eade961561eb104"
BLAS_DIGEST = "b15a4162c6c4b9e0767698115b45acd7fe0a00abd312f74de3694d444cba8065"


def _golden_runs():
    silver = [v.to_float() for v in silver_schedule(8)]
    for seed, dim, kind, steps in ((11, 256, "l1", silver), (12, 8, "box", silver),
                                   (13, 8, "zero", [1.0] * 255)):
        problem, x0 = random_quadratic_instance(
            dim, 0.0, 1.0, kind, np.random.default_rng(seed))
        yield problem, x0, steps


def _trace_bits(trace):
    return repr((trace.xs, trace.gs, trace.ss, trace.Fs, trace.F_star)).encode()


def _two_product(problem):
    """The instance with value and gradient each taking their own product."""
    quad = problem.smooth.value.__self__

    def value(x):
        z = np.asarray(x, dtype=float)
        return float(0.5 * (z @ (quad.mat @ z)) + quad.lin @ z)

    def gradient(x):
        return (quad.mat @ np.asarray(x, dtype=float) + quad.lin).tolist()

    return replace(problem, smooth=replace(problem.smooth, value=value, gradient=gradient))


def test_float_traces_equal_two_product_oracle():
    for problem, x0, steps in _golden_runs():
        assert _trace_bits(proximal_gd_run(problem, steps, x0)) == _trace_bits(
            proximal_gd_run(_two_product(problem), steps, x0))


def test_float_trace_bits_golden():
    runs, blas = hashlib.sha256(), hashlib.sha256()
    for problem, x0, steps in _golden_runs():
        quad = problem.smooth.value.__self__
        blas.update(repr((quad.mat.tolist(), quad.lin.tolist(), x0,
                          (quad.mat @ np.asarray(x0)).tolist())).encode())
        runs.update(_trace_bits(proximal_gd_run(problem, steps, x0)))
    if blas.hexdigest() != BLAS_DIGEST:
        pytest.skip("this BLAS rounds otherwise than the recording build")
    assert runs.hexdigest() == FLOAT_TRACE_DIGEST


def _eager_subgradients(problem, steps, x0):
    """s_{t+1} built on every iteration, as the loop once did."""
    big_m = problem.smooth.smoothness
    x, ss = list(x0), []
    for step in steps:
        a = step if big_m == 1 else step / big_m
        y = [xv - a * gv for xv, gv in zip(x, problem.smooth.gradient(x))]
        x_next = problem.nonsmooth.prox(y, a)
        ss.append([(yv - xv) / a for yv, xv in zip(y, x_next)])
        x = x_next
    return ss


def test_subgradients_on_first_read_equal_eager_loop():
    exact, _ = lower_bound_instance(6)
    scaled, scaled_x0 = random_quadratic_instance(5, 0.0, 4.0, "l1", np.random.default_rng(66))
    runs = [*_golden_runs(), (exact, [ONE], silver_schedule(6)), (exact, [ONE], [1] * 63),
            (scaled, scaled_x0, [v.to_float() for v in silver_schedule(3)])]  # M = 4
    for problem, x0, steps in runs:
        trace = proximal_gd_run(problem, steps, x0)
        assert "ss" not in vars(trace)  # nothing built until read
        assert trace.n == len(steps)
        ss = trace.ss
        assert repr(ss) == repr(_eager_subgradients(problem, steps, x0))
        assert trace.ss is ss  # kept after the first read


def test_exact_run_divides_only_when_subgradients_are_read(monkeypatch):
    problem, gap = lower_bound_instance(8)
    steps = silver_schedule(8)
    calls = []
    divide = RadicalScalar.__truediv__

    def counted(self, other):
        calls.append(other)
        return divide(self, other)

    monkeypatch.setattr(RadicalScalar, "__truediv__", counted)
    trace = proximal_gd_run(problem, steps, [ONE])
    assert trace.Fs[-1] - trace.F_star == gap
    assert calls == []
    assert all(s == [ZERO] for s in trace.ss)
    assert len(calls) == 255  # one per step at d = 1


def test_explicit_subgradients_kept():
    given = [[ONE], [ZERO]]
    trace = Trace(steps=[1, 1], xs=[[ONE]] * 3, gs=[[ZERO]] * 3, ss=given,
                  fs=[0] * 3, hs=[0] * 3, Fs=[0] * 3)
    assert trace.ss is given
    assert trace.n == 2


class _CountingMat:
    """Stands in for ``_Quadratic.mat`` and counts the products taken with it."""

    def __init__(self, mat):
        self.mat, self.products = mat, 0

    def __matmul__(self, z):
        self.products += 1
        return self.mat @ z


def _counted_quadratic(seed):
    problem, x0 = random_quadratic_instance(8, 0.0, 1.0, "l1", np.random.default_rng(seed))
    quad = problem.smooth.value.__self__
    fresh = type(quad)(quad.mat, quad.lin)  # same data, cold cache: the reference
    quad.mat = _CountingMat(quad.mat)
    return x0, quad, fresh


def _same_bits(quad, fresh, x):
    assert repr(quad.value(x)) == repr(fresh.value(list(x)))
    assert repr(quad.gradient(x)) == repr(fresh.gradient(list(x)))


def test_quadratic_value_then_gradient_share_one_product():
    x, quad, fresh = _counted_quadratic(60)
    _same_bits(quad, fresh, x)
    assert quad.mat.products == 1


def test_quadratic_alternating_points():
    x, quad, fresh = _counted_quadratic(61)
    y = [v / 3 for v in x]
    for point in (x, y, x, y, y):
        _same_bits(quad, fresh, point)
    assert quad.mat.products == 4  # one per change of point


@pytest.mark.parametrize("edit", ["changed", "zero-sign"])
def test_quadratic_point_mutated_in_place(edit):
    x, quad, fresh = _counted_quadratic(62)
    x[2] = 0.0
    before = quad.value(x)
    if edit == "changed":
        x[5] += 1.0
    else:
        x[2] = -0.0  # equal under ==, but other bits; BLAS sums drop the sign
        # of a zero, so only the product count tells a stale hit from a fresh one
    assert repr(quad.gradient(x)) == repr(fresh.gradient(list(x)))
    assert repr(quad.value(x)) == repr(fresh.value(list(x)))
    assert quad.mat.products == 2
    if edit == "changed":
        assert quad.value(x) != before


def test_quadratic_fresh_list_with_equal_bits_hits():
    x, quad, fresh = _counted_quadratic(63)
    x[0] = 0.0
    quad.value(x)
    copy = [float(repr(v)) for v in x]  # new float objects, the same bits
    assert all(a is not b for a, b in zip(x, copy))
    _same_bits(quad, fresh, copy)
    assert quad.mat.products == 1
    flipped = [-0.0] + copy[1:]
    assert flipped == copy
    _same_bits(quad, fresh, flipped)
    assert quad.mat.products == 2


def test_quadratic_gradient_list_is_the_callers():
    x, quad, fresh = _counted_quadratic(64)
    first = quad.gradient(x)
    first[0] = 1e9
    assert repr(quad.gradient(x)) == repr(fresh.gradient(x))


@pytest.mark.parametrize("kind", ["zero", "l1", "box"])
def test_one_product_per_point_of_a_run(kind):
    problem, x0 = random_quadratic_instance(16, 0.0, 1.0, kind, np.random.default_rng(65))
    quad = problem.smooth.value.__self__
    quad.mat = _CountingMat(quad.mat)
    steps = [v.to_float() for v in silver_schedule(4)]
    trace = proximal_gd_run(problem, steps, x0)
    assert quad.mat.products == len(steps) + 2  # x_0, ..., x_n and x_*
    assert trace.n == len(steps)


# ---------------------------------------------------------------------------
# the finiteness guard
# ---------------------------------------------------------------------------


def _flat_problem(dim):
    return ProblemInstance(
        smooth=SmoothOracle(value=lambda x: 0.0, gradient=lambda x: [0.0] * dim, smoothness=1),
        nonsmooth=prox_library("zero"),
        dimension=dim,
    )


def test_finite_coordinates_whose_sum_overflows_pass():
    trace = proximal_gd_run(_flat_problem(2), [1.0, 1.0], [1e308, 1e308])
    assert trace.xs[-1] == [1e308, 1e308]


def test_infinities_of_both_signs_raise():
    with pytest.raises(ArithmeticError, match="iteration 1"):
        proximal_gd_run(_flat_problem(2), [1.0], [math.inf, -math.inf])


def test_exact_run_never_converts_to_float(monkeypatch):
    with pytest.raises(TypeError):
        ONE + 0.0  # so a float-seeded sum cannot shortcut the guard

    def no_float(self):
        raise AssertionError("exact coordinate converted to float")

    monkeypatch.setattr(RadicalScalar, "__float__", no_float)
    problem, gap = lower_bound_instance(4)
    trace = proximal_gd_run(problem, silver_schedule(4), [ONE])
    assert trace.Fs[-1] - trace.F_star == gap
