import operator
import random
from dataclasses import replace

import pytest

from silverprox.certificate import (
    build_bundle,
    build_lambda,
    build_mu,
    build_slack,
    build_u_coeffs,
    check_laplacian,
    check_multipliers_nonneg,
    check_schur_psd,
    display_rate,
    evaluate_identity,
    rate_from_certificate,
    sample_free_trace,
    tamper_bundle,
    verify_descent_identity,
)
from silverprox.exactnum import ONE, RHO, SQRT2, ZERO, RadicalScalar, rho_pow
from silverprox.schedule import c_sequence, silver_schedule
from sparse_rows import dense, with_entries

TWO_RHO_MINUS_2 = SQRT2 * 2  # 2(rho - 1)


# ---------------------------------------------------------------------------
# golden data at order 1 and the first doubling
# ---------------------------------------------------------------------------


def test_lambda_base_case():
    lam = build_lambda(1)
    assert lam.bar == [{1: RHO}, {0: ONE}]
    assert lam.star_row == [SQRT2, RHO]  # [rho - 1, rho]


def test_lambda_first_doubling():
    lam = build_lambda(2)
    bar = dense(lam.bar)
    assert bar[1][3] == RHO  # sparse coupling, first copy -> second
    assert bar[3][1] == RHO  # sparse coupling back, value rho^1
    assert bar[1][2] == RadicalScalar(2, 1)  # low-rank row: rho * sqrt2
    # same low-rank addition lands on top of the glued copy in the last row
    assert bar[3][2] == rho_pow(2) * ONE + RadicalScalar(2, 1)
    # glued copies: top-left block is the order-1 grid, bottom-right rho^2
    # times it plus the documented corrections
    assert [row[:2] for row in bar[:2]] == dense(build_lambda(1).bar)
    assert bar[2][3] == rho_pow(2) * RHO
    assert bar[2][2] == ZERO and bar[3][3] == ZERO
    assert lam.star_row == silver_schedule(2) + [rho_pow(2)]


def test_mu_base_case():
    mu = build_mu(1)
    assert mu.bar == [{}]
    assert mu.star_row == [RHO * 2 - 1]


def test_mu_first_doubling():
    mu = build_mu(2)
    bar = dense(mu.bar)
    # rows/cols are 0-based for iterates 1..3
    assert bar[2][1] == (RHO - rho_pow(-1)) * 2  # sparse entry at (3, 2)
    assert bar[2][0] == ZERO  # entry (3, 1)
    assert bar[0][1] == RHO  # sparse entry (1, 2), value rho^1
    # (2, 3) collects the sparse rho^2 plus the low-rank rho/(rho^0+1) * sqrt2
    assert bar[1][2] == rho_pow(2) + RHO / 2 * SQRT2
    assert mu.star_row == [c_sequence(2)[0] + ONE] + c_sequence(2)[1:]
    # closed form of the bottom barred row
    c2, pi2 = c_sequence(2), silver_schedule(2)
    scale = rho_pow(2) - ONE
    for j in range(2):
        assert bar[2][j] == scale * (c2[j] - pi2[j])


def test_mu_last_row_closed_form():
    for k in range(2, 7):
        mu = build_mu(k)
        c, pi = c_sequence(k), silver_schedule(k)
        n = 2**k - 1
        scale = rho_pow(k) - ONE
        for j in range(n - 1):
            assert mu.bar[n - 1].get(j, ZERO) == scale * (c[j] - pi[j])


def test_mu_glued_row_closed_form():
    # after one more doubling the same row obeys rho^(2k-1)/(rho^(k-1)+1) * gap
    for k in range(1, 6):
        big = build_mu(k + 1)
        c, pi = c_sequence(k), silver_schedule(k)
        n = 2**k - 1
        factor = rho_pow(2 * k - 1) / (rho_pow(k - 1) + ONE)
        for j in range(n - 1):
            assert big.bar[n - 1].get(j, ZERO) == factor * (c[j] - pi[j])


def test_recursive_blocks_preserved():
    for k in range(1, 6):
        small_lam, big_lam = build_lambda(k), build_lambda(k + 1)
        n = 2**k - 1
        for i in range(n + 1):
            assert {j: v for j, v in big_lam.bar[i].items() if j <= n} == small_lam.bar[i]
        small_mu, big_mu = build_mu(k), build_mu(k + 1)
        c, pi = c_sequence(k), silver_schedule(k)
        mid = rho_pow(k - 1) + ONE
        w_lo = ONE - rho_pow(k) / mid
        for i in range(n):
            for j in range(n):
                expected = small_mu.bar[i].get(j, ZERO)
                if i == n - 1:
                    expected = expected + w_lo * (c[j] - pi[j])
                assert big_mu.bar[i].get(j, ZERO) == expected


def test_slack_base_case():
    slack = build_slack(1)
    assert slack.lap[0][0] == TWO_RHO_MINUS_2  # the 1 x 1 core
    assert slack.lap == [
        {0: TWO_RHO_MINUS_2, 1: -TWO_RHO_MINUS_2},
        {0: -TWO_RHO_MINUS_2, 1: TWO_RHO_MINUS_2},
    ]
    s = slack.s
    assert s[0][0] == RadicalScalar(0, 1) / 2  # 1/sqrt2
    assert s[0][1] == -ONE and s[1][0] == -ONE
    assert s[0][2] == ONE and s[2][0] == ONE
    for r in range(2):
        for c in range(2):
            assert s[1 + r][1 + c] == slack.lap[r][c]


def test_slack_first_doubling():
    slack = build_slack(2)
    # middle diagonal of the gluing correction is (rho^0+1)(rho^2+1) = 8+4sqrt2,
    # reduced by the squared companion-gap middle entry
    assert slack.lap[1][1] == RadicalScalar(-4, 12)
    # row sums of the core (top-left 3 x 3 block of L) equal the companion sequence
    c2 = c_sequence(2)
    for r in range(3):
        total = ZERO
        for v in dense(slack.lap)[r][:3]:
            total = total + v
        assert total == c2[r]


def test_slack_symmetry():
    for k in (1, 2, 3, 4):
        s = build_slack(k).s
        size = len(s)
        assert all(0 <= j < size for row in s for j in row.keys())
        for i in range(size):
            for j in range(size):
                assert s[i].get(j, ZERO) == s[j].get(i, ZERO)


@pytest.mark.parametrize("k", range(1, 9))
def test_sparse_row_storage_invariants(k):
    bundle = build_bundle(k)
    n = bundle.n
    for rows, count in ((bundle.lam.bar, n + 1), (bundle.mu.bar, n),
                        (bundle.slack.lap, n + 1), (bundle.slack.s, n + 2)):
        assert len(rows) == count
        for row in rows:
            keys = list(row.keys())
            assert keys == sorted(keys)
            assert all(0 <= j < count for j in keys)
            assert all(row.values())  # no stored zero
        # iterating the rows reads like a dense scan that skips the zeros
        assert [v for row in rows for v in row] == [v for row in dense(rows) for v in row if v]


def test_u_coefficients_base_case():
    uc = build_u_coeffs(1)
    assert uc.init == ONE
    assert uc.g == (-SQRT2, -RHO)  # -(rho-1) g_0 - rho g_1
    assert uc.s == (-TWO_RHO_MINUS_2,)
    assert uc.s_star == -ONE


# ---------------------------------------------------------------------------
# exact checks and their negative controls
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 7))
def test_all_checks_pass(k):
    bundle = build_bundle(k)
    assert check_multipliers_nonneg(bundle).passed
    assert check_laplacian(bundle).passed
    assert check_schur_psd(bundle).passed


def test_schur_base_case_value():
    bundle = build_bundle(1)
    lap = bundle.slack.lap
    shifted = [
        [lap[0][0] - SQRT2, lap[0][1] + SQRT2],
        [lap[1][0] + SQRT2, lap[1][1] - SQRT2],
    ]
    assert shifted == [[SQRT2, -SQRT2], [-SQRT2, SQRT2]]


@pytest.mark.parametrize("row, col, value, detail", [
    (0, 0, -ONE, "S[0][0] = -1/1 + 0/1*sqrt2, not 0/1 + 1/2*sqrt2"),
    (4, 0, ZERO, "S[4][0] = 0/1 + 0/1*sqrt2, not 1/1 + 0/1*sqrt2"),
    (2, 3, ONE, "S[2][3] = 1/1 + 0/1*sqrt2, not 6/1 + -9/1*sqrt2"),
], ids=["corner", "border", "core"])
def test_schur_negative_control_reads_s(row, col, value, detail):
    bundle = build_bundle(2)
    s_mat = with_entries(bundle.slack.s, {(row, col): value})
    bad = replace(bundle, slack=replace(bundle.slack, s=s_mat))
    assert check_laplacian(bad).passed  # S is read by the Schur check alone
    report = check_schur_psd(bad)
    assert not report.passed
    assert report.detail == detail


def test_schur_fails_on_tampered_slack():
    report = check_schur_psd(tamper_bundle(build_bundle(3), "slack"))
    assert report.detail == "S[0][0] = 1/1 + 1/2*sqrt2, not 0/1 + 1/2*sqrt2"


@pytest.mark.parametrize("part, row, col, change, detail", [
    ("lam", 0, 1, operator.neg, "lambda_bar[0][1] = -1/1 + -1/1*sqrt2 < 0"),
    ("mu", 2, 1, operator.neg, "mu_bar[2][1] = -4/1 + 0/1*sqrt2 < 0"),
    ("lam", None, 1, operator.neg, "lambda_star[1] = -2/1 + 0/1*sqrt2 < 0"),
    ("mu", None, 1, operator.neg, "mu_star[1] = 0/1 + -2/1*sqrt2 < 0"),
    # the (n, 1) entry of mu_bar is zero, so decrement it instead
    ("mu", 2, 0, lambda v: v - ONE, "mu_bar[2][0] = -1/1 + 0/1*sqrt2 < 0"),
    ("mu", 2, 0, lambda v: v + ONE,
     "mu_bar[2][0] = 1/1 + 0/1*sqrt2 deviates from closed form 0/1 + 0/1*sqrt2"),
], ids=["lambda_bar", "mu_bar", "lambda_star", "mu_star", "mu_bar_decremented",
        "mu_closed_form"])
def test_nonneg_negative_control(part, row, col, change, detail):
    bundle = build_bundle(2)
    mult = getattr(bundle, part)
    if row is None:
        star = mult.star_row[:]
        star[col] = change(star[col])
        mult = replace(mult, star_row=star)
    else:
        bar = with_entries(mult.bar, {(row, col): change(mult.bar[row].get(col, ZERO))})
        mult = replace(mult, bar=bar)
    report = check_multipliers_nonneg(replace(bundle, **{part: mult}))
    assert not report.passed
    assert report.detail == detail


def test_laplacian_negative_control():
    bundle = build_bundle(2)
    n = bundle.n
    lap = bundle.slack.lap
    # corner becomes 2(rho^k - 1) + 1
    lap = with_entries(lap, {(n, n): lap[n][n] + ONE})
    bad = replace(bundle, slack=replace(bundle.slack, lap=lap))
    report = check_laplacian(bad)
    assert not report.passed
    assert report.detail == "row 3 sums to 1/1 + 0/1*sqrt2, not 0"
    schur = check_schur_psd(bad)
    assert not schur.passed
    assert schur.detail == "Schur complement row 3 sums to 1/1 + 0/1*sqrt2, not 0"


def test_laplacian_core_check_reads_stored_lap():
    # Zero the off-diagonal core pair L[1][2] = L[2][1] = 6 - 9 sqrt2 and move
    # its value onto both diagonals: L keeps zero row sums and nonpositive
    # off-diagonals, but core plus gap gap^T turns positive at [1][2].
    bundle = build_bundle(2)
    old = bundle.slack.lap[1][2]
    assert old == RadicalScalar(6, -9)

    def moved(rows, a):
        b = a + 1
        return with_entries(rows, {(a, b): ZERO, (b, a): ZERO,
                                   (a, a): rows[a][a] + old, (b, b): rows[b][b] + old})

    lap, s_mat = moved(bundle.slack.lap, 1), moved(bundle.slack.s, 2)
    bad = replace(bundle, slack=replace(bundle.slack, lap=lap, s=s_mat))
    report = check_laplacian(bad)
    assert not report.passed
    assert report.detail == "core-plus-outer entry [1][2] = -8/1 + 8/1*sqrt2 > 0"
    assert check_schur_psd(bad).passed  # the edit keeps S = L with its border


def test_laplacian_positive_off_diagonal_named():
    bundle = build_bundle(2)
    lap = bundle.slack.lap
    lap = with_entries(lap, {(1, 2): lap[1][2] + 10})  # 6 - 9 sqrt2 + 10 > 0
    bad = replace(bundle, slack=replace(bundle.slack, lap=lap))
    assert check_laplacian(bad).detail == "off-diagonal L[1][2] = 16/1 + -9/1*sqrt2 > 0"
    assert (check_schur_psd(bad).detail
            == "Schur complement off-diagonal [1][2] = 16/1 + -9/1*sqrt2 > 0")


# Negative controls at positions the k=2 certificate does not store: a scan
# over stored entries only must still see a value placed there.  The details
# and the residual were recorded with dense list-of-lists storage.


def test_nonneg_control_at_unstored_position():
    bundle = build_bundle(2)
    assert 3 not in bundle.lam.bar[0]
    bar = with_entries(bundle.lam.bar, {(0, 3): -ONE})
    report = check_multipliers_nonneg(replace(bundle, lam=replace(bundle.lam, bar=bar)))
    assert not report.passed
    assert report.detail == "lambda_bar[0][3] = -1/1 + 0/1*sqrt2 < 0"


def test_laplacian_control_at_unstored_position():
    bundle = build_bundle(2)
    assert 2 not in bundle.slack.lap[0]
    lap = with_entries(bundle.slack.lap, {(0, 2): ONE})
    report = check_laplacian(replace(bundle, slack=replace(bundle.slack, lap=lap)))
    assert not report.passed
    assert report.detail == "off-diagonal L[0][2] = 1/1 + 0/1*sqrt2 > 0"


def test_identity_control_at_unstored_position():
    bundle = build_bundle(2)
    assert 3 not in bundle.lam.bar[0]
    bar = with_entries(bundle.lam.bar, {(0, 3): ONE})
    bad = replace(bundle, lam=replace(bundle.lam, bar=bar))
    report = verify_descent_identity(2, trials=20, dim=4, seed=2, bundle=bad)
    assert report.failures == tuple(range(20))
    assert report.first_residual == "-137/1 + 66/1*sqrt2"


# ---------------------------------------------------------------------------
# descent identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 5))
def test_identity_exact(k):
    report = verify_descent_identity(k, trials=8, dim=3, seed=17)
    assert report.passed
    assert report.first_residual == ""


def test_identity_single_sample_both_sides():
    bundle = build_bundle(2)
    trace = sample_free_trace(bundle.pi, 4, random.Random(5))
    lhs, rhs = evaluate_identity(bundle, trace)
    assert lhs == rhs
    assert lhs.a.denominator >= 1  # exact rationals all the way through


def test_identity_detects_perturbed_lambda():
    bundle = build_bundle(2)
    bar = with_entries(bundle.lam.bar, {(1, 3): bundle.lam.bar[1][3] + ONE})
    bad = replace(bundle, lam=replace(bundle.lam, bar=bar))
    report = verify_descent_identity(2, trials=20, dim=4, seed=3, bundle=bad)
    assert report.failures
    assert report.first_residual != ""


@pytest.mark.parametrize("target", ["lambda", "mu", "slack", "u"])
def test_identity_tamper_hooks(target):
    bad = tamper_bundle(build_bundle(2), target)
    report = verify_descent_identity(2, trials=20, dim=4, seed=3, bundle=bad)
    assert len(report.failures) >= 1


# first_residual of each negative control at the CLI's k=2 defaults, recorded
# when the free trace still held Fraction coordinates: the integer trace
# changes no value.
TAMPER_RESIDUALS = {
    "lambda": "-107/2 + 14/1*sqrt2",
    "mu": "20/1 + 6/1*sqrt2",
    "slack": "27/2 + 0/1*sqrt2",
    "u": "79/2 + -60/1*sqrt2",
}


@pytest.mark.parametrize("target", sorted(TAMPER_RESIDUALS))
def test_identity_tamper_residuals_pinned(target):
    bad = tamper_bundle(build_bundle(2), target)
    report = verify_descent_identity(2, trials=20, dim=4, seed=2, bundle=bad)
    assert report.failures[0] == 0
    assert report.first_residual == TAMPER_RESIDUALS[target]


def _dense_slack_trace(s_rows, trace):
    """Tr(V S V^T) over every entry of the dense S, V = [w, s_1, ..., s_n, s_*]."""
    cols = [trace.xs[0]] + trace.ss + [trace.s_star]
    return sum((v * sum(a * b for a, b in zip(cols[r], cols[j]))
                for r, row in enumerate(dense(s_rows)) for j, v in enumerate(row)), ZERO)


@pytest.mark.parametrize("k", [2, 4])
def test_identity_slack_term_without_mirrors(k):
    # Pairs stored only above or only below the diagonal, and a pair whose two
    # values differ, each enter the slack term as the dense sum has them.
    bundle = build_bundle(k)
    s = bundle.slack.s
    pairs = [(r, j) for r, row in enumerate(s) for j in row.keys() if j > r and r in s[j]]
    (r1, j1), (r2, j2), (r3, j3) = pairs[0], pairs[len(pairs) // 2], pairs[-1]
    edits = {(j1, r1): ZERO, (r2, j2): ZERO, (r3, j3): s[r3][j3] + ONE}
    bad = replace(bundle, slack=replace(bundle.slack, s=with_entries(s, edits)))
    assert r1 not in bad.slack.s[j1] and j2 not in bad.slack.s[r2]
    trace = sample_free_trace(bundle.pi, 3, random.Random(11))
    lhs, rhs = evaluate_identity(bundle, trace)
    bad_lhs, bad_rhs = evaluate_identity(bad, trace)
    assert lhs == rhs and bad_lhs == lhs
    change = _dense_slack_trace(bad.slack.s, trace) - _dense_slack_trace(s, trace)
    assert change  # the edits move the term on this trace
    assert bad_rhs - rhs == -change / 2


def test_free_trace_is_plain_ints():
    trace = sample_free_trace(build_bundle(2).pi, 2, random.Random(7))
    assert trace.gs == [[0, -3], [1, 5], [-5, -4], [3, -4]]
    assert trace.ss == [[0, 4], [-5, 3], [-2, -5]]
    assert trace.s_star == [-4, 1]
    assert trace.fs == [1, -4, -2, -4]
    assert trace.hs == [3, 1, -5, 4]
    assert (trace.f_star, trace.h_star) == (-4, -2)
    assert trace.xs[0] == [RadicalScalar(5), RadicalScalar(5)]
    free = [*trace.fs, *trace.hs, trace.f_star, trace.h_star, *trace.s_star]
    free += [v for vec in trace.gs + trace.ss for v in vec]
    assert all(type(v) is int for v in free)


def test_identity_rejects_mismatched_order():
    with pytest.raises(ValueError, match="order 2, not k=5"):
        verify_descent_identity(5, trials=2, dim=2, bundle=build_bundle(2))


def test_tamper_unknown_target():
    with pytest.raises(ValueError):
        tamper_bundle(build_bundle(1), "nonsense")


def test_identity_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_descent_identity(1, trials=0)
    with pytest.raises(ValueError):
        verify_descent_identity(1, dim=0)
    with pytest.raises(ValueError):
        build_bundle(0)


# ---------------------------------------------------------------------------
# rate constants
# ---------------------------------------------------------------------------


def test_rate_exact_values():
    from fractions import Fraction

    assert rate_from_certificate(1) == RadicalScalar(Fraction(1, 14), Fraction(3, 28))
    assert float(rate_from_certificate(1)) == pytest.approx(0.2229514531)
    assert float(rate_from_certificate(2)) == pytest.approx(0.0800943, abs=1e-6)


def test_rate_below_display_constant():
    for k in range(1, 13):
        assert float(rate_from_certificate(k)) <= display_rate(k) + 1e-15


def test_rate_rejects_bad_order():
    with pytest.raises(ValueError):
        rate_from_certificate(0)
