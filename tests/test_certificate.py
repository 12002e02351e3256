import enum
import math
import operator
import random
import re
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from silverprox import certificate, exactnum, schedule
from silverprox.certificate import (
    TAMPER_TARGETS,
    GluingLevel,
    SparseRow,
    _PreparedIdentity,
    build_bundle,
    build_lambda,
    build_mu,
    build_slack,
    check_laplacian,
    check_multipliers_nonneg,
    check_schur_psd,
    tamper_bundle,
    verify_descent_identity,
)
from silverprox.exactnum import ONE, RHO, SQRT2, ZERO, RadicalScalar, rho_pow
from silverprox.schedule import c_sequence, rate_from_certificate, silver_schedule
from silverprox.solver import cocoercivity_f, cocoercivity_h, lower_bound_instance, rate_bound
from sparse_rows import (
    as_bar,
    bordered,
    dense,
    free_trace,
    identity_sides,
    laplacian_violation,
    rows,
    schur_rows,
    slack_term,
    symmetric,
    with_entries,
)

TWO_RHO_MINUS_2 = SQRT2 * 2  # 2(rho - 1)


# ---------------------------------------------------------------------------
# golden data at order 1 and the first doubling
# ---------------------------------------------------------------------------


def test_lambda_base_case():
    lam = build_lambda(1)
    assert rows(lam.bar) == [{1: RHO}, {0: ONE}]
    assert lam.star_row == [SQRT2, RHO]  # [rho - 1, rho]


def test_lambda_first_doubling():
    lam = build_lambda(2)
    bar = dense(rows(lam.bar))
    assert bar[1][3] == RHO  # sparse coupling, first copy -> second
    assert bar[3][1] == RHO  # sparse coupling back, value rho^1
    assert bar[1][2] == RadicalScalar(2, 1)  # low-rank row: rho * sqrt2
    # same low-rank addition lands on top of the glued copy in the last row
    assert bar[3][2] == rho_pow(2) * ONE + RadicalScalar(2, 1)
    # glued copies: top-left block is the order-1 grid, bottom-right rho^2
    # times it plus the documented corrections
    assert [row[:2] for row in bar[:2]] == dense(rows(build_lambda(1).bar))
    assert bar[2][3] == rho_pow(2) * RHO
    assert bar[2][2] == ZERO and bar[3][3] == ZERO
    assert lam.star_row == silver_schedule(2) + [rho_pow(2)]


def test_mu_base_case():
    mu = build_mu(1)
    assert rows(mu.bar) == [{}]
    assert mu.star_row == [RHO * 2 - 1]


def test_mu_first_doubling():
    mu = build_mu(2)
    bar = dense(rows(mu.bar))
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
        scale, last = rho_pow(k) - ONE, rows(mu.bar)[n - 1]
        for j in range(n - 1):
            assert last.get(j, ZERO) == scale * (c[j] - pi[j])


def test_mu_glued_row_closed_form():
    # after one more doubling the same row obeys rho^(2k-1)/(rho^(k-1)+1) * gap
    for k in range(1, 6):
        big = build_mu(k + 1)
        c, pi = c_sequence(k), silver_schedule(k)
        n = 2**k - 1
        factor, row = rho_pow(2 * k - 1) / (rho_pow(k - 1) + ONE), rows(big.bar)[n - 1]
        for j in range(n - 1):
            assert row.get(j, ZERO) == factor * (c[j] - pi[j])


def test_recursive_blocks_preserved():
    for k in range(1, 6):
        small_lam, big_lam = rows(build_lambda(k).bar), rows(build_lambda(k + 1).bar)
        n = 2**k - 1
        for i in range(n + 1):
            assert {j: v for j, v in big_lam[i].items() if j <= n} == small_lam[i]
        small_mu, big_mu = rows(build_mu(k).bar), rows(build_mu(k + 1).bar)
        c, pi = c_sequence(k), silver_schedule(k)
        mid = rho_pow(k - 1) + ONE
        w_lo = ONE - rho_pow(k) / mid
        for i in range(n):
            for j in range(n):
                expected = small_mu[i].get(j, ZERO)
                if i == n - 1:
                    expected = expected + w_lo * (c[j] - pi[j])
                assert big_mu[i].get(j, ZERO) == expected


def test_slack_base_case():
    slack = build_slack(1)
    # the tree of order 1: its one level, the leaf core'_1 = [2(rho - 1) + gap_1**2],
    # glues two empty core'_0, so its gap and pi are order 0's, empty
    assert slack.levels == (GluingLevel(gap=[], diag=TWO_RHO_MINUS_2 + 2, pi=[]),)
    assert slack.gap == [SQRT2] and slack.c == [TWO_RHO_MINUS_2]
    assert slack.corner == TWO_RHO_MINUS_2
    rows = list(slack.lap)
    assert rows[0][0] == TWO_RHO_MINUS_2  # the 1 x 1 core
    assert rows == [{0: TWO_RHO_MINUS_2, 1: -TWO_RHO_MINUS_2}, {1: TWO_RHO_MINUS_2}]
    lap = symmetric(rows)
    assert lap == [
        {0: TWO_RHO_MINUS_2, 1: -TWO_RHO_MINUS_2},
        {0: -TWO_RHO_MINUS_2, 1: TWO_RHO_MINUS_2},
    ]
    assert slack.border == {0: RadicalScalar(0, 1) / 2, 1: -ONE, 2: ONE}
    s = bordered(slack)
    assert s[0][0] == RadicalScalar(0, 1) / 2  # 1/sqrt2
    assert s[0][1] == -ONE and s[1][0] == -ONE
    assert s[0][2] == ONE and s[2][0] == ONE
    for r in range(2):
        for c in range(2):
            assert s[1 + r][1 + c] == lap[r][c]


def test_slack_first_doubling():
    slack = build_slack(2)
    # the gluing column B_1: -rho gap_1, (rho^0+1)(rho^2+1) = 8+4sqrt2, -rho pi(1)
    _, level = slack.levels
    assert (level.gap, level.diag, level.pi) == ([SQRT2], RadicalScalar(8, 4), [SQRT2])
    # the middle diagonal of L is that diagonal less the squared middle gap entry
    lap = dense(symmetric(slack.lap))
    assert lap[1][1] == RadicalScalar(-4, 12)
    # row sums of the core (top-left 3 x 3 block of L) equal the companion sequence
    c2 = c_sequence(2)
    for r in range(3):
        total = ZERO
        for v in lap[r][:3]:
            total = total + v
        assert total == c2[r]


@pytest.mark.parametrize("k", range(1, 9))
def test_sparse_row_storage_invariants(k):
    bundle = build_bundle(k)
    n = bundle.n
    lap, border = list(bundle.slack.lap), bundle.slack.border
    for bar in (bundle.lam.bar, bundle.mu.bar):
        # every row is a triple over a stored SparseRow: a plain row (row, 0, 0),
        # or a glued copy with power >= 1 and offset >= 1
        for stored, power, offset in bar:
            assert type(stored) is SparseRow
            assert (power, offset) == (0, 0) or (power >= 1 and offset >= 1)
            keys = list(stored.keys())
            assert keys == sorted(keys) and all(stored.values()) and all(j >= 0 for j in keys)
    for plain, count in ((rows(bundle.lam.bar), n + 1), (rows(bundle.mu.bar), n), (lap, n + 1)):
        assert len(plain) == count
        for row in plain:
            keys = list(row.keys())
            assert keys == sorted(keys)
            assert all(0 <= j < count for j in keys)
            assert all(row.values())  # no stored zero
            assert list(row.items()) == list(zip(keys, row.values()))
    # iterating L's rows reads like a dense scan that skips the zeros
    assert [v for row in lap for v in row] == [v for row in dense(lap) for v in row if v]
    assert all(min(row.keys()) >= r for r, row in enumerate(lap))  # L's upper triangle
    keys = list(border.keys())
    assert keys == sorted(keys) and all(0 <= j <= n + 1 for j in keys)
    assert all(border.values()) and list(border) == list(border.values())
    # the tree holds O(n) entries: two of size 2**j - 1 per level j = 0..k-1, gap_k and c
    slack = bundle.slack
    assert [(len(lv.gap), len(lv.pi)) for lv in slack.levels] == [
        (2**j - 1, 2**j - 1) for j in range(k)]
    assert len(slack.gap) == len(slack.c) == n


@pytest.mark.parametrize("k", range(1, 9))
def test_tree_checks_agree_with_row_oracle(k):
    # The induction's verdict, on the rows it generates, by an explicit scan.
    slack = build_bundle(k).slack
    assert laplacian_violation(slack.lap) == ""
    assert laplacian_violation(schur_rows(slack)) == ""


def test_u_coefficients_base_case():
    # u = (x_0 - x_*) - (rho-1) g_0 - rho g_1 - 2(rho-1) s_1 - s_*
    assert build_bundle(1).u_coeffs == (ONE, -SQRT2, -RHO, -TWO_RHO_MINUS_2, -ONE)


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
    lap = symmetric(bundle.slack.lap)
    shifted = [
        [lap[0][0] - SQRT2, lap[0][1] + SQRT2],
        [lap[1][0] + SQRT2, lap[1][1] - SQRT2],
    ]
    assert shifted == [[SQRT2, -SQRT2], [-SQRT2, SQRT2]]


@pytest.mark.parametrize("col, value, detail", [
    (0, -ONE, "S[0][0] = -1/1 + 0/1*sqrt2, not 0/1 + 1/2*sqrt2"),
    (4, ZERO, "S[0][4] = 0/1 + 0/1*sqrt2, not 1/1 + 0/1*sqrt2"),
], ids=["corner", "border"])
def test_schur_negative_control_reads_s(col, value, detail):
    bundle = build_bundle(2)
    border = with_entries([bundle.slack.border], {(0, col): value})[0]
    bad = replace(bundle, slack=replace(bundle.slack, border=border))
    s_mat = dense(bordered(bad.slack))
    assert s_mat[0][col] == s_mat[col][0] == value  # the border is S's row and column
    assert check_laplacian(bad).passed  # S's border is read by the Schur check alone
    report = check_schur_psd(bad)
    assert not report.passed
    assert report.detail == detail


@pytest.mark.parametrize("col", [12, -1, 9])
def test_identity_rejects_a_border_column_outside_v(col):
    # column 12 ended the identity in IndexError and -1 was read as s_*; V has columns 0..8
    bundle = build_bundle(3)
    slack = bundle.slack
    bad = replace(bundle, slack=replace(slack, border=SparseRow({**slack.border, col: ONE})))
    detail = f"S's border reads column {col}, outside 0..8"
    report = check_schur_psd(bad)
    assert (report.passed, report.detail) == (False, "Schur complement " + detail)
    with pytest.raises(ValueError, match=re.escape(detail)):
        verify_descent_identity(bad, trials=1, dim=2)


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
        plain = rows(mult.bar)
        bar = as_bar(with_entries(plain, {(row, col): change(plain[row].get(col, ZERO))}))
        mult = replace(mult, bar=bar)
    report = check_multipliers_nonneg(replace(bundle, **{part: mult}))
    assert not report.passed
    assert report.detail == detail


def _nonneg_by_scan(bundle):
    """check_multipliers_nonneg's (passed, detail), by a scan of every entry the rows read as."""
    for label, mult in (("lambda", bundle.lam), ("mu", bundle.mu)):
        for i, row in enumerate(rows(mult.bar)):
            for j, v in row.items():
                if i != j and v.sign() < 0:
                    return False, f"{label}_bar[{i}][{j}] = {v} < 0"
        for j, v in enumerate(mult.star_row):
            if v.sign() < 0:
                return False, f"{label}_star[{j}] = {v} < 0"
    n, scale, last = bundle.n, rho_pow(bundle.k) - ONE, rows(bundle.mu.bar)[bundle.n - 1]
    for j in range(n - 1):
        v, expected = last.get(j, ZERO), scale * (bundle.slack.c[j] - bundle.pi[j])
        if v != expected:
            return False, f"mu_bar[{n - 1}][{j}] = {v} deviates from closed form {expected}"
    return True, ""


NONNEG_EDITS = {"negate": operator.neg, "minus_one": lambda v: v - ONE,
                "minus_a_third": lambda v: -(v + ONE) / 3, "drop": lambda v: ZERO}


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 6), part=st.sampled_from(("lam", "mu")), pick=st.integers(0, 2**20),
       edit=st.sampled_from(sorted(NONNEG_EDITS)), keep_first=st.booleans(),
       materialized=st.booleans())
@example(k=5, part="lam", pick=0, edit="negate", keep_first=False, materialized=False)
@example(k=5, part="lam", pick=0, edit="negate", keep_first=True, materialized=False)
@example(k=4, part="mu", pick=3, edit="minus_a_third", keep_first=True, materialized=False)
@example(k=3, part="mu", pick=5, edit="drop", keep_first=False, materialized=True)
def test_nonneg_check_matches_a_scan_of_the_materialized_rows(k, part, pick, edit, keep_first,
                                                              materialized):
    # Edit one entry of a stored row.  Every copy that refers to it sees the
    # edit (order 1's row 0 is shared by 2**(k-1) rows); with keep_first the
    # row's own position keeps an unedited copy, so only the scaled copies
    # carry it.  Or edit one materialized row as a plain dict.  The check,
    # which scans each stored row once, must pass or fail as a scan of every
    # entry does, and name the same entry.
    bundle = build_bundle(k)
    mult = getattr(bundle, part)
    stored = list({id(row): row for row, _, _ in mult.bar}.values())
    row = stored[pick % len(stored)]
    col = list(row.keys())[pick // len(stored) % len(row)] if row else pick % bundle.n
    value = NONNEG_EDITS[edit](row.get(col, ZERO))
    first = next(i for i, (r, power, _) in enumerate(mult.bar) if r is row and not power)
    if materialized:
        bar = as_bar(with_entries(rows(mult.bar), {(first, col): value}))
    else:
        entries = {**dict(row.items()), col: value}
        edited = SparseRow(sorted((j, v) for j, v in entries.items() if v))
        bar = [(edited if r is row else r, power, offset) for r, power, offset in mult.bar]
        if keep_first:
            bar[first] = (SparseRow(row.items()), 0, 0)
    bad = replace(bundle, **{part: replace(mult, bar=bar)})
    report = check_multipliers_nonneg(bad)
    assert (report.passed, report.detail) == _nonneg_by_scan(bad)


def test_nonneg_reads_a_stored_row_again_at_another_diagonal():
    # One stored row at rows 1 and 2: its negative entry at column 1 is row 1's
    # diagonal, which the check skips, but an off-diagonal entry of row 2, plain
    # or as a copy one power of rho**2 up with offset 2 (at column 3).
    bundle = build_bundle(2)
    shared = SparseRow({1: -ONE})
    for second, detail in (((shared, 0, 0), "lambda_bar[2][1] = -1/1 + 0/1*sqrt2 < 0"),
                           ((shared, 1, 2), "lambda_bar[2][3] = -3/1 + -2/1*sqrt2 < 0")):
        bar = list(bundle.lam.bar)
        bar[1], bar[2] = (shared, 0, 0), second
        bad = replace(bundle, lam=replace(bundle.lam, bar=bar))
        report = check_multipliers_nonneg(bad)
        assert (report.passed, report.detail) == _nonneg_by_scan(bad) == (False, detail)


def test_nonneg_closed_form_reads_values_over_a_common_denominator():
    # mu's last row, c and pi all divided by 3 keep the closed form, now over d = 3.
    bundle = build_bundle(3)
    n = bundle.n
    bar = list(bundle.mu.bar)
    bar[n - 1] = (SparseRow((j, v / 3) for j, v in rows(bar)[n - 1].items()), 0, 0)
    thirds = replace(_with_slack(bundle, c=[v / 3 for v in bundle.slack.c]),
                     pi=[v / 3 for v in bundle.pi], mu=replace(bundle.mu, bar=bar))
    assert check_multipliers_nonneg(thirds).passed
    bar[n - 1] = (SparseRow(sorted({**bar[n - 1][0], 0: ONE / 3}.items())), 0, 0)  # was 0
    report = check_multipliers_nonneg(replace(thirds, mu=replace(bundle.mu, bar=bar)))
    assert (report.passed, report.detail) == (False, (
        "mu_bar[6][0] = 1/3 + 0/1*sqrt2 deviates from closed form 0/1 + 0/1*sqrt2"))


@pytest.mark.parametrize("edit, detail", [
    # each of the first two raised IndexError, in the nonneg check and in _bar_term
    ("mu_bar short", "mu_bar has 6 rows, not 7"),
    ("column past the last point", "lambda_bar[0] reads column 8, outside 0..7"),
    # these passed the nonneg check; the identity passed the first and read
    # column -1 of the second as the last point
    ("mu_star long", "mu_star has 8 entries, not 7"),
    ("negative column", "lambda_bar[1] reads column -1, outside 0..7"),
    # a short pi stepped one iterate too few (IndexError in _bar_term); a short c
    # passed nonneg and failed the identity with a residual
    ("pi short", "pi has 6 entries, not 7"),
    ("c short", "c has 6 entries, not 7"),
    # these passed nonneg; the identity passed the long ones (its zips dropped the
    # extra entry) and failed the empty gap with a residual; the slack checks named them
    ("c long", "c has 8 entries, not 7"),
    ("gap_k long", "level 3 gap has 8 entries, not 7"),
    ("level 2 pi long", "level 2 pi has 4 entries, not 3"),
    ("level 1 gap empty", "level 1 gap has 0 entries, not 1"),
    # a long u passed every check (norm2_ints dropped its extra coefficient);
    # a short u passed nonneg, as did either slack tree, and order 4's raised IndexError
    ("u long", "u has 18 coefficients, not 17"),
    ("u short", "u has 16 coefficients, not 17"),
    ("slack order 2", "slack tree has order 2, not 3"),
    ("slack order 4", "slack tree has order 4, not 3"),
    # order 4's parts labelled order 3 passed the shape rule, which read n from the
    # stored n: laplacian passed, nonneg named a closed-form entry that matched it
    # and the identity failed with a residual
    ("order 4 parts", "pi has 15 entries, not 7"),
    # tamper_bundle ended each of these three in IndexError
    ("lambda_bar empty", "lambda_bar has 0 rows, not 8"),
    ("mu_star empty", "mu_star has 0 entries, not 7"),
    ("u empty", "u has 0 coefficients, not 17"),
], ids=["mu_bar short", "column past the last point", "mu_star long", "negative column",
        "pi short", "c short", "c long", "gap_k long", "level 2 pi long", "level 1 gap empty",
        "u long", "u short", "slack order 2", "slack order 4", "order 4 parts",
        "lambda_bar empty", "mu_star empty", "u empty"])
def test_malformed_multiplier_parts_fail_nonneg_and_the_identity(edit, detail):
    # Every check, tamper_bundle and the identity read one shape rule: nonneg
    # and laplacian give its detail, schur the same after its prefix, and
    # tamper_bundle and the identity raise it.
    bundle = build_bundle(3)
    lam, mu, slack = bundle.lam, bundle.mu, bundle.slack
    if edit == "pi short":
        bad = replace(bundle, pi=bundle.pi[:-1])
    elif edit in ("c short", "c long"):
        bad = _with_slack(bundle, c=slack.c[:-1] if edit == "c short" else slack.c + [ONE])
    elif edit == "gap_k long":
        bad = _with_slack(bundle, gap=slack.gap + [ONE])
    elif edit == "level 2 pi long":
        bad = _with_level(bundle, 2, pi=slack.levels[2].pi + [SQRT2])
    elif edit == "level 1 gap empty":
        bad = _with_level(bundle, 1, gap=[])
    elif edit == "mu_bar short":
        bad = replace(bundle, mu=replace(mu, bar=mu.bar[:-1]))
    elif edit == "mu_star long":
        bad = replace(bundle, mu=replace(mu, star_row=mu.star_row + [ONE]))
    elif edit == "lambda_bar empty":
        bad = replace(bundle, lam=replace(lam, bar=[]))
    elif edit == "mu_star empty":
        bad = replace(bundle, mu=replace(mu, star_row=[]))
    elif edit == "u empty":
        bad = replace(bundle, u_coeffs=())
    elif edit.startswith("u "):
        u = bundle.u_coeffs
        bad = replace(bundle, u_coeffs=u + (-ONE,) if edit == "u long" else u[:-1])
    elif edit.startswith("slack "):
        bad = replace(bundle, slack=build_slack(int(edit[-1])))
    elif edit == "order 4 parts":
        bad = replace(build_bundle(4), k=3, slack=slack)
    else:
        entry = (0, 8) if edit == "column past the last point" else (1, -1)
        bad = replace(bundle, lam=replace(lam, bar=as_bar(with_entries(rows(lam.bar), {entry: ONE}))))
    for check, prefix in ((check_multipliers_nonneg, ""), (check_laplacian, ""),
                          (check_schur_psd, "Schur complement ")):
        report = check(bad)
        assert (report.passed, report.detail) == (False, prefix + detail)
    for target in TAMPER_TARGETS:
        with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
            tamper_bundle(bad, target)
    with pytest.raises(ValueError, match=f"^{re.escape(detail)}$"):
        verify_descent_identity(bad, trials=1, dim=2)


def test_nonneg_closed_form_reads_the_last_row_as_its_triple_reads():
    # mu's last row as rho**2 times a stored row of its values over rho**2 holds the same entries.
    bundle = build_bundle(3)
    bar = list(bundle.mu.bar)
    stored, _, _ = bar[-1]
    bar[-1] = (SparseRow((j, v / rho_pow(2)) for j, v in stored.items()), 1, 0)
    assert check_multipliers_nonneg(replace(bundle, mu=replace(bundle.mu, bar=bar))).passed


TREE_FACTORS = (Fraction(1, 3), Fraction(2, 3), 3, RHO, RadicalScalar(1, Fraction(1, 3)))


def _tree_values(slack):
    """Every value the tree stores, as (field, level, index) for ``_scaled_tree_value``."""
    places = [("corner", None, None)]
    for j, level in enumerate(slack.levels):
        places += [("diag", j, None)] + [(part, j, r) for part in ("gap", "pi")
                                         for r in range(len(getattr(level, part)))]
    return places + [(part, None, r) for part in ("gap", "c") for r in range(len(slack.c))]


def _scaled_tree_value(slack, place, factor):
    field, j, r = place
    if j is not None:
        level = slack.levels[j]
        value = getattr(level, field)
        value = value * factor if r is None else _edited(value, r, value[r] * factor)
        levels = list(slack.levels)
        levels[j] = replace(level, **{field: value})
        return replace(slack, levels=tuple(levels))
    value = getattr(slack, field)
    return replace(slack, **{field: value * factor if r is None else
                             _edited(value, r, value[r] * factor)})


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 6), edits=st.lists(st.tuples(
    st.integers(0, 2**20), st.integers(0, len(TREE_FACTORS) - 1), st.booleans()), max_size=3))
@example(k=3, edits=[(2, 0, False)])  # level 1's diag divided by 3: values with d = 3
@example(k=4, edits=[(1, 1, False), (40, 4, False)])
@example(k=2, edits=[(5, 0, True)])
def test_integer_induction_agrees_with_the_row_oracle(k, edits):
    # The induction over the tree's integer form against an entry-by-entry
    # scan of the rows it stands for, L and the Schur complement's, after
    # scaling tree values by positive factors (or, flipped, negative ones).
    # Positive factors keep every sign, so the two agree on the verdict and,
    # for a row sum, on the row and its value.  The induction asks more than
    # the scan (nonnegative levels), so a negative factor can fail it alone.
    slack = build_bundle(k).slack
    places = _tree_values(slack)
    for pick, f, flip in edits:
        slack = _scaled_tree_value(slack, places[pick % len(places)],
                                   -TREE_FACTORS[f] if flip else TREE_FACTORS[f])
    bundle = replace(build_bundle(k), slack=slack)
    for check, rows, prefix in ((check_laplacian, slack.lap, "L "),
                                (check_schur_psd, schur_rows(slack), "Schur complement ")):
        report, scan = check(bundle), laplacian_violation(rows)
        tree = "" if report.passed else report.detail
        assert bool(scan) <= bool(tree)
        if not any(flip for _, _, flip in edits):
            assert bool(tree) == bool(scan)
            if "sums to" in scan:
                assert tree == prefix + scan


def _with_slack(bundle, **fields):
    return replace(bundle, slack=replace(bundle.slack, **fields))


def _with_level(bundle, j, **fields):
    levels = list(bundle.slack.levels)
    levels[j] = replace(levels[j], **fields)
    return _with_slack(bundle, levels=tuple(levels))


def _edited(values, r, value):
    out = list(values)
    out[r] = value
    return out


def test_laplacian_negative_control():
    bundle = build_bundle(2)
    # corner becomes 2(rho^k - 1) + 1
    bad = _with_slack(bundle, corner=bundle.slack.corner + ONE)
    assert laplacian_violation(bad.slack.lap) == "row 3 sums to 1/1 + 0/1*sqrt2, not 0"
    report = check_laplacian(bad)
    assert not report.passed
    assert report.detail == "L row 3 sums to 1/1 + 0/1*sqrt2, not 0"
    schur = check_schur_psd(bad)
    assert not schur.passed
    assert schur.detail == "Schur complement row 3 sums to 1/1 + 0/1*sqrt2, not 0"


def test_laplacian_core_check_reads_stored_lap():
    # Negate pi(1) as level 1 of the tree stores it: B_1's second-copy entry
    # -rho pi(1)[0] turns positive, so core'_2 = core + gap gap^T is positive at
    # [1][2].  The bundle's own schedule is untouched: the check reads the tree.
    bundle = build_bundle(2)
    bad = _with_level(bundle, 1, pi=[-SQRT2])
    assert bad.pi == bundle.pi == silver_schedule(2)
    core = dense(symmetric(bad.slack.lap))
    gap = bad.slack.gap
    assert (core[1][2] + gap[1] * gap[2]).sign() > 0
    report = check_laplacian(bad)
    assert not report.passed
    assert report.detail == "level 1 pi[0] = 0/1 + -1/1*sqrt2 < 0"
    assert check_schur_psd(bad).detail == "Schur complement " + report.detail


def test_laplacian_positive_off_diagonal_named():
    # c[1] < 0 makes L's border entry L[1][3] = -c[1] positive
    bundle = build_bundle(2)
    bad = _with_slack(bundle, c=_edited(bundle.slack.c, 1, -bundle.slack.c[1]))
    assert laplacian_violation(bad.slack.lap) == "off-diagonal [1][3] = 0/1 + 2/1*sqrt2 > 0"
    assert check_laplacian(bad).detail == "c[1] = 0/1 + -2/1*sqrt2 < 0"
    assert check_schur_psd(bad).detail == "Schur complement c[1] = 0/1 + -2/1*sqrt2 < 0"


def test_mass_shift_within_a_row_fails_both_checks():
    # Move 1 from L[1][3] = -c[1] onto L[0][3] = -c[0]: the border row 3 still
    # sums to zero, but each c[r] is one stored value for the pair (r, 3) and
    # (3, r), so rows 0 and 1 of the symmetric L are off by -1 and +1.
    bundle = build_bundle(2)
    c = bundle.slack.c
    bad = _with_slack(bundle, c=[c[0] + 1, c[1] - 1, c[2]])
    rows = symmetric(bad.slack.lap)
    assert sum(rows[3].values(), ZERO) == 0
    detail = "row 0 sums to -1/1 + 0/1*sqrt2, not 0"
    assert laplacian_violation(bad.slack.lap) == detail
    report = check_laplacian(bad)
    assert not report.passed
    assert report.detail == "L " + detail
    schur = check_schur_psd(bad)
    assert not schur.passed
    assert schur.detail == "Schur complement " + detail


def test_laplacian_names_misshapen_level():
    # The tree holds no entry below a diagonal; its analogue of a misplaced
    # entry is a level list of the wrong length, which would glue misaligned
    # copies.
    bundle = build_bundle(3)
    bad = _with_level(bundle, 2, pi=bundle.slack.levels[2].pi + [SQRT2])
    report = check_laplacian(bad)
    assert not report.passed
    assert report.detail == "level 2 pi has 4 entries, not 3"
    assert check_schur_psd(bad).detail == "Schur complement " + report.detail


def test_level_diagonal_edit_fails_named_row_sum():
    # Level 2 of k=5 glues at local index 3; its first node sits at rows 0..6
    # with scale 1, so the first row sum to fail is row 3's.
    bundle = build_bundle(5)
    level = bundle.slack.levels[2]
    bad = _with_level(bundle, 2, diag=level.diag + ONE)
    detail = "row 3 sums to 1/1 + 0/1*sqrt2, not 0"
    assert laplacian_violation(bad.slack.lap) == detail
    assert check_laplacian(bad).detail == "L " + detail
    assert check_schur_psd(bad).detail == "Schur complement " + detail


def test_negative_gap_names_level_and_entry():
    bundle = build_bundle(5)
    gap = bundle.slack.levels[3].gap
    assert gap[5] == RadicalScalar(8, -4)  # > 0
    bad = _with_level(bundle, 3, gap=_edited(gap, 5, -gap[5]))
    assert laplacian_violation(bad.slack.lap) != ""
    report = check_laplacian(bad)
    assert not report.passed
    assert report.detail == "level 3 gap[5] = -8/1 + 4/1*sqrt2 < 0"
    assert check_schur_psd(bad).detail == "Schur complement " + report.detail


def test_schur_needs_c0_at_least_sqrt2():
    # At k=1, c = [1] with leaf 3 and corner 1 keeps L Laplacian, but the Schur
    # complement's off-diagonal [0][1] becomes sqrt2 - 1 > 0: S is indefinite.
    bad = _with_level(_with_slack(build_bundle(1), c=[ONE], corner=ONE), 0, diag=RadicalScalar(3))
    assert laplacian_violation(bad.slack.lap) == ""
    assert laplacian_violation(schur_rows(bad.slack)) == (
        "off-diagonal [0][1] = -1/1 + 1/1*sqrt2 > 0")
    assert check_laplacian(bad).passed
    report = check_schur_psd(bad)
    assert not report.passed
    assert report.detail == "Schur complement c[0] = 1/1 + 0/1*sqrt2 < sqrt2"


def _negative_gap_at_level_3():
    gap = build_bundle(5).slack.levels[3].gap
    return _with_level(build_bundle(5), 3, gap=_edited(gap, 5, -gap[5]))


def _diagonal_edit_at_level_2():
    return _with_level(build_bundle(5), 2, diag=build_bundle(5).slack.levels[2].diag + ONE)


SHARED_INDUCTION_CASES = {
    "negative level gap": (_negative_gap_at_level_3,
                           "level 3 gap[5] = -8/1 + 4/1*sqrt2 < 0", None),
    "negative pi": (lambda: _with_level(build_bundle(2), 1, pi=[-SQRT2]),
                    "level 1 pi[0] = 0/1 + -1/1*sqrt2 < 0", None),
    "c[0] below sqrt2": (lambda: _with_level(_with_slack(build_bundle(1), c=[ONE], corner=ONE),
                                             0, diag=RadicalScalar(3)),
                         "", "Schur complement c[0] = 1/1 + 0/1*sqrt2 < sqrt2"),
    "row sum off": (_diagonal_edit_at_level_2, "L row 3 sums to 1/1 + 0/1*sqrt2, not 0",
                    "Schur complement row 3 sums to 1/1 + 0/1*sqrt2, not 0"),
    # sized before the Schur check reads c[0]; the sizes were read from c, so
    # an empty c and gap passed as order 0 and the Schur check raised IndexError
    "empty c": (lambda: _with_slack(build_bundle(3), c=[]), "c has 0 entries, not 7", None),
    "empty c and gap": (lambda: _with_slack(build_bundle(3), c=[], gap=[]),
                        "level 3 gap has 0 entries, not 7", None),
}


@pytest.mark.parametrize("case", sorted(SHARED_INDUCTION_CASES))
@pytest.mark.parametrize("order", ["alone", "laplacian first", "schur first"])
def test_shared_induction_keeps_each_checks_detail(case, order):
    # Both slack checks read one induction per tree; each check's detail is
    # the one it gave when it ran the induction itself, in either order or alone,
    # and the second check runs no integer work of the induction again.
    build, laplacian, schur = SHARED_INDUCTION_CASES[case]
    schur = "Schur complement " + laplacian if schur is None else schur
    checks = [(check_laplacian, laplacian), (check_schur_psd, schur)]
    if order == "schur first":
        checks.reverse()
    for index, (check, detail) in enumerate(checks):
        bad = build() if order == "alone" or index == 0 else bad
        with mock.patch.object(certificate, "int_times", wraps=certificate.int_times) as spy:
            report = check(bad)
        assert report.passed == (detail == "")
        if detail:
            assert report.detail == detail
        if index and order != "alone":
            assert spy.call_count == 0


@pytest.mark.parametrize("target", TAMPER_TARGETS)
def test_slack_checks_on_tamper_copies(target):
    # A tamper copy shares the tree it does not edit, and a slack tamper edits
    # only S's border: the induction passes on every copy, and the border
    # check names the tampered entry.
    for k in (1, 2, 3):
        bad = tamper_bundle(build_bundle(k), target)
        assert check_laplacian(bad).passed
        report = check_schur_psd(bad)
        if target == "slack":
            assert report.detail == "S[0][0] = 1/1 + 1/2*sqrt2, not 0/1 + 1/2*sqrt2"
        else:
            assert report.passed


# Negative controls at positions the k=2 certificate does not store: a scan
# over stored entries only must still see a value placed there.  The nonneg
# detail and the residual were recorded with dense list-of-lists storage.


def test_nonneg_control_at_unstored_position():
    bundle = build_bundle(2)
    assert 3 not in rows(bundle.lam.bar)[0]
    bar = as_bar(with_entries(rows(bundle.lam.bar), {(0, 3): -ONE}))
    report = check_multipliers_nonneg(replace(bundle, lam=replace(bundle.lam, bar=bar)))
    assert not report.passed
    assert report.detail == "lambda_bar[0][3] = -1/1 + 0/1*sqrt2 < 0"


def test_laplacian_control_at_unstored_position():
    # gap_2[0] = c(2)[0] - pi(2)[0] is zero, so no generated row holds an entry
    # from it; the induction reads it anyway.
    bundle = build_bundle(2)
    assert bundle.slack.gap[0] == ZERO
    bad = _with_slack(bundle, gap=_edited(bundle.slack.gap, 0, -ONE))
    report = check_laplacian(bad)
    assert not report.passed
    assert report.detail == "level 2 gap[0] = -1/1 + 0/1*sqrt2 < 0"


def test_identity_control_at_unstored_position():
    bundle = build_bundle(2)
    assert 3 not in rows(bundle.lam.bar)[0]
    bar = as_bar(with_entries(rows(bundle.lam.bar), {(0, 3): ONE}))
    bad = replace(bundle, lam=replace(bundle.lam, bar=bar))
    report = verify_descent_identity(bad, trials=20, dim=4, seed=2)
    assert report.failures == tuple(range(20))
    assert report.first_residual == "-137/1 + 66/1*sqrt2"


# ---------------------------------------------------------------------------
# descent identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 5))
def test_identity_exact(k):
    report = verify_descent_identity(build_bundle(k), trials=8, dim=3, seed=17)
    assert report.passed
    assert report.first_residual == ""


def test_identity_single_sample_both_sides():
    bundle = build_bundle(2)
    trace = free_trace(bundle.pi, 4, random.Random(5))
    lhs, rhs = identity_sides(_PreparedIdentity(bundle, 4), trace)
    assert lhs == rhs
    assert lhs.a.denominator >= 1  # exact rationals all the way through


def test_identity_detects_perturbed_lambda():
    bundle = build_bundle(2)
    plain = rows(bundle.lam.bar)
    bar = as_bar(with_entries(plain, {(1, 3): plain[1][3] + ONE}))
    bad = replace(bundle, lam=replace(bundle.lam, bar=bar))
    report = verify_descent_identity(bad, trials=20, dim=4, seed=3)
    assert report.failures
    assert report.first_residual != ""


@pytest.mark.parametrize("target", ["lambda", "mu", "slack", "u"])
def test_identity_tamper_hooks(target):
    bad = tamper_bundle(build_bundle(2), target)
    report = verify_descent_identity(bad, trials=20, dim=4, seed=3)
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
    report = verify_descent_identity(bad, trials=20, dim=4, seed=2)
    assert report.failures[0] == 0
    assert report.first_residual == TAMPER_RESIDUALS[target]


def _dense_slack_trace(slack, trace):
    """Tr(V S V^T) over every stored entry of the full S, V = [w, s_1, ..., s_n, s_*]."""
    cols = [trace.xs[0]] + trace.ss + [trace.s_star]
    return sum((v * sum(a * b for a, b in zip(cols[r], cols[j]))
                for r, row in enumerate(bordered(slack)) for j, v in row.items()),
               ZERO)


@pytest.mark.parametrize("k", [2, 4])
def test_identity_slack_term_matches_dense_sum(k):
    # One gap entry of the top gluing level and one border entry, each edited,
    # move the recursive slack term as the dense sum over the generated S does.
    bundle = build_bundle(k)
    slack = bundle.slack
    j = k - 1
    gap = slack.levels[j].gap
    r = len(gap) // 2
    border = with_entries([slack.border], {(0, 1): slack.border[1] + 3})[0]
    bad = _with_level(_with_slack(bundle, border=border), j, gap=_edited(gap, r, gap[r] + ONE))
    trace = free_trace(bundle.pi, 3, random.Random(11))
    lhs, rhs = identity_sides(_PreparedIdentity(bundle, 3), trace)
    bad_lhs, bad_rhs = identity_sides(_PreparedIdentity(bad, 3), trace)
    assert lhs == rhs and bad_lhs == lhs
    change = _dense_slack_trace(bad.slack, trace) - _dense_slack_trace(slack, trace)
    assert change  # the edits move the term on this trace
    assert bad_rhs - rhs == -change / 2


@settings(max_examples=24, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_recursive_slack_term_equals_dense_sum(k, seed):
    # The recursion over the tree against the dense sum over the generated S,
    # on random integer columns of dim 3.
    bundle = build_bundle(k)
    trace = free_trace(bundle.pi, 3, random.Random(seed))
    cols = [trace.xs[0]] + trace.ss + [trace.s_star]
    assert slack_term(bundle.slack, cols) == _dense_slack_trace(bundle.slack, trace)


@settings(max_examples=30, deadline=None)
@given(k=st.integers(1, 6), dim=st.integers(1, 4), edits=st.lists(st.tuples(
    st.integers(0, 2**20), st.integers(0, len(TREE_FACTORS) - 1), st.booleans()), max_size=3),
    seed=st.integers(0, 2**32 - 1))
@example(k=3, dim=2, edits=[(3, 0, False)], seed=0)  # level 1's gap over d = 3
@example(k=4, dim=3, edits=[(11, 4, True), (2, 1, False)], seed=1)  # level 2's pi, level 1's diag
@example(k=2, dim=1, edits=[(1, 1, False), (0, 0, True)], seed=2)  # the leaves' diag, the corner
def test_slack_term_matches_dense_sum_on_scaled_trees(k, dim, edits, seed):
    # Tree values times 1/3, 2/3, 3, rho or 1 + sqrt2/3, or their negatives,
    # put a level's integer form over its own denominator d_j: the term's units
    # must carry 1/d_j, and every edit must reach the term as S has it.
    bundle = build_bundle(k)
    slack = bundle.slack
    places = _tree_values(slack)
    for pick, f, flip in edits:
        slack = _scaled_tree_value(slack, places[pick % len(places)],
                                   -TREE_FACTORS[f] if flip else TREE_FACTORS[f])
    trace = free_trace(bundle.pi, dim, random.Random(seed))
    cols = [trace.xs[0]] + trace.ss + [trace.s_star]
    assert slack_term(slack, cols) == _dense_slack_trace(slack, trace)


@pytest.mark.parametrize("dim", range(1, 5))
def test_slack_term_of_a_single_leaf(dim):
    # At k=1 the tree is one leaf, core'_1 = [diag], level 0 with no level above it.
    bundle = build_bundle(1)
    (leaf,) = bundle.slack.levels
    assert leaf.gap == leaf.pi == []
    for seed in range(4):
        trace = free_trace(bundle.pi, dim, random.Random(seed))
        cols = [trace.xs[0]] + trace.ss + [trace.s_star]
        assert slack_term(bundle.slack, cols) == _dense_slack_trace(bundle.slack, trace)


def _rhs_by_definition(bundle, trace):
    """The identity's right side, summed in the field from the dense S."""
    w = trace.xs[0]
    vectors = [w, *trace.gs, *trace.ss, trace.s_star]
    u = [sum((c * v[i] for c, v in zip(bundle.u_coeffs, vectors)), ZERO) for i in range(len(w))]
    gap = (rho_pow(bundle.k) * 2 - ONE) * (trace.F_star - trace.Fs[bundle.n])
    w_norm2 = sum(x * x for x in w)
    return (gap + RHO / (SQRT2 * 2) * w_norm2
            - (sum((x * x for x in u), ZERO) + _dense_slack_trace(bundle.slack, trace)) / 2)


@pytest.mark.parametrize("target", (None,) + TAMPER_TARGETS)
@pytest.mark.parametrize("k", range(1, 8))
def test_prepared_identity_matches_each_trace_alone(k, target):
    # One prepared identity over several traces gives exactly the sides that
    # an identity prepared for each trace alone gives, and the sides by definition;
    # verify_descent_identity reports the residuals of that loop.
    bundle = build_bundle(k)
    if target is not None:
        bundle = tamper_bundle(bundle, target)
    for dim in {1 + k % 4, 1 + (k + 2) % 4}:
        identity = _PreparedIdentity(bundle, dim)
        for seed in (k, 100 + k):
            rng = random.Random(seed)
            traces = [free_trace(bundle.pi, dim, rng) for _ in range(2)]
            residuals = []
            for trace in traces:
                sides = identity_sides(identity, trace)
                assert sides == identity_sides(_PreparedIdentity(bundle, dim), trace)
                if k <= 5:
                    assert sides == (_lhs_by_definition(bundle, trace),
                                     _rhs_by_definition(bundle, trace))
                residuals.append(sides[0] - sides[1])
            report = verify_descent_identity(bundle, trials=2, dim=dim, seed=seed)
            assert report.failures == tuple(t for t, r in enumerate(residuals) if r)
            assert bool(report.failures) == (target is not None)
            if report.failures:
                assert report.first_residual == residuals[report.failures[0]].exact_str()


def test_free_trace_draws_as_randint():
    # _draw inlines randint(-5, 5)'s draw: the same values and the
    # same generator state afterwards, so pinned residuals keep their meaning.
    # The draw counts its free ints from n and dim, so several shapes are read.
    shapes = [(4, 3)] + [(k, dim) for k in (1, 2, 5) for dim in (1, 2, 4)]
    for k, dim in shapes:
        pi = build_bundle(k).pi
        for seed in range(200 if (k, dim) == (4, 3) else 40):
            rng, ref = random.Random(seed), random.Random(seed)
            trace = free_trace(pi, dim, rng)
            drawn = ([v for g in trace.gs for v in g] + [v for s in trace.ss for v in s]
                     + trace.s_star + trace.fs + trace.hs + [trace.f_star, trace.h_star]
                     + trace.xs[0])
            assert drawn == [ref.randint(-5, 5) for _ in drawn], (k, dim, seed)
            assert rng.getstate() == ref.getstate(), (k, dim, seed)


def test_free_trace_is_plain_ints():
    trace = free_trace(build_bundle(2).pi, 2, random.Random(7))
    assert trace.gs == [[0, -3], [1, 5], [-5, -4], [3, -4]]
    assert trace.ss == [[0, 4], [-5, 3], [-2, -5]]
    assert trace.s_star == [-4, 1]
    assert trace.fs == [1, -4, -2, -4]
    assert trace.hs == [3, 1, -5, 4]
    assert (trace.f_star, trace.h_star) == (-4, -2)
    assert trace.xs[0] == [5, 5]
    free = [*trace.fs, *trace.hs, trace.f_star, trace.h_star, *trace.s_star, *trace.xs[0]]
    free += [v for vec in trace.gs + trace.ss for v in vec]
    assert all(type(v) is int for v in free)


def _lhs_by_definition(bundle, trace):
    """The identity's left side: v * co(i, j) over every stored entry, through the solver."""
    total = ZERO
    for mult, cocoercivity, offset in ((bundle.lam, cocoercivity_f, 0),
                                       (bundle.mu, cocoercivity_h, 1)):
        for i, row in enumerate(rows(mult.bar)):
            for j, v in row.items():
                total = total + v * cocoercivity(trace, i + offset, j + offset)
        for j, v in enumerate(mult.star_row):
            total = total + v * cocoercivity(trace, "*", j + offset)
    return total


def _scaled_trace(trace, factor):
    """``trace`` with every free int and iterate times ``factor``: a trace of the same steps."""
    return replace(trace, xs=[[factor * v for v in x] for x in trace.xs],
                   gs=[[factor * v for v in g] for g in trace.gs],
                   ss=[[factor * v for v in s] for s in trace.ss],
                   s_star=[factor * v for v in trace.s_star],
                   fs=[factor * v for v in trace.fs], hs=[factor * v for v in trace.hs],
                   f_star=factor * trace.f_star, h_star=factor * trace.h_star)


def _with_long_row_edited(bundle, part):
    """``bundle`` with the first entry of ``part``'s longest stored row plus one, where stored."""
    mult = getattr(bundle, part)
    i = max((i for i, (_, power, _) in enumerate(mult.bar) if not power),
            key=lambda i: len(mult.bar[i][0]))
    edited = SparseRow(mult.bar[i][0])
    for j in list(edited.keys())[:1]:  # none at k=1, whose mu row is empty
        edited[j] = edited[j] + ONE
    return replace(bundle, **{part: replace(mult, bar=_edited(mult.bar, i, (edited, 0, 0)))})


@settings(max_examples=16, deadline=None)
@given(k=st.integers(1, 8), dim=st.integers(1, 4),
       target=st.sampled_from((None, "long lam", "long mu") + TAMPER_TARGETS),
       thirds=st.booleans(), scale=st.sampled_from((1, 2**70)), seed=st.integers(0, 2**32 - 1))
@example(k=8, dim=4, target=None, thirds=True, scale=1, seed=0)
@example(k=6, dim=3, target="lambda", thirds=True, scale=1, seed=1)
@example(k=3, dim=3, target="mu", thirds=False, scale=1, seed=2)
@example(k=2, dim=1, target="slack", thirds=True, scale=1, seed=3)
@example(k=4, dim=4, target="u", thirds=False, scale=1, seed=4)
# long rows take the packed path: mu's from k=6, lambda's from k=7
@example(k=6, dim=1, target=None, thirds=True, scale=1, seed=5)
@example(k=6, dim=4, target=None, thirds=True, scale=1, seed=6)
@example(k=7, dim=1, target=None, thirds=True, scale=1, seed=7)
@example(k=7, dim=4, target=None, thirds=True, scale=1, seed=8)
@example(k=8, dim=1, target=None, thirds=True, scale=1, seed=9)
@example(k=8, dim=4, target=None, thirds=True, scale=2**70, seed=10)
@example(k=7, dim=2, target="long lam", thirds=True, scale=1, seed=11)
@example(k=6, dim=2, target="long mu", thirds=False, scale=1, seed=12)
def test_identity_lhs_matches_cocoercivity_sum(k, dim, target, thirds, scale, seed):
    # Steps pi / 3 put the iterates over d = 3**m, so the integer form takes
    # the common-denominator path; silver steps keep d = 1.  Free ints scaled
    # by 2**70 widen the packed lanes of the long rows, and a "long" target
    # edits one entry of the longest stored row of a part.
    bundle = build_bundle(k)
    steps = [p / 3 for p in bundle.pi] if thirds else bundle.pi
    trace = _scaled_trace(free_trace(steps, dim, random.Random(seed)), scale)
    if target in ("long lam", "long mu"):
        bundle = _with_long_row_edited(bundle, target[5:])
    elif target is not None:
        bundle = tamper_bundle(bundle, target)
    lhs, _ = identity_sides(_PreparedIdentity(bundle, dim), trace)
    assert lhs == _lhs_by_definition(bundle, trace)


def test_long_rows_pack_in_mu_from_k6_and_in_lambda_from_k7():
    # A part packs its rows of at least PACK_ROW entries where they hold
    # PACK_EXCESS entries beyond that per row: so no bundle up to k=5, and
    # no tamper control at k=2, sums a row packed.
    packs = {}
    for k in range(1, 9):
        bundle = build_bundle(k)
        packs[k] = ()
        for (plan, bound), mult in zip(_PreparedIdentity(bundle, 2).bar_rows,
                                       (bundle.lam, bundle.mu)):
            # each packed stored row's dense form, by identity, and its entries
            packed = {id(ps): (ps, qs) for *_, blocks in plan for _, _, _, ps, qs, _, _ in blocks}
            entries = {key: sum(1 for p, q in zip(*pair) if p or q) for key, pair in packed.items()}
            packs[k] += (len(packed),)
            assert all(m >= certificate.PACK_ROW for m in entries.values())
            assert bound == (max(sum(map(abs, w)) for pair in packed.values() for w in pair)
                             if packed else None)
            # one group per (rho**2 power, stored row's denominator) of the part,
            # rebuilt from the rows its blocks read: copy o of a block reads row
            # (stored, power, o) of bar, and the group weighs each short entry
            # rho**(2 power) times its stored value, once per copy, then its
            # packed copies' one sum, already over d, by the ints of rho**(2 power)
            keys, read = [], []
            for (wp, wq, d), short, blocks in plan:
                copies = [(o, o + diag) for offsets, diag, *_ in short + blocks for o in offsets]
                (power,) = {mult.bar[i][1] for _, i in copies}
                assert all(mult.bar[i][2] == o for o, i in copies)
                assert {exactnum.int_form(mult.bar[i][0].values())[2] for _, i in copies} == {d}
                keys.append((power, d))
                read += [i for _, i in copies]
                scale = rho_pow(2 * power)
                want = [scale * v for offsets, diag, _ in short for o in offsets
                        for v in mult.bar[o + diag][0].values()] + ([scale / d] if blocks else [])
                assert [RadicalScalar(Fraction(p, d), Fraction(q, d)) for p, q in zip(wp, wq)] == want
            groups = {(power, exactnum.int_form(row.values())[2]) for row, power, _ in mult.bar if row}
            assert len(set(keys)) == len(keys) and set(keys) == groups
            # every row with entries is read once, and a packed row's copies read its entries
            assert sorted(read) == [i for i, (row, _, _) in enumerate(mult.bar) if row]
            assert all(entries[id(ps)] == len(mult.bar[o + diag][0])
                       for *_, blocks in plan for offsets, diag, _, ps, *_ in blocks for o in offsets)
    assert packs == {1: (0, 0), 2: (0, 0), 3: (0, 0), 4: (0, 0), 5: (0, 0), 6: (0, 7),
                     7: (5, 9), 8: (6, 11)}
    for target in TAMPER_TARGETS:
        bad = _PreparedIdentity(tamper_bundle(build_bundle(2), target), 2)
        assert [bound for _, bound in bad.bar_rows] == [None, None]


@pytest.mark.parametrize("part", ["lam", "mu"])
def test_identity_fails_on_one_edited_entry_of_a_packed_row(part):
    # The four --tamper targets edit short rows; one entry of a packed long
    # row, plus one, must fail the trials too.
    bad = _with_long_row_edited(build_bundle(7), part)
    assert all(bound for _, bound in _PreparedIdentity(bad, 2).bar_rows)
    report = verify_descent_identity(bad, trials=4, dim=2, seed=3)
    assert report.failures == (0, 1, 2, 3)


def test_identity_trial_makes_no_field_operation_per_optimum_entry(monkeypatch):
    # A trial sums the trace's ints and reduces each side once, so its count of
    # RadicalScalar operations does not grow with the order: the optimum rows
    # too are summed on the integer form (the counts at k=5 and k=7 were
    # 605 and 2,429 when each of their entries cost a field product and sum).
    # So does one whole trial of the verify loop, its draw included: the
    # iterates are stepped on pi's integer form (132 and 516 operations at k=5
    # and k=7 when the loop drew a solver trace of RadicalScalar iterates).
    calls = []

    def counted(method):
        def wrapper(*args):
            calls.append(method)
            return method(*args)
        return wrapper

    def count(run):
        calls.clear()
        with monkeypatch.context() as patch:
            for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                         "__rmul__", "__truediv__", "__rtruediv__", "sign"):
                patch.setattr(RadicalScalar, name, counted(getattr(RadicalScalar, name)))
            out = run()
        return len(calls), out

    counts, loop_counts = {}, {}
    for order in (5, 7):
        bundle = build_bundle(order)
        identity = _PreparedIdentity(bundle, 2)
        trace = free_trace(bundle.pi, 2, random.Random(order))
        counts[order], (lhs, rhs) = count(lambda: identity_sides(identity, trace))
        assert lhs == rhs
        verify_descent_identity(bundle, trials=1, dim=2, seed=order)  # fills rho_pow's memo
        # the verify call with one trial more, less the one without it: one loop trial
        one, report = count(lambda: verify_descent_identity(bundle, trials=1, dim=2, seed=order))
        two, report2 = count(lambda: verify_descent_identity(bundle, trials=2, dim=2, seed=order))
        assert report.passed and report2.passed
        loop_counts[order] = two - one
    # Each side is one integer sum, reduced once: the left side then takes
    # one division by 2d and the right side none.  ``identity_sides`` adds one ONE * v
    # per coordinate of x_0 (2 at dim 2), and a loop trial one subtraction,
    # lhs - rhs (7 and 6 operations when the bar groups, the optimum rows and
    # the gap term each took a field operation of their own).
    assert counts[5] == counts[7] == 3
    assert loop_counts[5] == loop_counts[7] == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_every_stored_entry_but_mus_diagonal_is_load_bearing(k):
    # Each stored entry of the certificate, plus one, one at a time, must fail
    # one of the three checks or 20 identity trials at dim 2.  The one stated
    # exception is mu's stored diagonal entries: co(i, i) is identically zero,
    # so they weigh nothing (see check_multipliers_nonneg).
    bundle = build_bundle(k)
    survivors, copies = [], list(_plus_one_copies(bundle))
    assert len(copies) == (17, 43, 95)[k - 1]
    for label, bad in copies:
        if all(check(bad).passed for check in (check_multipliers_nonneg, check_laplacian,
                                              check_schur_psd)):
            if verify_descent_identity(bad, trials=20, dim=2, seed=k).passed:
                survivors.append(label)
    diagonal = [f"mu stored [{i}][{i}]" for i, (row, power, _) in enumerate(bundle.mu.bar)
                if not power and i in row]
    assert len(diagonal) == (0, 2, 3)[k - 1]
    assert survivors == diagonal


def _plus_one_copies(bundle):
    """(label, copy of ``bundle`` with one stored entry plus one), for every stored entry."""
    for part in ("lam", "mu"):
        mult = getattr(bundle, part)
        for i, (stored, power, _) in enumerate(mult.bar):
            if power:
                continue  # a glued copy: its stored row is edited where it is stored
            for j in stored.keys():
                edited = SparseRow(stored)
                edited[j] = edited[j] + ONE
                # the row itself and every glued copy of it
                bar = [(edited if r is stored else r, p, o) for r, p, o in mult.bar]
                yield f"{part} stored [{i}][{j}]", replace(bundle, **{part: replace(mult, bar=bar)})
        for j, v in enumerate(mult.star_row):
            star = _edited(mult.star_row, j, v + ONE)
            yield f"{part} star [{j}]", replace(bundle, **{part: replace(mult, star_row=star)})
    slack = bundle.slack
    yield "corner", _with_slack(bundle, corner=slack.corner + ONE)
    for field in ("gap", "c"):
        values = getattr(slack, field)
        for r, v in enumerate(values):
            yield f"{field}[{r}]", _with_slack(bundle, **{field: _edited(values, r, v + ONE)})
    for c, v in slack.border.items():
        yield f"border[{c}]", _with_slack(bundle, border=SparseRow({**slack.border, c: v + ONE}))
    for j, level in enumerate(slack.levels):
        yield f"level {j} diag", _with_level(bundle, j, diag=level.diag + ONE)
        for field in ("gap", "pi"):
            values = getattr(level, field)
            for r, v in enumerate(values):
                yield (f"level {j} {field}[{r}]",
                       _with_level(bundle, j, **{field: _edited(values, r, v + ONE)}))
    for r, v in enumerate(bundle.u_coeffs):
        yield f"u[{r}]", replace(bundle, u_coeffs=tuple(_edited(bundle.u_coeffs, r, v + ONE)))


@pytest.mark.parametrize("argument", [{"trials": 2.5}, {"dim": 2.0}, {"seed": 1.5}, {"seed": True}])
def test_identity_rejects_non_int_arguments(argument):
    [(name, value)] = argument.items()
    least = 0 if name == "seed" else 1
    with pytest.raises(ValueError, match=rf"^{name} must be an int >= {least}, got {value}$"):
        verify_descent_identity(build_bundle(1), **argument)


def test_identity_takes_an_int_subclass_as_the_builders_do():
    class D(enum.IntEnum):
        TWO = 2

    bundle = build_bundle(2)
    report = verify_descent_identity(bundle, trials=3, dim=D.TWO)
    assert report == verify_descent_identity(bundle, trials=3, dim=2) and report.passed
    with pytest.raises(ValueError, match=r"dim must be an int >= 1, got '2'"):
        verify_descent_identity(bundle, dim="2")


@pytest.mark.parametrize("entry", [
    build_bundle,
    rate_from_certificate,
    lambda k: lower_bound_instance(k)[1],
    lambda k: rate_bound(k, 1.0, 1.0),
    lambda k: verify_descent_identity(build_bundle(k), trials=1, dim=1),
], ids=["build_bundle", "rate_from_certificate", "lower_bound_instance", "rate_bound",
        "verify_descent_identity"])
def test_order_entry_points_take_an_int_subclass(entry):
    # Each passed the order check and then raised from rho_pow's exponent check.
    class D(enum.IntEnum):
        THREE = 3

    assert entry(D.THREE) == entry(3)


def test_build_bundle_memoizes_one_bundle_per_order_of_any_int_type():
    # An int-subclass order built and kept a second bundle whose k stayed the subclass.
    class D(enum.IntEnum):
        THREE = 3

    build_bundle.cache_clear()
    try:
        bundle = build_bundle(D.THREE)
        assert bundle is build_bundle(3) and type(bundle.k) is int
        assert build_bundle.cache_info().currsize == 4  # orders 1..3, and D.THREE's key
    finally:
        build_bundle.cache_clear()


def test_build_bundle_walks_the_silver_doubling_once_per_order(monkeypatch):
    # Each order is glued from the memoized order below, and its level of pi's
    # and c's doubling is taken once for all the builders that hold pi(k)
    # (lambda's star row, the slack and u) or c(k) (mu's star row, the slack
    # and u); none walks pi's or c's recursion from level 1.  Order 1 is the base.
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)
        return wrapper

    for name in ("silver_schedule", "pi_double", "c_double", "c_sequence"):
        wrapper = counted(name, getattr(schedule, name))
        monkeypatch.setattr(schedule, name, wrapper)
        monkeypatch.setattr(certificate, name, wrapper, raising=False)
    build_bundle.cache_clear()
    try:
        build_bundle(8)
        fresh = dict(calls)
        calls.clear()
        build_bundle(9)
        one_more = dict(calls)
    finally:
        build_bundle.cache_clear()
    assert fresh == {"pi_double": 7, "c_double": 7}, fresh
    assert one_more == {"pi_double": 1, "c_double": 1}, one_more
    calls.clear()
    schedule.c_sequence(8)
    assert calls == {"c_sequence": 1, "pi_double": 7, "c_double": 7}


def test_orders_share_the_rows_a_level_leaves_unchanged():
    # Order k is order k - 1's rows themselves, then references to the stored
    # rows behind them one power of rho**2 up and n + 1 columns on; only the
    # rows a level corrects are stored anew.
    for k in range(2, 7):
        low, high = build_bundle(k - 1), build_bundle(k)
        n = low.n
        for part, corrected in (("lam", {n, 2 * n + 1}), ("mu", {n - 1, n, 2 * n})):
            low_bar, high_bar = getattr(low, part).bar, getattr(high, part).bar
            for i, (stored, power, offset) in enumerate(high_bar):
                if i in corrected:
                    assert type(stored) is SparseRow and (power, offset) == (0, 0)
                    assert all(stored is not r for r, _, _ in low_bar)
                elif i < len(low_bar):
                    assert high_bar[i] is low_bar[i]
                else:
                    low_stored, low_power, low_offset = low_bar[i - n - 1]
                    assert stored is low_stored
                    assert (power, offset) == (low_power + 1, low_offset + n + 1)
            new = {id(r) for r, _, _ in high_bar} - {id(r) for r, _, _ in low_bar}
            assert new == {id(high_bar[i][0]) for i in corrected}
        assert high.slack.levels[:-1] == low.slack.levels
        assert all(a is b for a, b in zip(high.slack.levels, low.slack.levels))
        assert high.slack.levels[-1].gap is low.slack.gap and high.slack.levels[-1].pi is low.pi


@pytest.mark.parametrize("target", TAMPER_TARGETS)
def test_tamper_leaves_the_neighbouring_orders_unchanged(target):
    # tamper_bundle copies on write, so the rows it edits stay shared and intact
    for k in (2, 3):
        before = [repr(build_bundle(j)) for j in (k - 1, k, k + 1)]
        tamper_bundle(build_bundle(k), target)
        assert [repr(build_bundle(j)) for j in (k - 1, k, k + 1)] == before


def _changed(before, after):
    """The (row, column) positions where two square matrices differ."""
    return [(i, j) for i, row in enumerate(before) for j, v in enumerate(row) if v != after[i][j]]


def _tamper_input(key):
    """Order ``key``'s bundle, or order 3's with the tampered entry an unstored zero.

    Both twins pass the shape rule and ended tamper_bundle in KeyError: a
    lambda row 0 without column 1, and a border without column 0.  Each now
    gets +1 at that zero.
    """
    if key.isdigit():
        return build_bundle(int(key))
    bundle = build_bundle(3)
    if key.startswith("lambda"):
        bar = [(SparseRow(), 0, 0)] + bundle.lam.bar[1:]
        return replace(bundle, lam=replace(bundle.lam, bar=bar))
    return replace(bundle, slack=replace(bundle.slack, border=SparseRow()))


@pytest.mark.parametrize("key", ["2", "5", "lambda row 0 without column 1"])
def test_tamper_lambda_edits_one_entry_of_the_rows_read(key):
    # Row 0 is stored once and referred to by 2**(k-1) - 1 scaled copies; the
    # tampered bundle replaces row 0 alone, so the copies keep their values.
    bundle = _tamper_input(key)
    before = dense(rows(bundle.lam.bar))
    after = dense(rows(tamper_bundle(bundle, "lambda").lam.bar))
    assert _changed(before, after) == [(0, 1)] and after[0][1] == before[0][1] + ONE


@pytest.mark.parametrize("key", ["2", "5", "border without column 0"])
def test_tamper_slack_edits_one_entry_of_s(key):
    # The border is S's first row and column: S[0][0] alone moves, by +1.
    bundle = _tamper_input(key)
    before = dense(bordered(bundle.slack))
    after = dense(bordered(tamper_bundle(bundle, "slack").slack))
    assert _changed(before, after) == [(0, 0)] and after[0][0] == before[0][0] + ONE


@pytest.mark.parametrize("builder", [build_bundle, build_lambda, build_mu, build_slack])
@pytest.mark.parametrize("k", [0, -1, 2.0, True, "3"])
def test_builders_reject_bad_orders_at_the_boundary(builder, k):
    build_bundle(2)  # a memoized order 2 must not answer for 2.0
    with pytest.raises(ValueError, match="order k must be an int >= 1"):
        builder(k)


NOT_A_BUNDLE_CALLS = {
    "verify": lambda bundle: verify_descent_identity(bundle, trials=1, dim=2),
    "nonneg": check_multipliers_nonneg,
    "laplacian": check_laplacian,
    "schur": check_schur_psd,
    "tamper": lambda bundle: tamper_bundle(bundle, "mu"),
}


@pytest.mark.parametrize("bundle", ["k=2", 2, build_bundle(2).lam])
@pytest.mark.parametrize("call", list(NOT_A_BUNDLE_CALLS))
def test_identity_rejects_a_bundle_that_is_not_a_certificate_bundle(call, bundle):
    # The three checks and tamper_bundle raised AttributeError on a field of the
    # argument; the identity named its type, as all five do now.
    with pytest.raises(ValueError, match=f"^bundle must be a CertificateBundle, got "
                                         f"{type(bundle).__name__}$"):
        NOT_A_BUNDLE_CALLS[call](bundle)


def test_an_order_the_tree_does_not_have_fails_before_n_is_derived():
    # 2**k - 1 would be a billion-bit int: the tree's level count is read first.
    bad = replace(build_bundle(2), k=10**9)
    for check, prefix in ((check_multipliers_nonneg, ""), (check_laplacian, ""),
                          (check_schur_psd, "Schur complement ")):
        assert check(bad).detail == prefix + "slack tree has order 2, not 1000000000"


@pytest.mark.parametrize("k", [2.0, True, "2", 0])
@pytest.mark.parametrize("call", list(NOT_A_BUNDLE_CALLS))
def test_entry_points_reject_a_bundle_whose_order_is_not_an_int(call, k):
    # n = 2**k - 1 sizes every part, so only an int order can.  With n stored,
    # 2.0 passed laplacian and schur, the other orders failed the checks with
    # "slack tree has order 2, not ...", and tamper_bundle took all four.
    with pytest.raises(ValueError, match=rf"^the bundle's order k must be an int >= 1, got {k!r}$"):
        NOT_A_BUNDLE_CALLS[call](replace(build_bundle(2), k=k))


def test_tamper_unknown_target():
    with pytest.raises(ValueError):
        tamper_bundle(build_bundle(1), "nonsense")


def test_identity_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_descent_identity(build_bundle(1), trials=0)
    with pytest.raises(ValueError):
        verify_descent_identity(build_bundle(1), dim=0)
    with pytest.raises(ValueError, match="seed must be an int >= 0, got -1"):
        verify_descent_identity(build_bundle(1), seed=-1)
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
    # the paper's looser headline constant rho / (4 sqrt2 n**log2(rho))
    rho = 1 + math.sqrt(2)
    for k in range(1, 13):
        display = rho / (4 * math.sqrt(2) * (2**k - 1) ** math.log2(rho))
        assert float(rate_from_certificate(k)) <= display + 1e-15


def test_rate_rejects_bad_order():
    with pytest.raises(ValueError):
        rate_from_certificate(0)


@pytest.mark.parametrize("call", [rate_from_certificate, lambda k: lower_bound_instance(k)])
@pytest.mark.parametrize("k", [0, -1, 2.5, 2.0, True, "3"])
def test_rate_and_lower_bound_reject_bad_orders(call, k):
    with pytest.raises(ValueError, match="order k must be an int >= 1"):
        call(k)


def test_high_orders_from_a_fresh_power_memo(monkeypatch):
    # rho_pow builds a power by halving in a loop, so a first call far from
    # the known powers recurses no deeper than any other call.
    monkeypatch.setattr(exactnum, "_rho_cache", {0: ONE, 1: RHO, -1: exactnum.RHO_INV})
    assert rate_from_certificate(1200) == RHO / (SQRT2 * (rho_pow(1200) * 4 - 2))
    assert rate_bound(1200, 1.0, 1.0) == 0.0  # about 1e-460, below the least float
