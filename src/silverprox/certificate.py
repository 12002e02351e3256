"""Exact construction and verification of the multi-step descent certificate.

For a horizon n = 2**k - 1 the certificate consists of

  * multipliers for the smooth part (``lambda_bar`` over iterate pairs
    plus a separate row for the optimum),
  * multipliers for the nonsmooth part (``mu_bar`` plus its optimum row),
  * a slack matrix S whose positive semidefiniteness makes the residual
    quadratic form a sum of squares, and
  * the coefficients of the single extra square u.

All objects are built by a doubling recursion: a certificate of order k+1
glues two copies of the order-k certificate and adds a sparse correction
(O(1) entries) plus a low-rank correction (O(1) rows built from the
stepsizes and their companion sequence).  Everything lives in Q(sqrt2) and
every check below is an exact computation: no floating point is involved.

``lambda_bar``, ``mu_bar`` and L are sparse rows: one dict per row from
column to value, keys ascending, no stored zeros (an unstored entry is an
exact zero).  L keeps its upper triangle only, so it is symmetric by
construction, and S is L plus one border row.  Builders, checks and
identity trials walk stored entries only.

The descent identity states that the multiplier-weighted sum of
co-coercivities equals

    (2 rho**k - 1)(F_* - F_n) + rho/(2 sqrt2) ||x_0 - x_*||^2
        - (||u||^2 + Tr(V S V^T)) / 2,

identically in the free variables (gradients, subgradients, function
values, and the initial offset).  Because both sides are polynomials in
those variables, evaluating them on random integer points and comparing
exactly is a sound identity test.  The residual has degree at most 2, so by
Schwartz-Zippel a wrong coefficient survives one trial with the 11 values
-5..5 per variable with probability at most 2/11, independently per trial.

Note on the slack matrix: S is symmetric, with first row and column
(1/sqrt2, -1, 0, ..., 0, +1).  An equivalent presentation elsewhere lists
the first row with opposite signs; expanding the two squared terms of the
order-1 certificate confirms the symmetric form used here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .exactnum import ONE, RHO, SQRT2, ZERO, RadicalScalar, rho_pow
from .schedule import c_sequence, silver_schedule

INV_SQRT2 = RadicalScalar(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2
RHO_OVER_2SQRT2 = RadicalScalar(Fraction(1, 2), Fraction(1, 4))  # rho/(2 sqrt2)


class SparseRow(dict):
    """A stored matrix row: column -> nonzero value, columns ascending.

    Keys are columns as in any dict, but iterating a row yields its values
    in column order, as a dense row's would less its zeros (perfbench reads rows so).
    """

    __slots__ = ()

    def __iter__(self):
        return iter(self.values())


Rows = list[dict[int, RadicalScalar]]  # stored rows are SparseRows


@dataclass(frozen=True)
class Multipliers:
    """Multipliers for the co-coercivities of one part of the objective.

    For the smooth part (``lam``), ``bar[i][j]`` weights the pair (iterate i,
    iterate j) for 0 <= i, j <= n and ``star_row[j]`` weights (optimum,
    iterate j).  For the nonsmooth part (``mu``) every iterate index is
    offset by +1, since subgradients exist only from iterate 1 on:
    ``bar[i][j]`` weights (iterate i+1, iterate j+1) for 0 <= i, j <= n-1
    and ``star_row[j]`` weights (optimum, iterate j+1).  An unstored j weighs 0.
    """

    bar: Rows
    star_row: list[RadicalScalar]


@dataclass(frozen=True)
class SlackMatrix:
    """Slack quadratic-form matrices L and S, each symmetric pair stored once.

    ``lap`` is the upper triangle of the (n+1) x (n+1) Laplacian L (the n x n
    slack core, bordered by -c with corner 2(rho**k - 1)): n+1 sparse rows,
    row r holding the columns >= r.  S, whose positive semidefiniteness is
    certified via a Schur complement, is L shifted by one with ``border``
    as first row and column: {0: 1/sqrt2, 1: -1, n+1: +1}.
    """

    lap: Rows
    border: dict[int, RadicalScalar]


@dataclass(frozen=True)
class UCoefficients:
    """Coefficients of the extra square u over the labeled directions.

    u = init*(x_0 - x_*) + sum_i g[i]*g_i + sum_j s[j]*s_{j+1} + s_star*s_*.
    """

    init: RadicalScalar
    g: tuple[RadicalScalar, ...]  # coefficients of g_0 .. g_n
    s: tuple[RadicalScalar, ...]  # coefficients of s_1 .. s_n
    s_star: RadicalScalar


@dataclass(frozen=True)
class CertificateBundle:
    k: int
    n: int
    pi: list[RadicalScalar]
    c: list[RadicalScalar]
    lam: Multipliers
    mu: Multipliers
    slack: SlackMatrix
    u_coeffs: UCoefficients


def _accumulate(row: dict[int, RadicalScalar], j: int, v: RadicalScalar) -> None:
    """Add ``v`` to ``row[j]``, dropping the entry if it cancels to zero."""
    total = row.pop(j) + v if j in row else v
    if total:
        row[j] = total


def _glue(bar: Rows, offset: int) -> Rows:
    """Gluing step of the doubling recursion: two copies of an order-j block.

    Returns ``offset + len(bar)`` rows holding ``bar`` at (0, 0) and
    ``rho**2 * bar`` at (offset, offset); the builders' corrections then
    leave keys unordered until each builder sorts its final rows.
    """
    rho2 = rho_pow(2)
    new = [dict(src) for src in bar]
    new += [{} for _ in range(offset - len(bar))]
    new += [{offset + j: rho2 * v for j, v in src.items()} for src in bar]
    return new


def build_lambda(k: int) -> Multipliers:
    """Smooth-part multipliers of order k."""
    bar: Rows = [{1: RHO}, {0: ONE}]
    for j in range(1, k):
        n = 2**j - 1
        pi = silver_schedule(j)
        new = _glue(bar, n + 1)
        # sparse correction: two entries coupling the copies
        _accumulate(new[n], 2 * n + 1, RHO)
        _accumulate(new[2 * n + 1], n, rho_pow(j))
        # low-rank correction: two rows proportional to the stepsizes
        for jj in range(n + 1, 2 * n + 1):
            add = RHO * pi[jj - n - 1]
            _accumulate(new[n], jj, add)
            _accumulate(new[2 * n + 1], jj, add)
        bar = new
    star = silver_schedule(k) + [rho_pow(k)]
    return Multipliers(bar=[SparseRow(sorted(r.items())) for r in bar], star_row=star)


def build_mu(k: int) -> Multipliers:
    """Nonsmooth-part multipliers of order k."""
    bar: Rows = [{}]
    for j in range(1, k):
        n = 2**j - 1
        pi = silver_schedule(j)
        c = c_sequence(j)
        new = _glue(bar, n + 1)
        # sparse correction (rows/cols here are 0-based: iterate i+1)
        _accumulate(new[n - 1], n, rho_pow(j))
        _accumulate(new[n], n + 1, rho_pow(2))
        _accumulate(new[2 * n], n, (RHO - rho_pow(-j)) * (rho_pow(j - 1) + ONE))
        # low-rank correction
        mid = rho_pow(j - 1) + ONE
        w_hi = rho_pow(j) / mid
        w_lo = ONE - w_hi
        w_rho = RHO / mid
        for jj in range(n):
            gap = c[jj] - pi[jj]
            if gap:
                _accumulate(new[n - 1], jj, w_lo * gap)
                _accumulate(new[n], jj, w_hi * gap)
        for jj in range(n + 1, 2 * n + 1):
            p = pi[jj - n - 1]
            _accumulate(new[n - 1], jj, w_hi * p)
            _accumulate(new[n], jj, w_rho * p)
            _accumulate(new[2 * n], jj,
                        (RHO + ONE) * c[jj - n - 1] - (ONE + rho_pow(-j)) * p)
        bar = new
    c = c_sequence(k)
    star = [c[0] + ONE] + c[1:]
    return Multipliers(bar=[SparseRow(sorted(r.items())) for r in bar], star_row=star)


def _border(n: int) -> SparseRow:
    """S's first row and column at order n: (1/sqrt2, -1, 0, ..., 0, +1)."""
    return SparseRow({0: INV_SQRT2, 1: -ONE, n + 1: ONE})


def build_slack(k: int) -> SlackMatrix:
    """Slack matrices of order k (upper triangles; gap outer products touch its support only)."""
    bar: Rows = [{0: SQRT2 * 2}]  # 2(rho - 1)
    for j in range(1, k):
        n = 2**j - 1
        pi = silver_schedule(j)
        c = c_sequence(j)
        gap = [c[t] - pi[t] for t in range(n)]
        support = [t for t in range(n) if gap[t]]
        core = [dict(row) for row in bar]
        for i, r in enumerate(support):
            row, gr = core[r], gap[r]
            for s in support[i:]:
                _accumulate(row, s, gr * gap[s])
        new = _glue(core, n + 1)
        rk = rho_pow(j)
        for r in support:  # the gluing column n above the diagonal
            new[r][n] = -(rk * gap[r])
        new[n][n] = (rho_pow(j - 1) + ONE) * (rho_pow(j + 1) + ONE)
        for r in range(n):  # and the gluing row n right of it
            new[n][n + 1 + r] = -(RHO * pi[r])
        # subtract the outer product of the next-level companion gap
        pi_next = silver_schedule(j + 1)
        c_next = c_sequence(j + 1)
        big_gap = [c_next[t] - pi_next[t] for t in range(2 * n + 1)]
        big_support = [t for t in range(2 * n + 1) if big_gap[t]]
        for i, r in enumerate(big_support):
            row, minus_gr = new[r], -big_gap[r]
            for s in big_support[i:]:
                _accumulate(row, s, minus_gr * big_gap[s])
        bar = new
    n = 2**k - 1
    c = c_sequence(k)
    lap = [SparseRow(sorted(row.items()) + [(n, -c[r])]) for r, row in enumerate(bar)]
    lap.append(SparseRow({n: (rho_pow(k) - ONE) * 2}))
    return SlackMatrix(lap=lap, border=_border(n))


def build_u_coeffs(k: int) -> UCoefficients:
    pi = silver_schedule(k)
    c = c_sequence(k)
    return UCoefficients(
        init=ONE,
        g=tuple(-a for a in pi) + (-rho_pow(k),),
        s=tuple(-cj for cj in c),
        s_star=-ONE,
    )


@lru_cache(maxsize=None)
def build_bundle(k: int) -> CertificateBundle:
    """Full certificate of order k (memoized; treat as read-only)."""
    if k < 1:
        raise ValueError(f"certificate order k must be >= 1, got {k}")
    return CertificateBundle(
        k=k,
        n=2**k - 1,
        pi=silver_schedule(k),
        c=c_sequence(k),
        lam=build_lambda(k),
        mu=build_mu(k),
        slack=build_slack(k),
        u_coeffs=build_u_coeffs(k),
    )


# ---------------------------------------------------------------------------
# Tamper hooks (negative controls for the verification suite)
# ---------------------------------------------------------------------------

TAMPER_TARGETS = ("lambda", "mu", "slack", "u")


def _plus(rows: Rows, i: int, j: int, v: RadicalScalar) -> Rows:
    """Copy of ``rows`` with ``v`` added at [i][j]; only row i is new storage."""
    out = list(rows)
    row = dict(rows[i])
    _accumulate(row, j, v)
    out[i] = SparseRow(sorted(row.items()))
    return out


def tamper_bundle(bundle: CertificateBundle, target: str) -> CertificateBundle:
    """Return a copy of the bundle with one entry perturbed by +1.

    Used as a negative control: each perturbation must make the descent
    identity fail on random inputs.
    """
    if target == "lambda":
        bar = _plus(bundle.lam.bar, 0, 1, ONE)
        return replace(bundle, lam=replace(bundle.lam, bar=bar))
    if target == "mu":
        star = bundle.mu.star_row[:]
        star[0] = star[0] + ONE
        return replace(bundle, mu=replace(bundle.mu, star_row=star))
    if target == "slack":
        border = SparseRow(bundle.slack.border)
        border[0] = border[0] + ONE
        return replace(bundle, slack=replace(bundle.slack, border=border))
    if target == "u":
        g = list(bundle.u_coeffs.g)
        g[-1] = g[-1] + ONE
        return replace(bundle, u_coeffs=replace(bundle.u_coeffs, g=tuple(g)))
    raise ValueError(f"unknown tamper target {target!r}; choose from {TAMPER_TARGETS}")


# ---------------------------------------------------------------------------
# Exact checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    detail: str = ""


def check_multipliers_nonneg(bundle: CertificateBundle) -> CheckReport:
    """Exact sign check of every off-diagonal multiplier entry.

    Also cross-checks the last row of mu_bar against its closed form
    (rho**k - 1) * (c_j - pi_j), which is how the one non-obviously
    nonnegative block is controlled.
    """
    for label, mult in (("lambda", bundle.lam), ("mu", bundle.mu)):
        for i, row in enumerate(mult.bar):
            for j, v in row.items():
                if i != j and v.sign() < 0:
                    return CheckReport("nonneg", False, f"{label}_bar[{i}][{j}] = {v} < 0")
        for j, v in enumerate(mult.star_row):
            if v.sign() < 0:
                return CheckReport("nonneg", False, f"{label}_star[{j}] = {v} < 0")
    n = bundle.n
    last = bundle.mu.bar[n - 1]
    scale = rho_pow(bundle.k) - ONE
    for j in range(n - 1):
        expected = scale * (bundle.c[j] - bundle.pi[j])
        v = last.get(j, ZERO)
        if v != expected:
            detail = f"mu_bar[{n - 1}][{j}] = {v} deviates from closed form {expected}"
            return CheckReport("nonneg", False, detail)
    return CheckReport("nonneg", True)


def _laplacian_violation(mat: Rows, prefix: str, name: str) -> str:
    """Detail of the first misplaced or positive off-diagonal entry or nonzero row sum, or "".

    ``mat`` is an upper triangle, so an off-diagonal entry joins the sums of
    its row and its column; row r's sum is whole once row r has been read.
    """
    size = len(mat)
    sums = [ZERO] * size
    for r, row in enumerate(mat):
        total = sums[r]
        for s, v in row.items():
            if s != r:
                if not r < s < size:
                    return f"{prefix}entry {name}[{r}][{s}] = {v} is outside the upper triangle"
                if v.sign() > 0:
                    return f"{prefix}off-diagonal {name}[{r}][{s}] = {v} > 0"
                sums[s] = sums[s] + v
            total = total + v
        if total:
            return f"{prefix}row {r} sums to {total}, not 0"
    return ""


def check_laplacian(bundle: CertificateBundle) -> CheckReport:
    """Exact Laplacian structure of the bordered slack matrix L.

    Verifies (a) every row of L sums to exactly zero with nonpositive
    off-diagonal entries, and then (b) the core of L (its top-left n x n
    block) plus the companion-gap outer product has nonpositive off-diagonal
    entries.  Part (b) examines only pairs r < s on the support of the gap
    c - pi: off it the outer product vanishes, so the entry equals L[r][s],
    which (a) has just shown to be <= 0, and both sides are symmetric.
    """
    lap = bundle.slack.lap
    detail = _laplacian_violation(lap, "", "L")
    if detail:
        return CheckReport("laplacian", False, detail)
    gap = [ci - pi for ci, pi in zip(bundle.c, bundle.pi)]
    support = [t for t, g in enumerate(gap) if g]
    for i, r in enumerate(support):
        row, gr = lap[r], gap[r]
        for s in support[i + 1:]:
            v = row.get(s, ZERO) + gr * gap[s]
            if v.sign() > 0:
                detail = f"core-plus-outer entry [{r}][{s}] = {v} > 0"
                return CheckReport("laplacian", False, detail)
    return CheckReport("laplacian", True)


def _border_violation(border: dict[int, RadicalScalar], n: int) -> str:
    """Detail of the first entry where S's border is not (1/sqrt2, -1, 0, ..., 0, +1)."""
    expected = _border(n)
    for c in sorted(border.keys() | expected.keys()):
        v, w = border.get(c, ZERO), expected.get(c, ZERO)
        if v != w:
            return f"S[0][{c}] = {v}, not {w}"
    return ""


def check_schur_psd(bundle: CertificateBundle) -> CheckReport:
    """Certify S >= 0 exactly via its Schur complement.

    The corner of S is 1/sqrt2 > 0, so S is positive semidefinite iff
    L - sqrt2 * v v^T with v = -e_1 + e_{n+1} is.  That matrix is shown to
    be Laplacian: zero row sums and nonpositive off-diagonals (the only
    stored entries that change are the three in rows 1 and n+1, and the
    off-diagonal one needs c_1 >= sqrt2).  Then the stored border is checked
    to be exactly that one, so the proof is about the stored S.
    """
    n = bundle.n
    schur = bundle.slack.lap
    for r, s, v in ((0, 0, -SQRT2), (n, n, -SQRT2), (0, n, SQRT2)):
        schur = _plus(schur, r, s, v)
    violation = (_laplacian_violation(schur, "Schur complement ", "")
                 or _border_violation(bundle.slack.border, n))
    if violation:
        return CheckReport("schur", False, violation)
    corner = schur[0].get(n, ZERO)
    detail = f"corner entry (1,{n + 1}) = {corner} <= 0 since c_1 >= sqrt2"
    return CheckReport("schur", True, detail)


# ---------------------------------------------------------------------------
# Randomized exact test of the multi-step descent identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityReport:
    k: int
    trials: int
    dim: int
    failures: tuple[int, ...]
    first_residual: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures


def sample_free_trace(pi: list[RadicalScalar], dim: int, rng: random.Random):
    """Random assignment of the identity's free variables, as a solver trace.

    Gradient/subgradient coordinates and all function values are small
    random Python ints in -5..5, so the identity's arithmetic runs on ints
    and Z[sqrt2] values rather than on ``Fraction``s; the iterates are then
    forced by the update x_{t+1} = x_t - alpha_t (g_t + s_{t+1}), the optimum
    sits at the origin, and g_* = -s_*.  Both sides of the descent identity
    are polynomials in these free variables, so exact evaluation on random
    integer points is a sound identity test.
    """
    from .solver import Trace

    n = len(pi)

    def coord():
        return rng.randint(-5, 5)

    def vec():
        return [coord() for _ in range(dim)]

    gs = [vec() for _ in range(n + 1)]
    ss = [vec() for _ in range(n)]
    s_star = vec()
    fs = [coord() for _ in range(n + 1)]
    hs = [coord() for _ in range(n + 1)]  # h_0 never enters the identity
    f_star, h_star = coord(), coord()
    xs = [[RadicalScalar(c) for c in vec()]]
    for t in range(n):
        a = pi[t]
        xs.append(
            [xv - a * (gv + sv) for xv, gv, sv in zip(xs[-1], gs[t], ss[t])]
        )
    return Trace(
        steps=list(pi),
        xs=xs,
        gs=gs,
        ss=ss,
        fs=fs,
        hs=hs,
        Fs=[fv + hv for fv, hv in zip(fs, hs)],
        x_star=[ZERO] * dim,
        s_star=s_star,
        f_star=f_star,
        h_star=h_star,
        F_star=f_star + h_star,
    )


def evaluate_identity(bundle: CertificateBundle, trace) -> tuple[RadicalScalar, RadicalScalar]:
    """Evaluate both sides of the descent identity on one trace, exactly.

    The left side weights the trace's co-coercivities (evaluated by the
    solver module) with the bundle's multipliers; the right side combines
    the objective gap, the initial distance, and the sum of squares built
    from u and the slack matrix S.
    """
    from .solver import _dot, _norm2, cocoercivity_f, cocoercivity_h

    n = bundle.n
    lhs = ZERO
    # subgradients start at iterate 1, so mu's indices are offset by one
    for mult, cocoercivity, offset in (
        (bundle.lam, cocoercivity_f, 0),
        (bundle.mu, cocoercivity_h, 1),
    ):
        for i, row in enumerate(mult.bar):
            for j, v in row.items():
                if i != j:
                    lhs = lhs + v * cocoercivity(trace, i + offset, j + offset)
        for j, v in enumerate(mult.star_row):
            if v:
                lhs = lhs + v * cocoercivity(trace, "*", j + offset)

    gap_term = (rho_pow(bundle.k) * 2 - ONE) * (trace.F_star - trace.Fs[n])
    w = trace.xs[0]  # x_0 - x_* since the optimum is at the origin
    w_norm2 = _norm2(w)

    uc = bundle.u_coeffs
    u_norm2 = ZERO
    for l in range(len(w)):
        acc = uc.init * w[l]
        for i in range(n + 1):
            acc = acc + uc.g[i] * trace.gs[i][l]
        for j in range(n):
            acc = acc + uc.s[j] * trace.ss[j][l]
        acc = acc + uc.s_star * trace.s_star[l]
        u_norm2 = u_norm2 + acc * acc

    # Tr(V S V^T) with V columns [x_0 - x_*, s_1, ..., s_n, s_*]: the border
    # is S's first row and column, L (shifted by one) the rest, and each
    # stored off-diagonal entry stands for a symmetric pair
    cols = [w] + trace.ss + [trace.s_star]
    trace_term = ZERO
    for j, v in bundle.slack.border.items():
        g = _dot(w, cols[j])
        trace_term = trace_term + v * (g if j == 0 else g + g)
    for r, row in enumerate(bundle.slack.lap, start=1):
        for j, v in row.items():
            g = _dot(cols[r], cols[j + 1])
            trace_term = trace_term + v * (g if j + 1 == r else g + g)

    rhs = gap_term + RHO_OVER_2SQRT2 * w_norm2 - (u_norm2 + trace_term) / 2
    return lhs, rhs


def verify_descent_identity(
    k: int,
    trials: int = 20,
    dim: int = 4,
    seed: int = 0,
    bundle: CertificateBundle | None = None,
) -> IdentityReport:
    """Test the descent identity on random integer inputs, exactly.

    Every trial must give a residual of exactly zero; any nonzero residual
    is reported with the offending trial.  ``bundle`` defaults to
    ``build_bundle(k)``; a negative control passes a ``tamper_bundle`` copy,
    which is expected to make trials fail.  A bundle of another order than
    ``k`` raises ``ValueError``.
    """
    if trials < 1 or dim < 1:
        raise ValueError("trials and dim must be positive")
    if bundle is None:
        bundle = build_bundle(k)
    elif bundle.k != k:
        raise ValueError(f"bundle has order {bundle.k}, not k={k}")
    rng = random.Random(seed)
    failures = []
    first_residual = ""
    for t in range(trials):
        trace = sample_free_trace(bundle.pi, dim, rng)
        lhs, rhs = evaluate_identity(bundle, trace)
        if lhs != rhs:
            failures.append(t)
            if not first_residual:
                first_residual = (lhs - rhs).exact_str()
    return IdentityReport(
        k=k,
        trials=trials,
        dim=dim,
        failures=tuple(failures),
        first_residual=first_residual,
    )


# ---------------------------------------------------------------------------
# Rate constants
# ---------------------------------------------------------------------------


def rate_from_certificate(k: int) -> RadicalScalar:
    """Sharp per-unit rate constant rho / (sqrt2 (4 rho**k - 2)), exact.

    After n = 2**k - 1 steps, F(x_n) - F_* is at most this constant times
    M ||x_0 - x_*||^2.
    """
    if k < 1:
        raise ValueError(f"certificate order k must be >= 1, got {k}")
    return RHO / (SQRT2 * (rho_pow(k) * 4 - 2))
