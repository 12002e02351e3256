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
stepsizes and their companion sequence).  Each order is that one level on
the memoized order below, ``build_bundle(k - 1)``: it shares the rows and
slack levels the level leaves unchanged and copies only the rows it
corrects, so every bundle is read-only.  Everything lives in Q(sqrt2) and
every check below is an exact computation: no floating point is involved.

``lambda_bar`` and ``mu_bar`` are stored as their gluing tree too.  Only
the rows a level corrects (lambda's n and 2n+1, mu's n-1, n and 2n) and
order 1's rows are stored, each as a ``SparseRow``: a dict from column to
value, keys ascending, no stored zeros (an unstored entry is an exact zero).
Every row of a glued copy is a ``ScaledRow``, a read-only reference
(stored row, power, offset) that reads as ``rho**(2 power)`` times the
stored row shifted by ``offset`` columns; a copy of a copy refers to the
stored row itself.  So the multipliers hold O(n) entries, and a reader that
wants plain rows still gets a mapping per row.  The checks and the identity
take every row as (stored row, power, offset), a plain row as (row, 0, 0):
the sign check scans each stored row once, and the identity groups entries
by power.  The slack matrix is stored as its gluing tree: with
gap_j = c(j) - pi(j) and core'_j = core_j + gap_j gap_j^T, each level adds
one border column B_j to two glued copies of core'_j, and L is core'_k less
gap_k gap_k^T, bordered by -c; S is L plus one border row.  The tree holds
O(n) entries, so L is symmetric by construction and the Laplacian checks
are an induction over the levels in O(n), on one integer form of the
tree's values.  The slack term of an identity
trial, O(n k dim) integer work, and ``SlackMatrix.lap``, which generates
L's rows for readers that want them, both read the tree in one walk over
its nodes (``SlackMatrix._nodes``).  Sums of field values times integer
coordinates go through ``exactnum.int_dot`` or ``int_norm2``, and the
iterates' common denominator through ``exactnum.int_form``: nothing here
reads a ``RadicalScalar``'s integer form, and each identity part reduces once.

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

The left side is read as in the Gram view of performance estimation.  Over
one common denominator the iterates are x_i = (X_i + sqrt2 Y_i) / d with
int vectors X_i, Y_i (d = 1 for the silver steps), so twice d times each
co-coercivity is A + sqrt2 B with A, B a few int inner products.  The
O(n k) entries the ``bar`` rows read as are summed so, weighted by their
stored values: one ``exactnum.scaled_int_dot`` per chunk of ``BAR_CHUNK``
entries applies each power's rho**(2 power) once, and no field operation
runs per entry.  The O(n) optimum rows stay on the solver's own
definition, ``solver.cocoercivity_f`` and ``cocoercivity_h``: they cost
little there, and perfbench's traced run looks for those functions under
``cert verify``.

Note on the slack matrix: S is symmetric, with first row and column
(1/sqrt2, -1, 0, ..., 0, +1).  An equivalent presentation elsewhere lists
the first row with opposite signs; expanding the two squared terms of the
order-1 certificate confirms the symmetric form used here.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from operator import mul, sub

from .exactnum import (ONE, RHO, SQRT2, ZERO, RadicalScalar, int_dot, int_form, int_norm2,
                       int_times, rho_pow, scaled_int_dot, signs)
from .schedule import c_double, pi_double, two_adic_valuation

INV_SQRT2 = RadicalScalar(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2
RHO_OVER_2SQRT2 = RadicalScalar(Fraction(1, 2), Fraction(1, 4))  # rho/(2 sqrt2)
# Multiplier entries whose integer co-coercivities the identity holds at once:
# one chunk per part up to k=8, and a bounded list at higher orders.
BAR_CHUNK = 8192


class SparseRow(dict):
    """A stored matrix row: column -> nonzero value, columns ascending.

    Keys are columns as in any dict, but iterating a row yields its values
    in column order, as a dense row's would less its zeros (perfbench reads rows so).
    """

    __slots__ = ()

    def __iter__(self):
        return iter(self.values())


class ScaledRow(Mapping):
    """A row of a glued copy: column ``offset + j`` holds ``rho**(2 power) row[j]``.

    A read-only reference to the stored ``SparseRow`` ``row``, with
    ``power >= 1``; its values are computed when read.  Like a ``SparseRow``,
    it iterates its values in column order.
    """

    __slots__ = ("row", "power", "offset")

    def __init__(self, row: SparseRow, power: int, offset: int):
        self.row, self.power, self.offset = row, power, offset

    def __getitem__(self, j: int) -> RadicalScalar:
        return rho_pow(2 * self.power) * self.row[j - self.offset]

    def __len__(self) -> int:
        return len(self.row)

    def __iter__(self):
        return iter(self.values())

    def keys(self) -> list[int]:
        return [self.offset + j for j in self.row.keys()]

    def values(self) -> list[RadicalScalar]:
        scale = rho_pow(2 * self.power)
        return [scale * v for v in self.row.values()]

    def items(self) -> list[tuple[int, RadicalScalar]]:
        return list(zip(self.keys(), self.values()))

    def __repr__(self):
        return f"ScaledRow({self.row!r}, power={self.power}, offset={self.offset})"


Rows = list[Mapping[int, RadicalScalar]]  # SparseRows and ScaledRows


def _ref(row: Mapping[int, RadicalScalar]) -> tuple[Mapping[int, RadicalScalar], int, int]:
    """(stored row, rho**2 power, column offset) of any row: a plain row is (row, 0, 0)."""
    if type(row) is ScaledRow:
        return row.row, row.power, row.offset
    return row, 0, 0


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
class GluingLevel:
    """Level j of the slack tree: the border column B_j that glues two copies of core'_j.

    With n_j = 2**j - 1, B_j is the column (and row) at index n_j of
    core'_{j+1}: ``-rho**j gap`` on the first copy, ``diag`` on the diagonal
    and ``-rho pi`` on the second copy.
    """

    gap: list[RadicalScalar]  # gap_j = c(j) - pi(j), n_j entries
    diag: RadicalScalar  # (rho**(j-1) + 1)(rho**(j+1) + 1)
    pi: list[RadicalScalar]  # pi(j), n_j entries


@dataclass(frozen=True)
class SlackMatrix:
    """Slack quadratic-form matrices L and S, stored as their gluing tree.

    The n x n core of L is ``core'_k - gap gap^T``, where core'_1 = [base]
    and core'_{j+1} glues core'_j at (0, 0) and ``rho**2 core'_j`` at
    (n_j + 1, n_j + 1), with ``levels[j - 1]``'s column B_j between them.
    L is (n+1) x (n+1): that core, bordered by ``-c`` with ``corner``
    2(rho**k - 1).  S, whose positive semidefiniteness is certified via a
    Schur complement, is L shifted by one with ``border`` as first row and
    column: {0: 1/sqrt2, 1: -1, n+1: +1}.  The tree holds O(n) entries; the
    checks read it level by level, and the identity's slack term and
    ``lap`` node by node, through ``_nodes``.
    """

    base: RadicalScalar
    levels: tuple[GluingLevel, ...]  # levels 1..k-1
    gap: list[RadicalScalar]  # gap_k = c(k) - pi(k)
    c: list[RadicalScalar]
    corner: RadicalScalar
    border: dict[int, RadicalScalar]

    def _nodes(self) -> Iterator[tuple[int, int, RadicalScalar, GluingLevel]]:
        """Each index r of core'_k as a tree node: (r, j, scale, level).

        Index r is the middle column of one node of level j = v2(r + 1)
        (j = 0 is a leaf, core'_1 = [base]), which spans columns
        r - (2**j - 1) .. r + 2**j - 1.  It lies inside popcount(r + 1) - 1
        second copies, so its column B_j carries the scale
        rho**(2 (popcount(r + 1) - 1)).
        """
        leaf = GluingLevel(gap=[], diag=self.base, pi=[])
        for r in range(len(self.c)):
            j = two_adic_valuation(r + 1)
            scale = rho_pow(2 * ((r + 1).bit_count() - 1))
            yield r, j, scale, self.levels[j - 1] if j else leaf

    @property
    def lap(self) -> Iterator[SparseRow]:
        """L's upper triangle, one row at a time: row r holds its nonzero columns >= r."""
        n, gap = len(self.c), self.gap
        rows: Rows = [{} for _ in range(n)]
        for r, j, scale, level in self._nodes():  # B_j = (-rho**j gap, diag, -rho pi)
            rows[r][r] = scale * level.diag
            first, second = -(scale * rho_pow(j)), -(scale * RHO)
            for t, g in enumerate(level.gap, start=r + 1 - 2**j):
                rows[t][r] = first * g
            rows[r].update((t, second * p) for t, p in enumerate(level.pi, start=r + 1))
        support = [t for t, g in enumerate(gap) if g]
        for r, row in enumerate(rows):
            if gap[r]:
                minus_gr = -gap[r]
                for s in support[bisect_left(support, r):]:
                    _accumulate(row, s, minus_gr * gap[s])
            _accumulate(row, n, -self.c[r])
            yield SparseRow(sorted((s, v) for s, v in row.items() if v))
        yield SparseRow({n: self.corner} if self.corner else {})


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

    Returns ``offset + len(bar)`` rows: ``bar``'s own rows at (0, 0), shared
    and not copied, empty rows up to ``offset``, and ``rho**2 * bar`` at
    (offset, offset) as ``ScaledRow``s.  A copy of a copy refers to the
    stored row itself, one power of rho**2 up and its offsets added.
    """
    return (list(bar) + [SparseRow() for _ in range(offset - len(bar))]
            + [ScaledRow(row, power + 1, shift + offset) for row, power, shift in map(_ref, bar)])


def _times(w: RadicalScalar, values: list[RadicalScalar]) -> list[RadicalScalar]:
    """``[w * v for v in values]``, with one product per distinct object of ``values``."""
    products = {}
    for v in values:
        if id(v) not in products:
            products[id(v)] = w * v
    return [products[id(v)] for v in values]


def _correct(bar: Rows, i: int, entries) -> None:
    """Replace ``bar[i]`` by a sorted stored copy with each (column, value) of ``entries`` added."""
    row = dict(bar[i].items())
    for j, v in entries:
        _accumulate(row, j, v)
    bar[i] = SparseRow(sorted(row.items()))


def _below(k: int) -> tuple[CertificateBundle | None, list[RadicalScalar], list[RadicalScalar]]:
    """Order k - 1's memoized bundle with its pi and c; at k = 1, None and the empty order 0."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:  # before any recursion
        raise ValueError(f"certificate order k must be an int >= 1, got {k!r}")
    if k == 1:
        return None, [], []
    prev = build_bundle(k - 1)
    return prev, prev.pi, prev.c


def build_lambda(k: int) -> Multipliers:
    """Smooth-part multipliers of order k: order k - 1 glued once, rows n and 2n+1 corrected."""
    prev, pi, _ = _below(k)
    star = pi_double(k - 1, pi) + [rho_pow(k)]
    if prev is None:
        return Multipliers(bar=[SparseRow({1: RHO}), SparseRow({0: ONE})], star_row=star)
    j, n = k - 1, prev.n
    bar = _glue(prev.lam.bar, n + 1)
    # a sparse coupling of the copies, and two rows proportional to the stepsizes pi(j)
    low_rank = list(zip(range(n + 1, 2 * n + 1), _times(RHO, pi)))
    _correct(bar, n, [(2 * n + 1, RHO)] + low_rank)
    _correct(bar, 2 * n + 1, [(n, rho_pow(j))] + low_rank)
    return Multipliers(bar=bar, star_row=star)


def build_mu(k: int) -> Multipliers:
    """Nonsmooth-part multipliers of order k: order k - 1 glued once, rows n-1, n, 2n corrected."""
    prev, pi, c = _below(k)
    c_k = c_double(k - 1, pi, c)
    star = [c_k[0] + ONE] + c_k[1:]
    if prev is None:
        return Multipliers(bar=[SparseRow()], star_row=star)
    j, n = k - 1, prev.n  # rows and columns here are 0-based: iterate i+1
    bar = _glue(prev.mu.bar, n + 1)
    mid = rho_pow(j - 1) + ONE
    w_hi = rho_pow(j) / mid
    w_lo, w_rho, w_c, w_p = ONE - w_hi, RHO / mid, RHO + ONE, ONE + rho_pow(-j)
    gaps = [(t, g) for t, g in enumerate(prev.slack.gap) if g]  # gap_j = c(j) - pi(j)
    second = range(n + 1, 2 * n + 1)
    _correct(bar, n - 1, [(n, rho_pow(j))] + [(t, w_lo * g) for t, g in gaps]
             + list(zip(second, _times(w_hi, pi))))
    _correct(bar, n, [(n + 1, rho_pow(2))] + [(t, w_hi * g) for t, g in gaps]
             + list(zip(second, _times(w_rho, pi))))
    _correct(bar, 2 * n, [(n, (RHO - rho_pow(-j)) * mid)]
             + [(t, w_c * cj - w_p * p) for t, cj, p in zip(second, c, pi)])
    return Multipliers(bar=bar, star_row=star)


def _border(n: int) -> SparseRow:
    """S's first row and column at order n: (1/sqrt2, -1, 0, ..., 0, +1)."""
    return SparseRow({0: INV_SQRT2, 1: -ONE, n + 1: ONE})


def build_slack(k: int) -> SlackMatrix:
    """Slack matrices of order k as their gluing tree: order k - 1's levels and level k - 1."""
    prev, pi, c = _below(k)  # level k - 1's gap and pi are order k - 1's gap and pi
    levels = () if prev is None else prev.slack.levels + (GluingLevel(
        gap=prev.slack.gap, diag=(rho_pow(k - 2) + ONE) * (rho_pow(k) + ONE), pi=pi),)
    pi, c = pi_double(k - 1, pi), c_double(k - 1, pi, c)
    return SlackMatrix(
        base=SQRT2 * 2 + 2,  # core'_1 = 2(rho - 1) + gap_1**2, gap_1 = c(1) - pi(1) = [sqrt2]
        levels=levels,
        gap=[ct - pt for ct, pt in zip(c, pi)],
        c=c,
        corner=(rho_pow(k) - ONE) * 2,
        border=_border(2**k - 1),
    )


def build_u_coeffs(k: int) -> UCoefficients:
    _, pi, c = _below(k)
    pi, c = pi_double(k - 1, pi), c_double(k - 1, pi, c)
    # pi(k) repeats k values and c(k) starts with pi(k - 1): negate each object once
    minus = _times(-ONE, pi + c)
    return UCoefficients(init=ONE, g=tuple(minus[:len(pi)]) + (-rho_pow(k),),
                         s=tuple(minus[len(pi):]), s_star=-ONE)


@lru_cache(maxsize=None, typed=True)
def build_bundle(k: int) -> CertificateBundle:
    """Full certificate of order k (memoized, every order; orders share rows, so read-only)."""
    lam, mu, slack = build_lambda(k), build_mu(k), build_slack(k)
    return CertificateBundle(k=k, n=2**k - 1, pi=lam.star_row[:-1], c=slack.c,  # pi(k), c(k)
                             lam=lam, mu=mu, slack=slack, u_coeffs=build_u_coeffs(k))


# ---------------------------------------------------------------------------
# Tamper hooks (negative controls for the verification suite)
# ---------------------------------------------------------------------------

TAMPER_TARGETS = ("lambda", "mu", "slack", "u")


def tamper_bundle(bundle: CertificateBundle, target: str) -> CertificateBundle:
    """Return a copy of the bundle with one entry perturbed by +1.

    Used as a negative control: each perturbation must make the descent
    identity fail on random inputs.
    """
    if target == "lambda":
        bar = list(bundle.lam.bar)
        bar[0] = SparseRow(bar[0])
        bar[0][1] = bar[0][1] + ONE
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

    Row i as (stored row, power, offset) holds ``rho**(2 power)`` times the
    stored values, and rho**(2 power) > 0, so its signs are the stored
    values', and its diagonal is the stored column i - offset, which all the
    copies of a stored row share.  So the rows are read in order, each
    (stored row, diagonal column) once with signs from the values' integer
    form: a pair seen before was clean, and the first negative off-diagonal
    entry is the one a row-major scan of every row would name.
    """
    for label, mult in (("lambda", bundle.lam), ("mu", bundle.mu)):
        seen = set()
        for i, row in enumerate(mult.bar):
            stored, _, offset = _ref(row)
            if (id(stored), i - offset) in seen:
                continue
            seen.add((id(stored), i - offset))
            for j, sign in zip(stored.keys(), signs(stored.values())):
                if sign < 0 and j != i - offset:
                    value = row[offset + j]
                    return CheckReport("nonneg", False, f"{label}_bar[{i}][{offset + j}] = {value} < 0")
        star = mult.star_row
        for j, sign in enumerate(signs(star)):
            if sign < 0:
                return CheckReport("nonneg", False, f"{label}_star[{j}] = {star[j]} < 0")
    m = bundle.n - 1
    last = [bundle.mu.bar[m].get(j, ZERO) for j in range(m)]
    scale = rho_pow(bundle.k) - ONE
    # last[j] == scale (c_j - pi_j) on one integer form, which scale in Z[sqrt2] keeps
    ps, qs, _ = int_form(last + bundle.c[:m] + bundle.pi[:m])
    gap = int_times(scale, list(map(sub, ps[m:2 * m], ps[2 * m:])),
                    list(map(sub, qs[m:2 * m], qs[2 * m:])))
    for j, (p, q, gp, gq) in enumerate(zip(ps[:m], qs[:m], *gap)):
        if (p, q) != (gp, gq):
            expected = scale * (bundle.c[j] - bundle.pi[j])
            detail = f"mu_bar[{m}][{j}] = {last[j]} deviates from closed form {expected}"
            return CheckReport("nonneg", False, detail)
    return CheckReport("nonneg", True)


def _tree_violation(slack: SlackMatrix, schur: bool) -> str:
    """Detail of the first failure of the tree's Laplacian induction, or "".

    Proves that L (or its Schur complement L - sqrt2 v v^T, v = e_0 - e_n)
    has nonpositive off-diagonals and zero row sums.  Gluing scales by
    rho**2 > 0, so the off-diagonals of every core'_j are <= 0 once each
    level's gap and pi are >= 0; L's are then <= 0 once gap_k >= 0 and
    c >= 0, and the Schur step raises only the off-diagonal [0][n] to
    sqrt2 - c[0].  Row sums of core'_j follow
    ``rs'_{j+1} = [rs'_j + B_lo, sum(B_j), rho**2 rs'_j + B_hi]``, and the
    Schur step moves no row sum.

    Signs are read from each value's integer form, and the sums run on one
    ``int_form`` of the tree's values, over one denominator d: a value is
    kept as the ints p and q of (p + q sqrt2) / d, and ``int_times`` keeps
    it over d when multiplied by a power of rho, which is in Z[sqrt2].
    """
    prefix = "Schur complement " if schur else ""
    n, k = len(slack.c), len(slack.levels) + 1
    sized = [(f"level {j} {part}", getattr(level, part), 2**j - 1)
             for j, level in enumerate(slack.levels, start=1) for part in ("gap", "pi")]
    sized += [(f"level {k} gap", slack.gap, n), ("c", slack.c, n)]
    for label, values, size in sized:
        if len(values) != size:
            return f"{prefix}{label} has {len(values)} entries, not {size}"
        value_signs = signs(values)
        if -1 in value_signs:
            r = value_signs.index(-1)
            return f"{prefix}{label}[{r}] = {values[r]} < 0"
    if schur and slack.c[0] < SQRT2:
        return f"{prefix}c[0] = {slack.c[0]} < sqrt2"
    head = [slack.base, slack.corner] + [level.diag for level in slack.levels]
    ps, qs, d = int_form(head + [v for _, values, _ in sized for v in values])
    sp, sq, at = [ps[0]], [qs[0]], len(head)
    for j in range(1, k):  # B_j = (-rho**j gap_j, diag, -rho pi(j))
        m = 2**j - 1
        lo_p, lo_q = int_times(rho_pow(j), ps[at:at + m], qs[at:at + m])
        hi_p, hi_q = int_times(RHO, ps[at + m:at + 2 * m], qs[at + m:at + 2 * m])
        up_p, up_q = int_times(rho_pow(2), sp, sq)
        at += 2 * m
        sp = (list(map(sub, sp, lo_p)) + [ps[1 + j] - sum(lo_p) - sum(hi_p)]
              + list(map(sub, up_p, hi_p)))
        sq = (list(map(sub, sq, lo_q)) + [qs[1 + j] - sum(lo_q) - sum(hi_q)]
              + list(map(sub, up_q, hi_q)))
    gp, gq, cp, cq = ps[at:at + n], qs[at:at + n], ps[at + n:], qs[at + n:]
    # row r of gap gap^T sums to gap_r times gap_k's total, d times which is in Z[sqrt2]
    op, oq = int_times(RadicalScalar(sum(gp), sum(gq)), gp, gq)  # over d**2
    rows = [(d * (s - c) - o, d * (u - e) - f, d * d)
            for s, u, c, e, o, f in zip(sp, sq, cp, cq, op, oq)]
    rows.append((ps[1] - sum(cp), qs[1] - sum(cq), d))  # the corner row
    for r, (p, q, e) in enumerate(rows):
        if p or q:
            total = RadicalScalar(Fraction(p, e), Fraction(q, e))
            return f"{prefix or 'L '}row {r} sums to {total}, not 0"
    return ""


def check_laplacian(bundle: CertificateBundle) -> CheckReport:
    """Exact Laplacian structure of the bordered slack matrix L, by induction over its tree.

    Verifies that every row of L sums to exactly zero and that every
    off-diagonal entry of L, and of each core'_j (so of the core of L plus
    the companion-gap outer product), is nonpositive.
    """
    detail = _tree_violation(bundle.slack, schur=False)
    return CheckReport("laplacian", not detail, detail)


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
    be Laplacian by the tree induction of ``check_laplacian``: it changes
    no row sum and one off-diagonal, sqrt2 - c_1, which needs c_1 >= sqrt2.
    Then the stored border is checked to be exactly that one, so the proof
    is about the stored S.
    """
    n = bundle.n
    violation = (_tree_violation(bundle.slack, schur=True)
                 or _border_violation(bundle.slack.border, n))
    if violation:
        return CheckReport("schur", False, violation)
    corner = SQRT2 - bundle.slack.c[0]
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

    The coordinates of x_0 and of the gradients and subgradients, and all
    function values, are small random Python ints in -5..5, so the
    identity's arithmetic runs on ints and Z[sqrt2] values rather than on
    ``Fraction``s; the later iterates are then forced by the update
    x_{t+1} = x_t - alpha_t (g_t + s_{t+1}), in Z[sqrt2] since the steps
    are, the optimum sits at the origin, and g_* = -s_*.  Both sides of the
    descent identity are polynomials in these free variables, so exact
    evaluation on random integer points is a sound identity test.
    """
    from .solver import Trace

    n = len(pi)
    getrandbits = rng.getrandbits

    def coord():  # rng.randint(-5, 5)'s own draw, without its call overhead
        r = getrandbits(4)
        while r >= 11:
            r = getrandbits(4)
        return r - 5

    def vec():
        return [coord() for _ in range(dim)]

    gs = [vec() for _ in range(n + 1)]
    ss = [vec() for _ in range(n)]
    s_star = vec()
    fs = [coord() for _ in range(n + 1)]
    hs = [coord() for _ in range(n + 1)]  # h_0 never enters the identity
    f_star, h_star = coord(), coord()
    xs = [vec()]  # x_0 - x_* has free integer coordinates too
    for a, g, s in zip(pi, gs, ss):
        xs.append([x - a * (gv + sv) for x, gv, sv in zip(xs[-1], g, s)])
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


def _slack_term(slack: SlackMatrix, cols: list) -> RadicalScalar:
    """Tr(V S V^T) for V = cols = [w, s_1, ..., s_n, s_*], with integer columns.

    S's border is read entry by entry.  L's form over [s_1, ..., s_n, s_*] is
    core'_k's form, by the gluing recursion
    Q'_{j+1}(v) = Q'_j(first copy) + rho**2 Q'_j(second copy)
    + 2 <v_mid, sum_r B_r v_r> + B_mid ||v_mid||**2,
    less ||sum_r gap_k[r] s_r||**2, plus the border -c and the corner.
    Unrolled over the tree's nodes, node r of level j with scale ``scale``
    adds scale (B_mid ||s_r||**2 - 2 rho**j <s_r, gap_j . first copy>
    - 2 rho <s_r, pi(j) . second copy>).  The inner products of s_r with its
    neighbours are ints, so a trial is O(n k dim) integer work and O(n)
    field operations.
    """
    w, ss, s_star = cols[0], cols[1:-1], cols[-1]
    term = ZERO
    for j, v in slack.border.items():  # an off-diagonal entry stands for two
        g = sum(map(mul, w, cols[j]))
        term = term + v * (g if j == 0 else g + g)
    core = ZERO
    for r, j, scale, level in slack._nodes():
        v = ss[r]
        node = level.diag * sum(map(mul, v, v))
        if j:  # a leaf has no border column
            m = 2**j - 1
            first = [sum(map(mul, v, u)) for u in ss[r - m:r]]
            second = [sum(map(mul, v, u)) for u in ss[r + 1:r + 1 + m]]
            cross = rho_pow(j) * int_dot(level.gap, first) + RHO * int_dot(level.pi, second)
            node = node - cross - cross
        core = core + scale * node
    outer = int_norm2(slack.gap, ss)  # ||sum_r gap_k[r] s_r||**2
    bordered = int_dot(slack.c, [sum(map(mul, s, s_star)) for s in ss])
    lap = (core - outer - bordered - bordered
           + slack.corner * sum(map(mul, s_star, s_star)))
    return term + lap


def _require_free_trace(trace, n: int) -> None:
    """Raise ``ValueError`` naming the first field of ``trace`` that evaluate_identity rejects."""
    sizes = {"steps": n, "ss": n, "xs": n + 1, "gs": n + 1, "fs": n + 1, "hs": n + 1}
    fields = [(name, getattr(trace, name), size) for name, size in sizes.items()]
    dim = len(trace.xs[0]) if trace.xs else 0  # an empty xs fails its own size first
    fields += [(f"{name}[{i}]", v, dim) for name in ("xs", "gs", "ss")
               for i, v in enumerate(getattr(trace, name))] + [("s_star", trace.s_star, dim)]
    for name, values, size in fields:
        if len(values) != size:
            raise ValueError(f"trace {name} has {len(values)} entries, not {size}")
    free = (("gs", [v for g in trace.gs for v in g]), ("ss", [v for s in trace.ss for v in s]),
            ("s_star", trace.s_star), ("fs", trace.fs), ("hs", trace.hs), ("xs[0]", trace.xs[0]))
    for name, values in free:
        if not set(map(type, values)) <= {int}:
            raise ValueError(f"trace {name} must hold ints, as sample_free_trace draws them")


def _bar_term(d: int, xs: list, ys: list, parts) -> RadicalScalar:
    """2d times the sum of ``bar[i][j]`` times the co-coercivity of points i and j.

    Summed over ``parts`` of (bar, start, grads, values, smooth), one per
    multiplier part, whose point i is iterate ``start + i``: with int
    vectors X_i = ``xs[start + i]`` and Y_i = ``ys[start + i]`` it is
    x_i = (X_i + sqrt2 Y_i) / d, with gradient (or subgradient)
    g_i = ``grads[i]`` and value v_i = ``values[i]``, all ints.  Then
    2d co(i, j) = A + sqrt2 B with the ints
    A = 2d (v_i - v_j) - 2 <g_j, X_i - X_j> - [smooth] d ||g_i - g_j||**2 and
    B = -2 <g_j, Y_i - Y_j>.  Grouped by index, with e = [smooth] d,
    A = a_i - b_j - <g_j, 2 (X_i - e g_i)> for a_i = 2d v_i - e ||g_i||**2 and
    b_j = 2d v_j + e ||g_j||**2 - 2 <g_j, X_j>, and B = 2 <g_j, Y_j> - <g_j, 2 Y_i>,
    so an entry costs two int dots of length dim.

    Row i, as (stored row, power, offset), weighs its entries with the
    stored row's own values, and the entries of both parts are grouped by
    power: one ``scaled_int_dot`` per ``BAR_CHUNK`` entries (one in all up
    to k=8) applies each power's unit rho**(2 power) to its group's integer
    sums, so a trial reduces once and the integer lists stay bounded.
    """
    ys2 = [[y + y for y in yi] for yi in ys]  # 2 Y_i, for both parts
    total, groups, size = ZERO, {}, 0
    for bar, start, grads, values, smooth in parts:
        xs_p, ys2_p = xs[start:], ys2[start:]
        e = d if smooth else 0
        norms = [e * sum(map(mul, g, g)) for g in grads] if e else [0] * len(grads)
        shifted = ([[2 * (x - e * t) for x, t in zip(xi, g)] for xi, g in zip(xs_p, grads)] if e
                   else [[x + x for x in xi] for xi in xs_p])
        a = [2 * d * v - m for v, m in zip(values, norms)]
        b = [2 * d * v + m - 2 * sum(map(mul, g, xi))
             for v, m, g, xi in zip(values, norms, grads, xs_p)]
        gy = [sum(map(mul, g, yi)) for g, yi in zip(grads, ys2_p)]
        for i, row in enumerate(bar):
            stored, power, offset = _ref(row)
            zi, yi, ai = shifted[i], ys2_p[i], a[i]
            cols = [offset + j for j in stored.keys()] if offset else stored.keys()
            if power in groups:
                weights, big_a, big_b = groups[power]
            else:
                weights, big_a, big_b = groups[power] = [], [], []
            weights += stored.values()
            big_a += [ai - b[j] - sum(map(mul, grads[j], zi)) for j in cols]
            big_b += [gy[j] - sum(map(mul, grads[j], yi)) for j in cols]
            size += len(stored)
            if size >= BAR_CHUNK:
                total, groups, size = total + _rho2_dot(groups), {}, 0
    return total + _rho2_dot(groups)


def _rho2_dot(groups: dict[int, tuple[list, list, list]]) -> RadicalScalar:
    """Sum of rho**(2 p) * int_dot(weights, A, B) over ``groups`` of p: (weights, A, B)."""
    return scaled_int_dot([(rho_pow(p + p), w, x, y) for p, (w, x, y) in groups.items()])


def evaluate_identity(bundle: CertificateBundle, trace) -> tuple[RadicalScalar, RadicalScalar]:
    """Evaluate both sides of the descent identity on one trace, exactly.

    The left side weights the trace's co-coercivities with the bundle's
    multipliers; the right side combines the objective gap, the initial
    distance, and the sum of squares built from u and the slack matrix S.
    The trace must fit the bundle (n ``steps`` and ``ss``, n + 1 ``xs``, ``gs``, ``fs``, ``hs``,
    each vector as long as x_0) and hold ints in ``gs``, ``ss``, ``s_star``, ``fs``, ``hs``
    and x_0, as ``sample_free_trace`` draws them; a field that does not raises ``ValueError``.

    The O(n k) stored ``bar`` entries are summed on the iterates' integer
    form (``exactnum.int_form``, one common denominator d) by ``_bar_term``,
    with no field operation per entry.  The O(n) optimum rows go through
    ``solver.cocoercivity_f`` and ``cocoercivity_h``, the solver's own
    definition: they cost little, and perfbench's traced run looks for those
    functions under ``cert verify``.
    """
    from .solver import cocoercivity_f, cocoercivity_h

    _require_free_trace(trace, bundle.n)
    n, dim = bundle.n, len(trace.xs[0])
    # x_0's int coordinates enter as ONE * v, without RadicalScalar's Fraction-based constructor
    coords = [v if isinstance(v, RadicalScalar) else ONE * v for x in trace.xs for v in x]
    ps, qs, d = int_form(coords)
    xs = [ps[t * dim:(t + 1) * dim] for t in range(n + 1)]
    ys = [qs[t * dim:(t + 1) * dim] for t in range(n + 1)]
    # subgradients start at iterate 1, so mu's indices are offset by one
    lhs = _bar_term(d, xs, ys, [(bundle.lam.bar, 0, trace.gs, trace.fs, True),
                                (bundle.mu.bar, 1, trace.ss, trace.hs[1:], False)]) / (2 * d)
    for mult, cocoercivity, offset in (
        (bundle.lam, cocoercivity_f, 0),
        (bundle.mu, cocoercivity_h, 1),
    ):
        for j, v in enumerate(mult.star_row):
            if v:
                lhs = lhs + v * cocoercivity(trace, "*", j + offset)

    gap_term = (rho_pow(bundle.k) * 2 - ONE) * (trace.F_star - trace.Fs[n])
    w = trace.xs[0]  # x_0 - x_* since the optimum is at the origin
    w_norm2 = sum(map(mul, w, w))

    uc = bundle.u_coeffs
    u_norm2 = int_norm2((uc.init, *uc.g, *uc.s, uc.s_star), [w, *trace.gs, *trace.ss, trace.s_star])

    trace_term = _slack_term(bundle.slack, [w] + trace.ss + [trace.s_star])
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
    ``k``, non-int ``trials``, ``dim`` or ``seed`` and a negative ``seed``
    (``random.Random`` would draw the trials of ``-seed``) raise ``ValueError``.
    """
    if any(type(v) is not int for v in (trials, dim, seed)) or min(trials, dim) < 1 or seed < 0:
        raise ValueError(f"need int trials, dim >= 1 and seed >= 0, got {trials}, {dim}, {seed}")
    if bundle is None:
        bundle = build_bundle(k)
    elif bundle.k != k:
        raise ValueError(f"bundle has order {bundle.k}, not k={k}")
    rng = random.Random(seed)
    residuals = []
    for _ in range(trials):
        lhs, rhs = evaluate_identity(bundle, sample_free_trace(bundle.pi, dim, rng))
        residuals.append(lhs - rhs)
    failures = tuple(t for t, r in enumerate(residuals) if r)
    first = residuals[failures[0]].exact_str() if failures else ""
    return IdentityReport(k=k, trials=trials, dim=dim, failures=failures, first_residual=first)


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
