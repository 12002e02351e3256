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
corrects, so every bundle is read-only, and its level of the stepsizes'
doubling (pi(k) and c(k)) is taken once, for all of its builders.
Everything lives in Q(sqrt2) and every check below is an exact
computation: no floating point is involved.

``lambda_bar`` and ``mu_bar`` are stored as their gluing tree too.  Only
the rows a level corrects (lambda's n and 2n+1, mu's n-1, n and 2n) and
order 1's rows are stored, each as a ``SparseRow``: a dict from column to
value, keys ascending, no stored zeros (an unstored entry is an exact zero).
Every row of ``bar`` is a triple (stored row, power, offset) that reads as
``rho**(2 power)`` times the stored row shifted by ``offset`` columns, a
plain row (row, 0, 0); a copy of a copy refers to the stored row itself.
So the multipliers hold O(n) entries: the sign check scans each stored row
once, and the identity groups entries by power.  The slack matrix is stored
as its gluing tree: with gap_j = c(j) - pi(j) and
core'_j = core_j + gap_j gap_j^T, each level adds one border column B_j to
two glued copies of core'_j, and L is core'_k less gap_k gap_k^T, bordered
by -c; S is L plus one border row.  The tree holds
O(n) entries, so L is symmetric by construction and both Laplacian checks
read one induction over the levels in O(n), run once per tree on one
integer form of the tree's values.  The slack term of an identity trial,
O(n k dim) integer work, and ``SlackMatrix.lap``, which generates L's rows
for readers that want them, both read the tree's nodes from
``SlackMatrix._nodes``.  Sums of field values times integer coordinates
go through ``exactnum``'s ``scaled_int_dot`` and ``norm2_ints``, on values
put over a common denominator by ``exactnum.int_form``: nothing here reads
a ``RadicalScalar``'s integer form or multiplies two of them by the
field's rule, and each side of the identity reduces once.

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

Each ``verify_descent_identity`` call prepares the bundle's side of the
identity once, in integer form, and each trial then does only its trace's
own integer work, each side reduced once: ``_PreparedIdentity`` describes
what is prepared and what a trial does, and ``_bar_term`` how the left
side reads the multiplier rows in the Gram view of performance estimation.

Note on the slack matrix: S is symmetric, with first row and column
(1/sqrt2, -1, 0, ..., 0, +1).  An equivalent presentation elsewhere lists
the first row with opposite signs; expanding the two squared terms of the
order-1 certificate confirms the symmetric form used here.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from operator import add, lshift, mul, sub

from .exactnum import (ONE, RHO, SQRT2, ZERO, RadicalScalar, int_form, int_times, norm2_ints,
                       rho_pow, scaled_int_dot, signs)
from .schedule import _require_int, c_double, pi_double
from .schedule import rate_from_certificate  # noqa: F401  (re-exported, the rate it proves)
from .solver import Trace, cocoercivity_f, cocoercivity_h

INV_SQRT2 = RadicalScalar(0, Fraction(1, 2))  # 1/sqrt2 = sqrt2/2
RHO_OVER_2SQRT2 = RadicalScalar(Fraction(1, 2), Fraction(1, 4))  # rho/(2 sqrt2)
# Multiplier entries whose integer co-coercivities a trial holds at once: up to
# k=8 each rho**2 power and denominator of a part is one chunk (_bar_rows).
BAR_CHUNK = 8192
# Stored rows of at least PACK_ROW entries are summed by packed int dots, in
# parts where they hold PACK_EXCESS entries beyond PACK_ROW per row (_bar_rows).
PACK_ROW = 8
PACK_EXCESS = 2


class SparseRow(dict):
    """A stored matrix row: column -> nonzero value, columns ascending.

    Keys are columns as in any dict, but iterating a row yields its values
    in column order, as a dense row's would less its zeros (perfbench reads rows so).
    """

    __slots__ = ()

    def __iter__(self):
        return iter(self.values())


@dataclass(frozen=True)
class Multipliers:
    """Multipliers for the co-coercivities of one part of the objective.

    For the smooth part (``lam``), entry (i, j) of ``bar`` weights the pair
    (iterate i, iterate j) for 0 <= i, j <= n and ``star_row[j]`` weights
    (optimum, iterate j).  For the nonsmooth part (``mu``) every iterate
    index is offset by +1, since subgradients exist only from iterate 1 on:
    entry (i, j) weights (iterate i+1, iterate j+1) for 0 <= i, j <= n-1
    and ``star_row[j]`` weights (optimum, iterate j+1).

    Row i of ``bar`` is a triple (stored row, power, offset): its entry
    ``offset + j`` is ``rho**(2 power)`` times the stored ``SparseRow``'s
    entry j, and an unstored entry weighs 0.  A plain row is (row, 0, 0);
    the rows of a glued copy share the stored rows behind them, with
    power >= 1 and offset >= 1 (``_glue``).
    """

    bar: list[tuple[SparseRow, int, int]]
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

    def _nodes(self) -> Iterator[tuple[int, GluingLevel, range]]:
        """The indices of core'_k as tree nodes, level by level: (j, level, nodes).

        Level 0 is the leaf core'_1 = [base], with no border column, and level
        j >= 1 is ``levels[j - 1]``.  Its nodes are the indices r in ``nodes``,
        r = 2**j (2t + 1) - 1 for t = 0, 1, ...; each is the middle column of
        a node that spans columns r - (2**j - 1) .. r + 2**j - 1.  The t-th
        lies inside c = popcount(t) second copies, so its column B_j carries
        the scale rho**(2c).
        """
        leaf = GluingLevel(gap=[], diag=self.base, pi=[])
        for j, level in enumerate((leaf,) + self.levels):
            yield j, level, range(2**j - 1, len(self.c), 2 << j)

    @property
    def lap(self) -> Iterator[SparseRow]:
        """L's upper triangle, one row at a time: row r holds its nonzero columns >= r."""
        n, gap = len(self.c), self.gap
        rows = [{} for _ in range(n)]
        for j, level, nodes in self._nodes():  # B_j = (-rho**j gap, diag, -rho pi)
            for node, r in enumerate(nodes):
                scale = rho_pow(2 * node.bit_count())
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

    @cached_property
    def _induction(self) -> tuple[str, str]:
        """(size or sign failure, row-sum failure) of L's induction over the tree, "" for none.

        Run once per tree, for both slack checks.  Gluing scales by
        rho**2 > 0, so the off-diagonals of every core'_j are <= 0 once each
        level's gap and pi are >= 0; L's are then <= 0 once gap_k >= 0 and
        c >= 0.  Row sums of core'_j follow
        ``rs'_{j+1} = [rs'_j + B_lo, sum(B_j), rho**2 rs'_j + B_hi]``.  The row
        sums are not run on a tree of the wrong shape or signs.

        Signs are read from each value's integer form, and the sums run on one
        ``int_form`` of the tree's values, over one denominator d: a value is
        kept as the ints p and q of (p + q sqrt2) / d, and ``int_times`` keeps
        it over d when multiplied by a power of rho, which is in Z[sqrt2].
        """
        n, k = len(self.c), len(self.levels) + 1
        sized = [(f"level {j} {part}", getattr(level, part), 2**j - 1)
                 for j, level in enumerate(self.levels, start=1) for part in ("gap", "pi")]
        sized += [(f"level {k} gap", self.gap, n), ("c", self.c, n)]
        for label, values, size in sized:
            if len(values) != size:
                return f"{label} has {len(values)} entries, not {size}", ""
            value_signs = signs(values)
            if -1 in value_signs:
                r = value_signs.index(-1)
                return f"{label}[{r}] = {values[r]} < 0", ""
        head = [self.base, self.corner] + [level.diag for level in self.levels]
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
                return "", f"row {r} sums to {RadicalScalar(Fraction(p, e), Fraction(q, e))}, not 0"
        return "", ""


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

    @cached_property
    def _next_level(self) -> tuple[list[RadicalScalar], list[RadicalScalar]]:
        """pi(k + 1) and c(k + 1): one level of the doubling, taken when order k + 1 is built."""
        return pi_double(self.k, self.pi), c_double(self.k, self.pi, self.c)

    @cached_property
    def _shape(self) -> str:
        """Detail of the first of pi, c and the multiplier parts not shaped for order k, or "".

        Taken once per bundle, for the nonneg check and the identity, which
        read them so: pi and c hold n entries, lambda's ``bar`` and
        ``star_row`` hold n + 1 rows and entries, one per iterate, and mu's n,
        and every column a ``bar`` row reads, its offset plus a stored column,
        is one of the part's points.
        """
        for label, values in (("pi", self.pi), ("c", self.c)):
            if len(values) != self.n:
                return f"{label} has {len(values)} entries, not {self.n}"
        for label, mult, size in (("lambda", self.lam, self.n + 1), ("mu", self.mu, self.n)):
            if len(mult.bar) != size:
                return f"{label}_bar has {len(mult.bar)} rows, not {size}"
            if len(mult.star_row) != size:
                return f"{label}_star has {len(mult.star_row)} entries, not {size}"
            spans = {}
            for i, (row, _, offset) in enumerate(mult.bar):
                if row:
                    if id(row) not in spans:
                        spans[id(row)] = min(row.keys()), max(row.keys())
                    lo, hi = spans[id(row)]
                    if offset + lo < 0 or offset + hi >= size:
                        col = offset + (lo if offset + lo < 0 else hi)
                        return f"{label}_bar[{i}] reads column {col}, outside 0..{size - 1}"
        return ""


def _accumulate(row: dict[int, RadicalScalar], j: int, v: RadicalScalar) -> None:
    """Add ``v`` to ``row[j]``, dropping the entry if it cancels to zero."""
    total = row.pop(j) + v if j in row else v
    if total:
        row[j] = total


def _glue(bar: list, offset: int) -> list:
    """Gluing step of the doubling recursion: two copies of an order-j block.

    Returns ``offset + len(bar)`` rows: ``bar``'s own rows at (0, 0), shared
    and not copied, empty rows up to ``offset``, and ``rho**2 * bar`` at
    (offset, offset).  Each row of the second copy is its row's triple one
    power of rho**2 up and ``offset`` columns on, so a copy of a copy refers
    to the stored row itself.
    """
    return (list(bar) + [(SparseRow(), 0, 0) for _ in range(offset - len(bar))]
            + [(row, power + 1, shift + offset) for row, power, shift in bar])


def _entries(row: SparseRow, power: int, offset: int) -> dict[int, RadicalScalar]:
    """The {column: value} a (stored row, power, offset) reads as; a plain row is itself."""
    if not (power or offset):
        return row
    scale = rho_pow(2 * power)
    return {offset + j: scale * v for j, v in row.items()}


def _times(w: RadicalScalar, values: list[RadicalScalar]) -> list[RadicalScalar]:
    """``[w * v for v in values]``, with one product per distinct object of ``values``."""
    products = {}
    for v in values:
        if id(v) not in products:
            products[id(v)] = w * v
    return [products[id(v)] for v in values]


def _correct(bar: list, i: int, entries) -> None:
    """Replace ``bar[i]`` by a sorted stored copy with each (column, value) of ``entries`` added."""
    row = dict(_entries(*bar[i]))
    for j, v in entries:
        _accumulate(row, j, v)
    bar[i] = (SparseRow(sorted(row.items())), 0, 0)


def _below(k: int) -> tuple[CertificateBundle | None, list, list, list, list]:
    """Order k - 1's memoized bundle, pi(k - 1), c(k - 1), pi(k) and c(k).

    Order k's level of the doubling is taken once, for every builder, and kept
    with order k - 1's bundle in ``build_bundle``'s memo.  Order 1 is the base:
    no bundle below, the empty order 0, pi(1) = [sqrt2] and c(1) = [2 sqrt2].
    """
    _require_int(k, "order k")  # before any recursion
    if k == 1:
        return None, [], [], [SQRT2], [SQRT2 * 2]
    prev = build_bundle(k - 1)
    return (prev, prev.pi, prev.c, *prev._next_level)


def build_lambda(k: int) -> Multipliers:
    """Smooth-part multipliers of order k: order k - 1 glued once, rows n and 2n+1 corrected."""
    prev, pi, _, pi_k, _ = _below(k)
    star = pi_k + [rho_pow(k)]
    if prev is None:
        return Multipliers(bar=[(SparseRow({1: RHO}), 0, 0), (SparseRow({0: ONE}), 0, 0)],
                           star_row=star)
    j, n = k - 1, prev.n
    bar = _glue(prev.lam.bar, n + 1)
    # a sparse coupling of the copies, and two rows proportional to the stepsizes pi(j)
    low_rank = list(zip(range(n + 1, 2 * n + 1), _times(RHO, pi)))
    _correct(bar, n, [(2 * n + 1, RHO)] + low_rank)
    _correct(bar, 2 * n + 1, [(n, rho_pow(j))] + low_rank)
    return Multipliers(bar=bar, star_row=star)


def build_mu(k: int) -> Multipliers:
    """Nonsmooth-part multipliers of order k: order k - 1 glued once, rows n-1, n, 2n corrected."""
    prev, pi, c, _, c_k = _below(k)
    star = [c_k[0] + ONE] + c_k[1:]
    if prev is None:
        return Multipliers(bar=[(SparseRow(), 0, 0)], star_row=star)
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
    prev, pi, _, pi_k, c = _below(k)  # level k - 1's gap and pi are order k - 1's gap and pi
    levels = () if prev is None else prev.slack.levels + (GluingLevel(
        gap=prev.slack.gap, diag=(rho_pow(k - 2) + ONE) * (rho_pow(k) + ONE), pi=pi),)
    return SlackMatrix(
        base=SQRT2 * 2 + 2,  # core'_1 = 2(rho - 1) + gap_1**2, gap_1 = c(1) - pi(1) = [sqrt2]
        levels=levels,
        gap=[ct - pt for ct, pt in zip(c, pi_k)],
        c=c,
        corner=(rho_pow(k) - ONE) * 2,
        border=_border(2**k - 1),
    )


def build_u_coeffs(k: int) -> UCoefficients:
    *_, pi, c = _below(k)
    # pi(k) repeats k values and c(k) starts with pi(k - 1): negate each object once
    minus = _times(-ONE, pi + c)
    return UCoefficients(init=ONE, g=tuple(minus[:len(pi)]) + (-rho_pow(k),),
                         s=tuple(minus[len(pi):]), s_star=-ONE)


@lru_cache(maxsize=None, typed=True)
def build_bundle(k: int) -> CertificateBundle:
    """Full certificate of order k (memoized, every order; orders share rows, so read-only)."""
    lam, mu, slack = build_lambda(k), build_mu(k), build_slack(k)
    *_, pi, c = _below(k)
    return CertificateBundle(k=k, n=2**k - 1, pi=pi, c=c, lam=lam, mu=mu, slack=slack,
                             u_coeffs=build_u_coeffs(k))


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
        row = SparseRow(bar[0][0])  # a plain row; the glued copies keep the original
        row[1] = row[1] + ONE
        bar[0] = (row, 0, 0)
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

    A part of the wrong shape (``CertificateBundle._shape``) fails first.  Also
    cross-checks the last row of mu_bar against its closed form
    (rho**k - 1) * (c_j - pi_j), which is how the one non-obviously
    nonnegative block is controlled.

    Row i as (stored row, power, offset) holds ``rho**(2 power)`` times the
    stored values, and rho**(2 power) > 0, so its signs are the stored
    values', and its diagonal is the stored column i - offset, which all the
    copies of a stored row share.  So the rows are read in order, each
    (stored row, diagonal column) once with signs from the values' integer
    form: a pair seen before was clean, and the first negative off-diagonal
    entry is the one a row-major scan of every row would name.

    The diagonal entries of ``mu_bar`` are inert: a point's co-coercivity
    with itself, h_i - h_i - <s_i, x_i - x_i>, is identically zero, so no
    identity trial can see them, and the sign check skips them.  From order
    2 on, ``mu_bar`` reads 2**(k-1) of them, half of them negative, from k
    stored entries that ``build_mu`` puts in when it corrects rows n-1 and
    2n.  They are kept, and skipped here, because dropping them would move
    no report byte, rate or tamper residual but would move the golden
    digests of the dense ``mu_bar`` (tests/test_golden_bundle.py) for
    k >= 2.  So they are the one stated exception to "every stored entry is
    load-bearing".
    """
    if bundle._shape:
        return CheckReport("nonneg", False, bundle._shape)
    for label, mult in (("lambda", bundle.lam), ("mu", bundle.mu)):
        seen = set()
        for i, (stored, power, offset) in enumerate(mult.bar):
            if (id(stored), i - offset) in seen:
                continue
            seen.add((id(stored), i - offset))
            for j, sign in zip(stored.keys(), signs(stored.values())):
                if sign < 0 and j != i - offset:
                    value = _entries(stored, power, offset)[offset + j]
                    return CheckReport("nonneg", False, f"{label}_bar[{i}][{offset + j}] = {value} < 0")
        star = mult.star_row
        for j, sign in enumerate(signs(star)):
            if sign < 0:
                return CheckReport("nonneg", False, f"{label}_star[{j}] = {star[j]} < 0")
    m = bundle.n - 1
    row = _entries(*bundle.mu.bar[m])
    last = [row.get(j, ZERO) for j in range(m)]
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
    has nonpositive off-diagonals and zero row sums.  Both read the one
    induction of ``SlackMatrix._induction``; the Schur step raises only the
    off-diagonal [0][n] to sqrt2 - c[0], so it adds the test c[0] >= sqrt2,
    and it moves no row sum.
    """
    prefix = "Schur complement " if schur else ""
    shape, rows = slack._induction
    if shape:
        return prefix + shape
    if schur and slack.c[0] < SQRT2:
        return f"{prefix}c[0] = {slack.c[0]} < sqrt2"
    return (prefix or "L ") + rows if rows else ""


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


def _draw(n: int, dim: int, rng: random.Random):
    """The identity's free ints in -5..5, as ``rng.randint(-5, 5)`` draws each, in draw order.

    (gs, ss, s_star, fs, hs, f_star, h_star, w): n + 1 gradients, n
    subgradients, s_*, n + 1 values of f and of h, f_*, h_* and
    w = x_0 - x_*, each vector of length ``dim``.  Each coordinate is drawn
    as ``randint`` draws it (``getrandbits(4)``, redrawn while >= 11), without
    its call overhead, in one flat loop that the slices below cut up, so the
    stream is the same.
    """
    getrandbits, drawn = rng.getrandbits, []
    for _ in range((2 * n + 3) * dim + 2 * n + 4):
        r = getrandbits(4)
        while r >= 11:
            r = getrandbits(4)
        drawn.append(r - 5)
    vecs = [drawn[at:at + dim] for at in range(0, (2 * n + 2) * dim, dim)]  # gs, ss and s_*
    at = (2 * n + 2) * dim  # then the values of f and of h (h_0 never enters), f_*, h_* and w
    return (vecs[:n + 1], vecs[n + 1:-1], vecs[-1], drawn[at:at + n + 1],
            drawn[at + n + 1:at + 2 * n + 2], drawn[-dim - 2], drawn[-dim - 1], drawn[-dim:])


def sample_free_trace(pi: list[RadicalScalar], dim: int, rng: random.Random):
    """Random assignment of the identity's free variables, as a solver trace.

    The coordinates of x_0 and of the gradients and subgradients, and all
    function values, are small random Python ints in -5..5 (``_draw``, the
    draw ``verify_descent_identity`` makes too); the later iterates are then
    forced by the update x_{t+1} = x_t - alpha_t (g_t + s_{t+1}), in
    Z[sqrt2] since the steps are, the optimum sits at the origin, and
    g_* = -s_*.  Both sides of the descent identity are polynomials in these
    free variables, so exact evaluation on random integer points is a sound
    identity test.  A ``dim`` that is not an int >= 1 raises ``ValueError``.
    """
    _require_int(dim, "trace dimension dim")
    gs, ss, s_star, fs, hs, f_star, h_star, w = _draw(len(pi), dim, rng)
    xs = [w]  # x_0 - x_* has free integer coordinates too
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


class _SlackForm:
    """Tr(V S V^T) for V = [w, s_1, ..., s_n, s_*] with int columns of length ``dim``.

    The tree's integer forms and its node walk are planned once, at
    construction; ``pairs(cols)`` then sums one V's ints, and the term is
    ``sum(units[i] * (xs[i] + ys[i] sqrt2))`` for ``(xs, ys) = pairs(cols)``.

    S's border is read entry by entry.  L's form over [s_1, ..., s_n, s_*] is
    core'_k's form, by the gluing recursion
    Q'_{j+1}(v) = Q'_j(first copy) + rho**2 Q'_j(second copy)
    + 2 <v_mid, sum_r B_r v_r> + B_mid ||v_mid||**2,
    less ||sum_r gap_k[r] s_r||**2, plus the border -c and the corner.
    Unrolled over the tree's nodes, node r of level j inside c second copies
    adds rho**(2c) (B_mid ||s_r||**2 - 2 rho**j <s_r, gap_j . first copy>
    - 2 rho <s_r, pi(j) . second copy>).  gap_j and pi(j) are taken once as
    ints over the level's denominator d_j, so the two inner products are int
    dots of that form with the products of s_r and its copies.  The ints of
    the nodes with the same (j, c) add up, and the group's three units,
    rho**(2c) (-2 rho**j) / d_j, rho**(2c) B_mid and rho**(2c) (-2 rho) / d_j,
    are applied once, in the term's one reduction.  So a trial is
    O(n k dim) integer work, O(n) int dots, and no field operation.
    """

    def __init__(self, slack: SlackMatrix, dim: int):
        k = len(slack.levels) + 1
        self.dim, units = dim, []
        # The node walk, per level: each node's first unit of the three per
        # (j, c), for its first copy, its diagonal and its second copy.  The
        # leaves have no copies; an inner level adds where each node's copies,
        # columns r - m .. r - 1 and r + 1 .. r + m for m = 2**j - 1, start and
        # end in the flat V, and gap_j and pi(j) as ints over the level's
        # denominator, each repeated per coordinate.
        self.walk = []
        for j, level, nodes in slack._nodes():
            m, first = len(level.gap), len(units)
            ps, qs, d = int_form(level.gap + level.pi)
            groups = [first + 3 * t.bit_count() for t in range(len(nodes))]
            if j:
                bounds = [range((nodes.start + at) * dim, (nodes.stop + at) * dim, nodes.step * dim)
                          for at in (-m, 0, 1, m + 1)]
                weights = [[v for v in part for _ in range(dim)]
                           for part in (ps[:m], qs[:m], ps[m:], qs[m:])]
                self.walk.append((groups, nodes, *bounds, m, weights))
            else:
                self.leaves = nodes, [g + 1 for g in groups]
            for scale in map(rho_pow, range(0, 2 * (k - j), 2)):
                units += [scale * rho_pow(j) * -2 / d, scale * level.diag, scale * RHO * -2 / d]
        self.tree_units = len(units)
        # then ||sum_r gap_k[r] s_r||**2, the border -c of L, its corner and S's border
        self.gap_form, self.c_form = int_form(slack.gap), int_form(slack.c)
        self.border = list(slack.border.items())
        for j, _ in self.border:  # V's columns are w, s_1, ..., s_n and s_*
            if not 0 <= j <= 2**k:
                raise ValueError(f"S's border reads column {j}, outside 0..{2**k}")
        self.units = units + [-ONE / self.gap_form[2] ** 2, ONE * -2 / self.c_form[2],
                              slack.corner, *(v for _, v in self.border)]

    def pairs(self, cols: list) -> tuple[list[int], list[int]]:
        """The ints (xs, ys) of one V = ``cols``, one pair per unit."""
        w, ss, s_star = cols[0], cols[1:-1], cols[-1]
        dim = self.dim
        flat = [v for s in ss for v in s]
        xs, ys = [0] * self.tree_units, [0] * self.tree_units
        for r, g in zip(*self.leaves):
            xs[g] += sum(map(mul, ss[r], ss[r]))
        for groups, nodes, los, his, los2, his2, m, (gp, gq, pp, pq) in self.walk:
            for g, r, lo, hi, lo2, hi2 in zip(groups, nodes, los, his, los2, his2):
                s = ss[r]  # <s_r, gap_j . first copy> and <s_r, pi(j) . second copy>
                tile = s * m
                first = list(map(mul, flat[lo:hi], tile))
                second = list(map(mul, flat[lo2:hi2], tile))
                xs[g] += sum(map(mul, gp, first))
                ys[g] += sum(map(mul, gq, first))
                xs[g + 1] += sum(map(mul, s, s))
                xs[g + 2] += sum(map(mul, pp, second))
                ys[g + 2] += sum(map(mul, pq, second))
        outer = norm2_ints(self.gap_form, ss)
        t = [sum(map(mul, s, s_star)) for s in ss]
        xs += [outer[0], sum(map(mul, self.c_form[0], t)), sum(map(mul, s_star, s_star))]
        ys += [outer[1], sum(map(mul, self.c_form[1], t)), 0]
        for j, _ in self.border:  # an off-diagonal entry stands for two
            g = sum(map(mul, w, cols[j]))
            xs.append(g if j == 0 else g + g)
            ys.append(0)
        return xs, ys


def _require_bundle(bundle) -> None:
    """Raise ``ValueError`` unless ``bundle`` is a ``CertificateBundle``."""
    if not isinstance(bundle, CertificateBundle):
        raise ValueError(f"bundle must be a CertificateBundle, got {type(bundle).__name__}")


def _require_free_trace(trace, n: int) -> None:
    """Raise ``ValueError`` naming the first field of ``trace`` that evaluate_identity rejects."""
    sizes = {"steps": n, "ss": n, "xs": n + 1, "gs": n + 1, "fs": n + 1, "hs": n + 1}
    fields = [(name, getattr(trace, name), size) for name, size in sizes.items()]
    x0 = trace.xs[0] if trace.xs else None
    dim = 0 if x0 is None else len(x0)  # a None or missing x_0 fails its own check first
    fields += [(f"{name}[{i}]", v, dim) for name in ("xs", "gs", "ss")
               for i, v in enumerate(getattr(trace, name) or ())] + [("s_star", trace.s_star, dim)]
    for name, values, size in fields:
        if values is None:
            raise ValueError(f"trace {name} is None")
        if len(values) != size:
            raise ValueError(f"trace {name} has {len(values)} entries, not {size}")
    if not dim:
        raise ValueError("trace xs[0] has 0 entries, not at least 1")
    if trace.x_star is None or len(trace.x_star) != dim or any(trace.x_star):
        raise ValueError(f"trace x_star must be {dim} zeros: the identity takes x_0 as x_0 - x_*")
    free = (("gs", [v for g in trace.gs for v in g]), ("ss", [v for s in trace.ss for v in s]),
            ("s_star", trace.s_star), ("fs", trace.fs), ("hs", trace.hs), ("xs[0]", x0),
            ("f_star", [trace.f_star]), ("h_star", [trace.h_star]))
    for name, values in free:
        if not set(map(type, values)) <= {int}:
            raise ValueError(f"trace {name} must hold ints, as sample_free_trace draws them")
    for i, x in enumerate(trace.xs[1:], start=1):
        if not set(map(type, x)) <= {int, Fraction, RadicalScalar}:
            raise ValueError(f"trace xs[{i}] must hold ints, Fractions or RadicalScalars")


def _bar_term(d: int, xs: list, ys: list, parts, star_b: list) -> Iterator[tuple]:
    """2d times the ``bar`` rows' part of the left side, as ``exactnum.scaled_int_dot`` parts.

    Summed over ``parts`` of (plan, bound, start, grads, values, smooth), one
    per multiplier part, whose point i is iterate ``start + i``: with int
    vectors X_i = ``xs[start + i]`` and Y_i = ``ys[start + i]`` it is
    x_i = (X_i + sqrt2 Y_i) / d, with gradient (or subgradient)
    g_i = ``grads[i]`` and value v_i = ``values[i]``, all ints.  Then
    2d co(i, j) = A + sqrt2 B with the ints
    A = 2d (v_i - v_j) - 2 <g_j, X_i - X_j> - [smooth] d ||g_i - g_j||**2 and
    B = -2 <g_j, Y_i - Y_j>.  Grouped by index, with e = [smooth] d,
    A = a_i - b_j - 2 <g_j, z_i> for a_i = 2d v_i - e ||g_i||**2,
    b_j = 2d v_j + e ||g_j||**2 - 2 <g_j, X_j> and z_i = X_i - e g_i (X_i
    itself for e = 0), and B = gy_j - 2 <g_j, Y_i> for gy_j = 2 <g_j, Y_j>.

    Each chunk of a part's plan (``_bar_rows``) becomes one part of the sum:
    its unit rho**(2 power), its weight ints over its denominator, and the
    A and B of its entries, in the weights' order.  A short row's copy at
    offset o reads entry (o + diag, o + c) for each stored column c.  A
    packed row's copy reads its points from o + lo on, each packed once per
    trial into one int P_j whose signed W-bit lanes hold (g_j, b_j, gy_j), so
    U = sum(ps[j] P_{o+lo+j}) and V = sum(qs[j] P_{o+lo+j}) are two int dots
    over the row's points, and their lanes give
    sum(ps A) = a_i sum(ps) - U_b - 2 <U_g, z_i> and
    sum(ps B) = U_gy - 2 <U_g, Y_i>, and the same in V: the ints the row's
    entries would add, which the chunk's packed copies add up in its one
    entry of weight (1, 0).  A lane of U or V is at most the part's largest
    lane value times ``bound``, the largest sum(|ps|) or sum(|qs|) of its
    packed rows, so W, set per part and trial from that product plus a sign
    and a margin bit, keeps every lane exact for any int trace.  The parts are
    made one chunk at a time, as the sum reads them, so the trial's integer
    lists stay bounded.  Each part's gy joins ``star_b``, the optimum rows'
    B, as the part begins.
    """
    for plan, bound, start, grads, values, smooth in parts:
        xs_p, y = xs[start:], ys[start:]
        e = d if smooth else 0
        norms = [e * sum(map(mul, g, g)) for g in grads] if e else [0] * len(grads)
        z = [[x - e * t for x, t in zip(xi, g)] for xi, g in zip(xs_p, grads)] if e else xs_p
        a = [2 * d * v - m for v, m in zip(values, norms)]
        b = [2 * d * v + m - 2 * sum(map(mul, g, xi))
             for v, m, g, xi in zip(values, norms, grads, xs_p)]
        gy = [2 * sum(map(mul, g, yi)) for g, yi in zip(grads, y)]
        star_b += gy
        if bound is not None:  # the part sums its long rows packed
            lanes = [*zip(*grads), b, gy]
            dim, top = len(lanes) - 2, max(max(map(abs, lane)) for lane in lanes)
            width = (top * bound).bit_length() + 2  # |lane of U or V| < 2**(width - 2)
            shifts = range(0, len(lanes) * width, width)
            points = list(lanes[0])
            for shift, lane in zip(shifts[1:], lanes[1:]):
                points = list(map(add, points, map(lshift, lane, repeat(shift))))
            half, mask = 1 << (width - 1), (1 << width) - 1
            bias = sum(half << shift for shift in shifts)
        for unit, form, short, packed in plan:
            big_a = [a[o + diag] - b[o + c] - 2 * sum(map(mul, grads[o + c], z[o + diag]))
                     for offsets, diag, cols in short for o in offsets for c in cols]
            big_b = [gy[o + c] - 2 * sum(map(mul, grads[o + c], y[o + diag]))
                     for offsets, diag, cols in short for o in offsets for c in cols]
            if packed:
                pa = pb = 0
                for offsets, diag, lo, ps, qs, sum_p, sum_q in packed:
                    for o in offsets:
                        i, got = o + diag, points[o + lo:o + lo + len(ps)]
                        u = sum(map(mul, ps, got)) + bias  # every lane biased by half: none borrows
                        v = sum(map(mul, qs, got)) + bias
                        u = [(u >> shift & mask) - half for shift in shifts]
                        v = [(v >> shift & mask) - half for shift in shifts]
                        pa += (a[i] * sum_p - u[dim] - 2 * sum(map(mul, u, z[i]))
                               + 2 * (v[dim + 1] - 2 * sum(map(mul, v, y[i]))))
                        pb += (a[i] * sum_q - v[dim] - 2 * sum(map(mul, v, z[i]))
                               + u[dim + 1] - 2 * sum(map(mul, u, y[i])))
                big_a.append(pa)
                big_b.append(pb)
            yield unit, form, big_a, big_b


def _bar_rows(bar: list) -> tuple[list, int | None]:
    """(plan, bound): the chunks in which ``_bar_term`` sums the rows of ``bar``.

    The rows are grouped by (power, d), d the denominator of the stored
    row's integer form, and each group is cut into chunks, each closed once
    it holds ``BAR_CHUNK`` entries.  A chunk is (rho**(2 power), weights,
    short, packed), weights the int form (ps, qs, d) of its entries in order.
    A short block (offsets, diag, cols) is one stored row's copies in the
    chunk, row o + diag at offset o for each o of offsets, and adds its ps
    and qs to the weights once per copy.  A long row, of at least
    ``PACK_ROW`` entries, is summed packed if the part's long rows hold at
    least ``PACK_EXCESS`` entries beyond ``PACK_ROW`` per row of ``bar`` (mu
    from k=6, lambda from k=7): its block (offsets, diag, lo, ps, qs,
    sum(ps), sum(qs)) holds its form made dense over the columns lo, lo + 1,
    ... (a stored row's columns are contiguous but for at most one), and a
    chunk's packed copies share its last entry, of weight ints (1, 0).
    ``bound`` is the largest sum(|ps|) or sum(|qs|) of the packed rows,
    None if none packs.  So the plan holds O(triples + stored entries)
    ints.  The rule follows the two paths' costs (2-core x86 host,
    Python 3.11, at dim 1 and 4): an entry costs about 0.5-0.65 us on the
    per-entry path, a packed row 3-4 us plus 0.15 us an entry, so a row
    pays from about 8 entries, and packing a part's points costs
    0.16-0.4 us a point per trial; timed part by part at k=4..7, packing paid
    above ``PACK_EXCESS`` and was even or slower below it.
    """
    excess = sum(len(row) - PACK_ROW for row, _, _ in bar if len(row) >= PACK_ROW)
    packs = excess >= PACK_EXCESS * len(bar)
    forms, groups, bound = {}, {}, 0 if packs else None
    for i, (row, power, offset) in enumerate(bar):
        if not row:
            continue
        if id(row) not in forms:  # (d, weights per copy, the block's fields after diag)
            ps, qs, d = int_form(row.values())
            if packs and len(row) >= PACK_ROW:
                lo, span = min(row.keys()), max(row.keys()) + 1
                dense_p, dense_q = [0] * (span - lo), [0] * (span - lo)
                for j, p, q in zip(row.keys(), ps, qs):
                    dense_p[j - lo], dense_q[j - lo] = p, q
                forms[id(row)] = d, None, (lo, dense_p, dense_q, sum(ps), sum(qs))
                bound = max(bound, sum(map(abs, ps)), sum(map(abs, qs)))
            else:
                forms[id(row)] = d, (ps, qs), (list(row.keys()),)
        d = forms[id(row)][0]
        groups.setdefault((power, d), {}).setdefault((id(row), i - offset), []).append(offset)
    plan = []
    for (power, d), blocks in groups.items():
        size = BAR_CHUNK
        for (key, diag), offsets in blocks.items():
            _, weights, fields = forms[key]
            block = None
            for offset in offsets:
                if size >= BAR_CHUNK:  # a new chunk
                    wp, wq, short, packed = [], [], [], []
                    plan.append((rho_pow(2 * power), (wp, wq, d), short, packed))
                    size, block = 0, None
                if block is None:
                    block = []
                    (short if weights else packed).append((block, diag, *fields))
                block.append(offset)
                if weights:
                    wp += weights[0]
                    wq += weights[1]
                    size += len(weights[0])
                else:
                    size += 1
    for _, (wp, wq, _), _, packed in plan:  # the packed copies' one entry, last
        if packed:
            wp.append(1)
            wq.append(0)
    return plan, bound


class _PreparedIdentity:
    """Both sides of one bundle's descent identity, for traces of dimension ``dim``.

    What depends only on the bundle is prepared once, at construction, in
    integer form (``exactnum.int_form``): each part's plan of its ``bar``
    rows (``_bar_rows``: each distinct stored row over its own denominator,
    dense for a packed row, the rows cut into chunks of one rho**2 power
    whose weight ints are concatenated once), the optimum rows, pi (the
    steps), u's coefficients, the slack tree's levels with its node walk
    (``_SlackForm``), and one form of every unit of the right side, which
    holds O(k**2) units: 2 rho**k - 1, rho/(2 sqrt2), u's, and three per
    level and copy count of the tree's nodes.  So is the solver ``Trace``
    through which the optimum rows are read.

    ``trial`` draws the free ints as ``sample_free_trace`` draws them
    (``_draw``) and steps the iterates on pi's integer form
    pi_t = (P_t + sqrt2 Q_t) / d: X_0 = d x_0, Y_0 = 0,
    X_{t+1} = X_t - P_t u_t and Y_{t+1} = Y_t - Q_t u_t for
    u_t = g_t + s_{t+1}, so it builds no field value per iterate and does not
    check the trace it draws itself.  ``sides`` puts a given trace's
    iterates in the same form instead, without checking it
    (``evaluate_identity`` checks).  ``_sides`` then does only the trace's
    own integer work, each side one sum of ints against the prepared forms,
    reduced once: the left side is one ``scaled_int_dot`` over the ``bar``
    chunks (``_bar_term``) and the optimum rows (``_optimum_rows``), divided
    by 2d, and the right side one ``scaled_int_dot`` part over the gap term
    f_* + h_* - f_n - h_n, ||w||**2, ||u||**2 and the slack term's ints
    (``_SlackForm.pairs``, O(n k dim) integer work).  A trial makes no other
    field operation, and its integer lists beyond the trace's own stay
    within a chunk of ``BAR_CHUNK`` entries.
    """

    def __init__(self, bundle: CertificateBundle, dim: int):
        if bundle._shape:
            raise ValueError(bundle._shape)
        self.bundle, self.dim = bundle, dim
        self.bar_rows = [_bar_rows(bundle.lam.bar), _bar_rows(bundle.mu.bar)]
        self.star_form = int_form(bundle.lam.star_row + bundle.mu.star_row)
        self.step_form = int_form(bundle.pi)
        uc = bundle.u_coeffs
        self.u_form = int_form((uc.init, *uc.g, *uc.s, uc.s_star))
        self.slack = _SlackForm(bundle.slack, dim)
        # (2 rho**k - 1)(F_* - F_n) + rho/(2 sqrt2) ||w||**2 - ||u||**2 / 2 - Tr(V S V^T) / 2
        self.form = int_form([rho_pow(bundle.k) * 2 - ONE, RHO_OVER_2SQRT2,
                              -ONE / (2 * self.u_form[2] ** 2),
                              *(v / -2 for v in self.slack.units)])
        # the optimum rows' view of a trace; its steps only set its n
        self.view = Trace(steps=bundle.pi, xs=[], gs=[], fs=[], hs=[], Fs=[], ss=[],
                          x_star=[0] * dim)

    def trial(self, rng: random.Random) -> tuple[RadicalScalar, RadicalScalar]:
        """(lhs, rhs) on the free ints drawn from ``rng`` as ``sample_free_trace`` draws them.

        With pi_t = (P_t + sqrt2 Q_t) / d, the iterates are x_t = (X_t + sqrt2 Y_t) / d
        for X_0 = d x_0, Y_0 = 0, X_{t+1} = X_t - P_t u_t and Y_{t+1} = Y_t - Q_t u_t,
        u_t = g_t + s_{t+1}: the trace ``sample_free_trace`` builds, on ints.
        """
        free = _draw(self.bundle.n, self.dim, rng)
        gs, ss, *_, w = free
        big_p, big_q, d = self.step_form
        xs, ys = [[d * v for v in w]], [[0] * self.dim]
        for p, q, g, s in zip(big_p, big_q, gs, ss):
            u = list(map(add, g, s))
            xs.append([x - p * v for x, v in zip(xs[-1], u)])
            ys.append([y - q * v for y, v in zip(ys[-1], u)])
        return self._sides(d, xs, ys, free)

    def sides(self, trace) -> tuple[RadicalScalar, RadicalScalar]:
        """(lhs, rhs) on ``trace``, which must fit the bundle as ``evaluate_identity`` says."""
        n, dim = self.bundle.n, len(trace.xs[0])
        # x_0's int coordinates enter as ONE * v, without RadicalScalar's Fraction-based constructor
        coords = [v if isinstance(v, RadicalScalar) else ONE * v for x in trace.xs for v in x]
        ps, qs, d = int_form(coords)
        xs = [ps[t * dim:(t + 1) * dim] for t in range(n + 1)]
        ys = [qs[t * dim:(t + 1) * dim] for t in range(n + 1)]
        return self._sides(d, xs, ys, (trace.gs, trace.ss, trace.s_star, trace.fs, trace.hs,
                                       trace.f_star, trace.h_star, trace.xs[0]))

    def _sides(self, d: int, xs: list, ys: list, free) -> tuple[RadicalScalar, RadicalScalar]:
        """(lhs, rhs) on the iterates (X_i + sqrt2 Y_i) / d and ``free``, in ``_draw``'s order."""
        gs, ss, s_star, fs, hs, f_star, h_star, w = free
        n = self.bundle.n
        (lam_plan, lam_bound), (mu_plan, mu_bound) = self.bar_rows
        star_b = []
        bar = _bar_term(d, xs, ys, [(lam_plan, lam_bound, 0, gs, fs, True),
                                    (mu_plan, mu_bound, 1, ss, hs[1:], False)], star_b)
        lhs = scaled_int_dot(chain(bar, self._optimum_rows(d, xs, free, star_b))) / (2 * d)

        # w = x_0 - x_*, since the optimum is at the origin; F_* - F_n on the
        # free values, as the left side reads them
        u = norm2_ints(self.u_form, [w, *gs, *ss, s_star])
        slack_xs, slack_ys = self.slack.pairs([w] + ss + [s_star])
        gap = f_star + h_star - fs[n] - hs[n]
        return lhs, scaled_int_dot([(ONE, self.form, [gap, sum(map(mul, w, w)), u[0]] + slack_xs,
                                     [0, 0, u[1]] + slack_ys)])

    def _optimum_rows(self, d: int, xs: list, free, star_b: list) -> Iterator[tuple]:
        """The optimum rows' ``scaled_int_dot`` part, made once the ``bar`` rows are summed.

        They are the solver's own co-coercivities, in the split ``_bar_term``
        makes (x_* = 0): 2d co(*, j) = A + sqrt2 B, where A is 2d times the
        co-coercivity on the view whose iterates are the rational parts X_i / d,
        and B, the point's gy, is in ``star_b``.  That co-coercivity's
        denominator divides 2d, so A is read off its numerator.  The view
        holds the trace only while they are read.
        """
        n, view = self.bundle.n, self.view
        view.xs = xs if d == 1 else [[Fraction(x, d) for x in xi] for xi in xs]
        view.gs, view.ss, view.s_star, view.fs, view.hs, view.f_star, view.h_star = free[:7]
        star = ([cocoercivity_f(view, "*", j) for j in range(n + 1)]
                + [cocoercivity_h(view, "*", j) for j in range(1, n + 1)])
        star_a = [(2 * d // co.denominator) * co.numerator for co in star]
        view.xs = view.gs = view.ss = None
        yield ONE, self.star_form, star_a, star_b


def evaluate_identity(bundle: CertificateBundle, trace) -> tuple[RadicalScalar, RadicalScalar]:
    """Evaluate both sides of the descent identity on one trace, exactly.

    The left side weights the trace's co-coercivities with the bundle's
    multipliers; the right side combines the objective gap, the initial
    distance, and the sum of squares built from u and the slack matrix S.
    The trace must fit the bundle (n ``steps`` and ``ss``, n + 1 ``xs``, ``gs``, ``fs``, ``hs``,
    each vector as long as x_0), put the optimum ``x_star`` at the origin and hold ints in
    ``gs``, ``ss``, ``s_star``, ``fs``, ``hs``, ``f_star``, ``h_star`` and x_0, as
    ``sample_free_trace`` draws them, and ints, ``Fraction``s or ``RadicalScalar``s in
    the later iterates; a field that does not, or is None, raises ``ValueError``, as
    does a ``bundle`` that is not a ``CertificateBundle``.
    ``Fs`` and ``F_star`` are not read: the gap term is f_* + h_* - f_n - h_n.

    Both sides are summed as ``_PreparedIdentity`` describes, prepared for
    this one trace.
    """
    _require_bundle(bundle)
    _require_free_trace(trace, bundle.n)
    return _PreparedIdentity(bundle, len(trace.xs[0])).sides(trace)


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
    which is expected to make trials fail.  A ``bundle`` that is not a
    ``CertificateBundle`` or is of another order than ``k``, a ``trials``,
    ``dim`` or ``seed`` that is a bool or not an int (an int subclass such as
    an ``IntEnum`` is one, as for ``_require_int``) and a negative ``seed``
    (``random.Random`` would draw the trials of ``-seed``) raise ``ValueError``.
    The bundle's side of the identity is prepared once for all trials
    (``_PreparedIdentity``), and the traces it draws, as ``sample_free_trace``
    draws them, are not checked again.
    """
    if (any(isinstance(v, bool) or not isinstance(v, int) for v in (trials, dim, seed))
            or min(trials, dim) < 1 or seed < 0):
        raise ValueError(f"need int trials, dim >= 1 and seed >= 0, got {trials}, {dim}, {seed}")
    if bundle is None:
        bundle = build_bundle(k)
    _require_bundle(bundle)
    if bundle.k != k:
        raise ValueError(f"bundle has order {bundle.k}, not k={k}")
    rng = random.Random(seed)
    identity = _PreparedIdentity(bundle, dim)
    residuals = []
    for _ in range(trials):
        lhs, rhs = identity.trial(rng)
        residuals.append(lhs - rhs)
    failures = tuple(t for t, r in enumerate(residuals) if r)
    first = residuals[failures[0]].exact_str() if failures else ""
    return IdentityReport(k=k, trials=trials, dim=dim, failures=failures, first_residual=first)
