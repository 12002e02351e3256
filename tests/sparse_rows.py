"""Test helpers for the certificate's sparse-row matrices.

The certificate stores each multiplier row as a triple (stored row, power,
offset) over a dict from column to nonzero value with ascending keys, and
the slack matrix as its gluing tree, whose ``lap`` generates L's
upper-triangle rows.  ``rows`` reads the triples back as plain rows and
``as_bar`` turns plain rows into triples.  ``symmetric`` and ``bordered``
rebuild the full L and S from L's rows, and ``laplacian_violation`` scans
them entry by entry: an oracle independent of the checks, which prove the
same structure by induction over the tree.  ``dense`` turns plain rows into
a square list of lists for whole-matrix reads; ``with_entries`` builds an
edited copy of plain rows that keeps the storage invariants, for negative
controls.  ``slack_term`` reads the identity's slack term off the tree, as a
trial sums it.  ``free_trace`` draws a trial's free ints as a solver
``Trace``, and ``identity_sides`` sums both sides of the identity on any
such trace, as a trial sums them.
"""

from silverprox.certificate import _draw, _SlackForm
from silverprox.exactnum import (ONE, SQRT2, ZERO, RadicalScalar, int_form, rho_pow,
                                 scaled_int_dot)
from silverprox.solver import Trace


def rows(bar):
    """Each (stored row, power, offset) of ``bar`` as the {column: value} dict it reads as."""
    return [{offset + j: rho_pow(2 * power) * v for j, v in row.items()}
            for row, power, offset in bar]


def as_bar(plain):
    """Plain rows as ``bar`` triples, each (row, 0, 0)."""
    return [(row, 0, 0) for row in plain]


def dense(rows):
    """The square matrix held by ``rows``, unstored entries as ZERO."""
    return [[row.get(j, ZERO) for j in range(len(rows))] for row in rows]


def with_entries(rows, entries):
    """Copy of ``rows`` with each ``(i, j): value`` of ``entries`` set.

    A zero value drops the entry, and edited rows keep ascending keys.
    """
    out = [dict(row) for row in rows]
    for (i, j), value in entries.items():
        out[i][j] = value
    for i in {i for i, _ in entries}:
        out[i] = {j: v for j, v in sorted(out[i].items()) if v}
    return out


def symmetric(rows):
    """Full rows of the symmetric matrix whose upper triangle ``rows`` holds."""
    rows = list(rows)
    out = [dict(row) for row in rows]
    for r, row in enumerate(rows):
        for s, v in row.items():
            out[s][r] = v
    return [dict(sorted(row.items())) for row in out]


def bordered(slack):
    """Full rows of S: ``slack.border`` as first row and column around the full L."""
    border = slack.border
    return [dict(border)] + [
        ({0: border[r]} if r in border else {}) | {1 + s: v for s, v in row.items()}
        for r, row in enumerate(symmetric(slack.lap), start=1)]


def schur_rows(slack):
    """Upper triangle of S's Schur complement L - sqrt2 v v^T, v = -e_0 + e_n."""
    lap = list(slack.lap)
    n = len(lap) - 1
    return with_entries(lap, {(0, 0): lap[0].get(0, ZERO) - SQRT2,
                              (n, n): lap[n].get(n, ZERO) - SQRT2,
                              (0, n): lap[0].get(n, ZERO) + SQRT2})


def laplacian_violation(rows):
    """First misplaced or positive off-diagonal entry or nonzero row sum of an upper triangle.

    Each stored off-diagonal entry joins the sums of its row and its column;
    row r's sum is whole once row r has been read.  Returns "" for a
    Laplacian.
    """
    rows = list(rows)
    sums = [ZERO] * len(rows)
    for r, row in enumerate(rows):
        total = sums[r]
        for s, v in row.items():
            if s != r:
                if not r < s < len(rows):
                    return f"entry [{r}][{s}] = {v} is outside the upper triangle"
                if v.sign() > 0:
                    return f"off-diagonal [{r}][{s}] = {v} > 0"
                sums[s] = sums[s] + v
            total = total + v
        if total:
            return f"row {r} sums to {total}, not 0"
    return ""


def slack_term(slack, cols):
    """Tr(V S V^T) for V = cols = [w, s_1, ..., s_n, s_*], int columns, summed by ``_SlackForm``."""
    form = _SlackForm(slack, len(cols[0]))
    return scaled_int_dot([(int_form(form.units), *form.pairs(cols))])


def free_trace(pi, dim, rng):
    """The free ints ``_draw`` draws from ``rng`` as a trace of steps ``pi``, x_* at the origin.

    x_0 = w, and the later iterates follow x_{t+1} = x_t - pi_t (g_t + s_{t+1}).
    """
    gs, ss, s_star, fs, hs, f_star, h_star, w = _draw(len(pi), dim, rng)
    xs = [w]
    for a, g, s in zip(pi, gs, ss):
        xs.append([x - a * (gv + sv) for x, gv, sv in zip(xs[-1], g, s)])
    return Trace(steps=list(pi), xs=xs, gs=gs, ss=ss, fs=fs, hs=hs,
                 Fs=[fv + hv for fv, hv in zip(fs, hs)], x_star=[ZERO] * dim, s_star=s_star,
                 f_star=f_star, h_star=h_star, F_star=f_star + h_star)


def identity_sides(identity, trace):
    """(lhs, rhs) of the prepared ``identity`` on ``trace``, unchecked: a ``free_trace``'s shape.

    The iterates go into ``_sides``' integer form; the other fields must hold ints.
    """
    n, dim = identity.bundle.n, len(trace.xs[0])
    coords = [v if isinstance(v, RadicalScalar) else ONE * v for x in trace.xs for v in x]
    ps, qs, d = int_form(coords)
    xs = [ps[t * dim:(t + 1) * dim] for t in range(n + 1)]
    ys = [qs[t * dim:(t + 1) * dim] for t in range(n + 1)]
    return identity._sides(d, xs, ys, (trace.gs, trace.ss, trace.s_star, trace.fs, trace.hs,
                                       trace.f_star, trace.h_star, trace.xs[0]))
