"""Test helpers for the certificate's sparse-row matrices.

The certificate stores each matrix as one dict per row, from column to
nonzero value, with ascending keys.  L is stored as its upper triangle and
S as L plus one border row.  ``symmetric`` and ``bordered`` rebuild the full
L and S from that storage, as an oracle independent of the checks;
``dense`` turns rows into a square list of lists for whole-matrix reads;
``with_entries`` builds an edited copy that keeps the storage invariants,
for negative controls.
"""

from silverprox.exactnum import ZERO


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
    """Full rows of the symmetric matrix whose upper triangle ``rows`` stores."""
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
