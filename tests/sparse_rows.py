"""Test helpers for the certificate's sparse-row matrices.

The certificate stores each matrix as one dict per row, from column to
nonzero value, with ascending keys.  ``dense`` turns such rows back into a
square list of lists for whole-matrix reads; ``with_entries`` builds an
edited copy that keeps the storage invariants, for negative controls.
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
