"""The Smith normal form and exponent matrix that the unit-pivot Smith
form and the one-pass exponent matrix replaced, kept verbatim as
differential oracles for :func:`npicheck.homology.smith_normal_form` and
:func:`npicheck.homology.exponent_matrix`.

The oracle searches the whole block for the least pivot and scans it for
divisibility after every pivot, a unit included; the new form must give
the same U, D and V.
"""

from __future__ import annotations

from npicheck.homology import SmithForm
from npicheck.words import Presentation, exponent_sum


def exponent_matrix_oracle(pres: Presentation) -> list[list[int]]:
    """k x n matrix with entry[i][j] = exponent sum of generator j in relator i."""
    n = len(pres.generators)
    return [[exponent_sum(r, j) for j in range(n)] for r in pres.relators]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _min_abs_nonzero(d: list[list[int]], t: int) -> tuple[int, int] | None:
    best = None
    best_val = None
    for i in range(t, len(d)):
        for j in range(t, len(d[0])):
            v = abs(d[i][j])
            if v and (best_val is None or v < best_val):
                best, best_val = (i, j), v
    return best


def smith_normal_form_oracle(matrix: list[list[int]], ncols: int = 0) -> SmithForm:
    """Smith normal form by exact Euclidean pivoting.

    Row operations accumulate into U (left factor), column operations into
    V; the invariant ``U @ M @ V == current`` holds throughout, so the
    result satisfies U @ M @ V = D with |det U| = |det V| = 1.  ``ncols``
    is the column count of a matrix with no rows and is otherwise ignored.
    """
    k = len(matrix)
    n = len(matrix[0]) if matrix else ncols
    if any(len(row) != n for row in matrix):
        raise ValueError("rows of unequal length")
    m_in = [[int(x) for x in row] for row in matrix]
    d = [row[:] for row in m_in]
    u = _identity(k)
    v = _identity(n)

    def swap_rows(a, i, j):
        a[i], a[j] = a[j], a[i]

    def swap_cols(a, i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]

    def row_axpy(a, i, src, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[src])]

    def col_axpy(a, j, src, c):
        for row in a:
            row[j] = row[j] + c * row[src]

    t = 0
    while t < min(k, n):
        piv = _min_abs_nonzero(d, t)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            if i0 != t:
                swap_rows(d, t, i0)
                swap_rows(u, t, i0)
            if j0 != t:
                swap_cols(d, t, j0)
                swap_cols(v, t, j0)
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                u[t] = [-x for x in u[t]]
            pivot = d[t][t]
            dirty = False
            for i in range(t + 1, k):
                if d[i][t]:
                    q = d[i][t] // pivot
                    if q:
                        row_axpy(d, i, t, -q)
                        row_axpy(u, i, t, -q)
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // pivot
                    if q:
                        col_axpy(d, j, t, -q)
                        col_axpy(v, j, t, -q)
                    if d[t][j]:
                        dirty = True
            if dirty:
                piv = _min_abs_nonzero(d, t)
                continue
            bad = None
            for i in range(t + 1, k):
                for j in range(t + 1, n):
                    if d[i][j] % pivot:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            # Pull a non-divisible row into the pivot row and restart the step.
            row_axpy(d, t, bad, 1)
            row_axpy(u, t, bad, 1)
            piv = _min_abs_nonzero(d, t)
        t += 1

    return SmithForm(matrix=m_in, left=u, diag=d, right=v)
