"""The Smith normal form and exponent matrix that the unit-pivot Smith
form and the one-pass exponent matrix replaced, kept verbatim as
differential oracles for :func:`npicheck.homology.smith_normal_form` and
:func:`npicheck.homology.exponent_matrix`, and the Gram-system solve that
the carried all-ones coordinates replaced, kept as the oracle of
``homology._all_ones_coordinates``.

The oracle searches the whole block for the least pivot and scans it for
divisibility after every pivot, a unit included.  It keeps the left
factor U, which the package no longer builds, so that
:meth:`FullSmithForm.check` can assert U @ M @ V = D exactly; the new
form must give the same D and V, and then U @ M @ V = D holds for it too.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from npicheck.words import Presentation, exponent_sum


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact integer matrix product."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("shape mismatch")
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def integer_det(matrix: list[list[int]]) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    n = len(matrix)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in matrix]
    sign = 1
    prev = 1
    for t in range(n - 1):
        if a[t][t] == 0:
            for i in range(t + 1, n):
                if a[i][t]:
                    a[t], a[i] = a[i], a[t]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
            a[i][t] = 0
        prev = a[t][t]
    return sign * a[n - 1][n - 1]


class FullSmithForm(NamedTuple):
    """U @ M @ V = D with U, V unimodular and D a nonneg divisibility chain."""

    matrix: list[list[int]]
    left: list[list[int]]   # U, k x k
    diag: list[list[int]]   # D, k x n
    right: list[list[int]]  # V, n x n

    def diagonal(self) -> list[int]:
        return [self.diag[i][i] for i in range(min(len(self.left), len(self.right)))]

    def check(self) -> None:
        """Assert the defining invariants exactly."""
        k, n = len(self.left), len(self.right)
        prod = mat_mul(mat_mul(self.left, self.matrix), self.right)
        if prod != self.diag:
            raise AssertionError("U @ M @ V != D")
        if abs(integer_det(self.left)) != 1 or abs(integer_det(self.right)) != 1:
            raise AssertionError("transform matrices are not unimodular")
        diag = self.diagonal()
        for i in range(k):
            for j in range(n):
                if i != j and self.diag[i][j] != 0:
                    raise AssertionError("off-diagonal entry in D")
        for i, d in enumerate(diag):
            if d < 0:
                raise AssertionError("negative diagonal entry")
            if i + 1 < len(diag) and d != 0 and diag[i + 1] % d != 0:
                raise AssertionError("divisibility chain broken")
            if d == 0 and i + 1 < len(diag) and diag[i + 1] != 0:
                raise AssertionError("zero before nonzero on the diagonal")


def all_ones_coordinates_oracle(mat: list[list[int]], basis: list[tuple[int, ...]]):
    """Integer coordinates of the all-ones vector in the kernel basis, or
    None when M * 1 != 0.

    The basis is a lattice basis of ker M (columns of a unimodular V), so
    the coordinates exist, are unique and are integers.  They solve the
    Gram system (B^T B) c = B^T 1, here by Cramer's rule.
    """
    if any(sum(row) for row in mat):
        return None
    gram = [[sum(map(operator.mul, a, b)) for b in basis] for a in basis]
    rhs = [sum(b) for b in basis]
    det = integer_det(gram)
    coords = []
    for i in range(len(basis)):
        num = integer_det([row[:i] + [r] + row[i + 1:] for row, r in zip(gram, rhs)])
        assert num % det == 0, "all-ones has no integer kernel coordinates"
        coords.append(num // det)
    assert all(
        sum(c * b[j] for c, b in zip(coords, basis)) == 1 for j in range(len(basis[0]))
    ), "kernel coordinates of all-ones do not replay"
    return coords


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


def smith_normal_form_oracle(matrix: list[list[int]], ncols: int = 0) -> FullSmithForm:
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

    return FullSmithForm(matrix=m_in, left=u, diag=d, right=v)
