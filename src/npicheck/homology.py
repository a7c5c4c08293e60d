"""Exact integer linear algebra for first-homology checks and weight maps.

All matrices are lists of rows of Python ints, so intermediate Smith-form
entries can grow without overflow.  Fixed-width arithmetic is deliberately
avoided: a silent wraparound here would corrupt a verdict.  A matrix with
no rows does not know its column count; the functions that may receive
one take the count as an argument.

A generator that no relator mentions (a *free* generator) adds a circle
by a wedge: X = X' v S^1, where X' has the other generators and the same
relators.  It adds 1 to both the generator count and the H1 rank, so the
H1 hypothesis holds for X exactly when it holds for X'.  No prefix of any
relator reads its weight, so every multiset, and so every certificate
and stuck core, depends only on a map's projection to the generators
the relators use.  Those projections are the kernel lattice of the
*relator part*, the exponent matrix without the free columns (which are
zero).  So :func:`h1_structure` takes the one Smith form of the relator
part and adds the free generators to the free rank, and the weight
search walks the coefficient box of the relator part alone, giving each
free generator weight 1, which makes every map onto Z.  An input without
a free generator has the same matrix as before, so the same maps in the
same order.

The *zero projection*, a map that is zero on every relator letter and
nonzero only on free generators, is never tried.  Under it every prefix
is an extremum, so each multiset counts every letter.  The paper's
abstract does not settle whether Thm 3.4 admits such a map, so skipping
it is the conservative choice.  It is also what makes the status,
citation and attempts of a report invariant under X -> X v S^1.  An
input whose relator part has no nonzero weight map, such as
<a, b | a>, is therefore a ``weights-surjective`` failure, as its X'
<a | a> is an H1 failure.  A presentation with no relator letter at all
(a free group) has no multiset to count letters in; its one map is
all-ones, so it certifies as before, and only the point X' = < | >, an
H1 failure, breaks the invariance.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from typing import NamedTuple

from .words import Presentation


class NoSurjection(ValueError):
    """No primitive integer weight vector exists in the search box."""


def exponent_matrix(pres: Presentation) -> list[list[int]]:
    """k x n matrix with entry[i][j] = exponent sum of generator j in relator i.

    Each relator is read once.  A letter outside the generator list counts
    for no generator, as in :func:`words.exponent_sum`.
    """
    n = len(pres.generators)
    rows = []
    for rel in pres.relators:
        row = [0] * n
        for x in rel:
            if 0 < x <= n:
                row[x - 1] += 1
            elif 0 < -x <= n:
                row[-x - 1] -= 1
        rows.append(row)
    return rows


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Exact integer matrix product."""
    if any(len(row) != len(b) for row in a):
        raise ValueError("shape mismatch")
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _identity(n: int) -> list[list[int]]:
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _min_abs_nonzero(d: list[list[int]], t: int) -> tuple[int, int] | None:
    """The first entry of least nonzero absolute value in the block
    d[t:, t:], row by row, or None when the block is zero.  No entry is
    less than a unit, so the search stops at the first one."""
    best = None
    best_val = 0
    for i in range(t, len(d)):
        for j, v in enumerate(d[i][t:], t):
            if v:
                v = abs(v)
                if v == 1:
                    return i, j
                if not best_val or v < best_val:
                    best, best_val = (i, j), v
    return best


class SmithForm(NamedTuple):
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


def smith_normal_form(matrix: list[list[int]], ncols: int = 0) -> SmithForm:
    """Smith normal form by exact Euclidean pivoting.

    Row operations accumulate into U (left factor), column operations into
    V; the invariant ``U @ M @ V == current`` holds throughout, so the
    result satisfies U @ M @ V = D with |det U| = |det V| = 1.  ``ncols``
    is the column count of a matrix with no rows and is otherwise ignored.

    Each step takes as pivot the first entry of least absolute value.  A
    unit pivot divides everything: it clears its row and column in one
    sweep, and no divisibility scan is needed after it.
    """
    k = len(matrix)
    n = len(matrix[0]) if matrix else ncols
    if any(len(row) != n for row in matrix):
        raise ValueError("rows of unequal length")
    m_in = [[int(x) for x in row] for row in matrix]
    d = [row[:] for row in m_in]
    u = _identity(k)
    v = _identity(n)

    t = 0
    while t < min(k, n):
        piv = _min_abs_nonzero(d, t)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            if i0 != t:
                d[t], d[i0] = d[i0], d[t]
                u[t], u[i0] = u[i0], u[t]
            if j0 != t:
                for row in d:
                    row[t], row[j0] = row[j0], row[t]
                for row in v:
                    row[t], row[j0] = row[j0], row[t]
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
                u[t] = [-x for x in u[t]]
            pivot = d[t][t]
            dt, ut = d[t], u[t]
            dirty = False
            for i in range(t + 1, k):
                if d[i][t]:
                    q = d[i][t] // pivot
                    if q:
                        d[i] = [x - q * y for x, y in zip(d[i], dt)]
                        u[i] = [x - q * y for x, y in zip(u[i], ut)]
                    if d[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if dt[j]:
                    q = dt[j] // pivot
                    if q:
                        for row in d:
                            row[j] -= q * row[t]
                        for row in v:
                            row[j] -= q * row[t]
                    if dt[j]:
                        dirty = True
            if dirty:
                piv = _min_abs_nonzero(d, t)
                continue
            if pivot == 1:
                break
            bad = next(
                (i for i in range(t + 1, k) if any(x % pivot for x in d[i][t + 1:])), None
            )
            if bad is None:
                break
            # Pull a non-divisible row into the pivot row and restart the step.
            d[t] = [x + y for x, y in zip(d[t], d[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
            piv = _min_abs_nonzero(d, t)
        t += 1

    return SmithForm(matrix=m_in, left=u, diag=d, right=v)


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


class H1Structure(NamedTuple):
    """Free rank and invariant factors of the abelianized group.

    ``smith`` is the Smith form of the relator part they were read from
    (the exponent matrix without the columns of ``free``, the 0-based
    generators no relator mentions), kept so that the weight search reads
    its kernel basis from the same form.  Neither takes part in
    comparisons or hashing.
    """

    free_rank: int
    torsion: tuple[int, ...]
    smith: SmithForm
    free: tuple[int, ...]

    def __eq__(self, other):
        return isinstance(other, H1Structure) and self[:2] == other[:2]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:2])


def h1_structure(pres: Presentation) -> H1Structure:
    """H1 from the Smith form of the relator part; each free generator
    adds 1 to the free rank (see the module docstring)."""
    n = len(pres.generators)
    mat = exponent_matrix(pres)
    mentioned = {abs(x) for rel in pres.relators for x in rel}
    free = tuple(j for j in range(n) if j + 1 not in mentioned)
    if free:
        used = [j for j in range(n) if j + 1 in mentioned]
        mat = [[row[j] for j in used] for row in mat]
    snf = smith_normal_form(mat, n - len(free))
    diag = [x for x in snf.diagonal() if x != 0]
    return H1Structure(n - len(diag), tuple(x for x in diag if x > 1), snf, free)


class WirtingerCheck(NamedTuple):
    ok: bool
    reason: str
    h1: H1Structure


def is_generalized_wirtinger(pres: Presentation) -> WirtingerCheck:
    """H1 free abelian of rank n - k with n - k >= 1."""
    h1 = h1_structure(pres)
    n, k = len(pres.generators), len(pres.relators)
    if h1.torsion:
        return WirtingerCheck(False, f"torsion {list(h1.torsion)} in H1", h1)
    if h1.free_rank != n - k:
        return WirtingerCheck(
            False, f"H1 rank {h1.free_rank} != n - k = {n - k}", h1
        )
    if n - k < 1:
        return WirtingerCheck(False, "n - k < 1, H1 would be trivial", h1)
    return WirtingerCheck(True, f"H1 free abelian of rank {h1.free_rank}", h1)


def _kernel_basis(snf: SmithForm) -> list[tuple[int, ...]]:
    """The columns of V whose diagonal entry in D is zero."""
    k, n = len(snf.left), len(snf.right)
    basis = []
    for j in range(n):
        d_j = snf.diag[j][j] if j < k else 0
        if d_j == 0:
            basis.append(tuple(snf.right[i][j] for i in range(n)))
    return basis


class WeightHom(NamedTuple):
    """Primitive integer weight vector."""

    weights: tuple[int, ...]


def _canonical_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return vec


def _weight_stream(h1: H1Structure, coeff_bound: int = 3) -> Iterator[WeightHom]:
    """The primitive weight vectors of the relator part's search box,
    each with weight 1 on every free generator, built only as far as the
    caller reads (see the module docstring).

    Combinations of the relator part's kernel basis with coefficients in
    [-coeff_bound, coeff_bound] are divided by their gcd and deduplicated
    up to global sign; the all-ones vector, when present, comes first and
    the rest follow in lexicographic order.  The zero projection is not
    among them.

    At the call only the kernel basis is read, and NoSurjection is raised
    exactly when it is empty.  A nonempty basis always gives a map, since
    its vectors are nonzero and independent.  The box is built only when a
    map past all-ones is asked for, or the first map when the box does not
    hold all-ones; so a report that certifies on the all-ones map never
    builds it.
    """
    if not h1.smith.right and h1.free:
        # No relator letter at all: there is no multiset to count letters
        # in, and the one map is all-ones.
        return iter([WeightHom((1,) * len(h1.free))])
    basis = _kernel_basis(h1.smith)
    if not basis:
        raise NoSurjection("no primitive kernel vector in the search box")
    maps = _weight_maps(h1.smith.matrix, basis, coeff_bound)
    return _with_free_weights(maps, h1.free) if h1.free else maps


def _with_free_weights(maps: Iterator[WeightHom], free: tuple[int, ...]) -> Iterator[WeightHom]:
    """Each map of the relator part with weight 1 inserted at every free
    generator (0-based, ascending).  Kept private like :func:`_weight_maps`."""
    for hom in maps:
        weights = list(hom.weights)
        for j in free:
            weights.insert(j, 1)
        yield WeightHom(tuple(weights))


def _all_ones_coordinates(mat: list[list[int]], basis: list[tuple[int, ...]]):
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


def _weight_hom(mat: list[list[int]], vec: tuple[int, ...]) -> WeightHom:
    for row in mat:
        assert not sum(map(operator.mul, row, vec))
    assert math.gcd(*vec) == 1
    return WeightHom(vec)


def _weight_maps(
    mat: list[list[int]], basis: list[tuple[int, ...]], coeff_bound: int
) -> Iterator[WeightHom]:
    """All-ones first when the box holds it, then the rest of the box.

    The box holds all-ones exactly when its kernel coordinates c are all
    within the bound: a combination of the basis is a multiple g * 1
    (g != 0) only for the coefficients g * c.

    Only half of the box is walked: the coefficient vectors whose first
    nonzero entry is positive.  Every other nonzero c in the box is -c'
    for one of them, and -c' gives the negated vector, which has the same
    gcd and so the same vector once the sign is made canonical; nothing is
    lost.  The basis vectors are columns of a unimodular matrix, hence
    linearly independent, so no nonzero c gives the zero vector.

    The sums are taken like an odometer of partial sums, last basis
    vector first: each vector with leading index ``lead`` is one multiple
    of ``basis[lead]`` plus one sum over the basis vectors after it, and
    those sums are built the same way, one level at a time.  So each
    vector costs one addition of two rows, the partial sums add about
    1/coeff_bound as many, and what is held besides the found vectors is
    one level of partial sums, never the whole box.

    Kept private: ``perfbench --trace 1`` wraps every public function, and
    its self-check counts each resume of a generator as one more call.
    """
    all_ones = (1,) * len(basis[0])
    coords = _all_ones_coordinates(mat, basis)
    first = coords is not None and max(map(abs, coords)) <= coeff_bound
    if first:
        yield _weight_hom(mat, all_ones)
    # scaled[i][c + coeff_bound] == c * basis[i]
    scaled = [
        [tuple(c * x for x in b) for c in range(-coeff_bound, coeff_bound + 1)]
        for b in basis
    ]
    add = operator.add
    found: set[tuple[int, ...]] = set()
    # The sums of c_i * basis[i] over the indices after ``lead``.
    tails = [(0,) * len(all_ones)]
    for lead in range(len(basis) - 1, -1, -1):
        # Coefficients zero before ``lead``, positive at it, free after it.
        for head in scaled[lead][coeff_bound + 1:]:
            for vec in [tuple(map(add, head, tail)) for tail in tails]:
                g = math.gcd(*vec)
                found.add(vec if g == 1 else tuple(x // g for x in vec))
        if lead:
            tails = [tuple(map(add, head, tail)) for head in scaled[lead] for tail in tails]
    found = {_canonical_sign(vec) for vec in found}
    assert (all_ones in found) == first, "all-ones coordinate test disagrees with the box"
    found.discard(all_ones)
    for vec in sorted(found):
        yield _weight_hom(mat, vec)
