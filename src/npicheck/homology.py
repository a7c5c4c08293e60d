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

H1 is found by unit-pivot peeling before any dense work (Dumas, Saunders
and Villard, *On efficient sparse integer matrix Smith normal form
computations*, J. Symbolic Comput. 32, 2001).  If row r of the relator
part M has a unit a in a column c that no other live row uses, the
column operations that clear the rest of row r change row r alone, so
M is equivalent to [a] + M', where M' is M without row r and column c:
the pivot adds a 1 to the diagonal and causes no fill.  Peeling repeats
until no such pivot is left, and the dense Smith form runs only on the
residual rows.  ker M is ker M' lifted through the pivots in reverse
order of elimination: row r fixes x_c = -a * (its sum over the other
columns), which only hold residual columns and the pivot columns of
rows peeled later.  This lift is a bijection of lattices, so it maps a
basis of ker M' to a basis of ker M.  A generalized Wirtinger relator
has the row e_i - e_j, so a tree of them peels completely.

When ker M has rank 1 its one primitive generator b is all the weight
search needs: every map of the box is c * b divided by its gcd, that is
+-b, and all-ones lies in ker M exactly when b = +-1.  So the one map
is b with its sign made canonical, and no V is built.  A kernel of rank
>= 2 keeps the dense Smith form of the whole relator part, since the box
is walked over the columns of its V, and a basis lifted from M' would
give other maps; it can be peeled too once the box depends on the
kernel lattice alone.  rank M <= k for k relators, so the kernel of a
relator part with m columns and k < m - 1 rows has rank >= 2, and it is
not peeled at all.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterator
from typing import NamedTuple

from .words import Presentation


class NoSurjection(ValueError):
    """The relator part's exponent matrix has zero kernel, so every map to
    the integers is zero on every relator letter, whatever the box."""


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
    """The Smith form of M as far as H1 and the weight search read it.

    M @ V = U^-1 @ D for unimodular U and V, where D is k x n with
    ``diagonal`` as its only nonzero entries: a nonnegative divisibility
    chain whose zeros come last.  U is not kept (see
    :func:`smith_normal_form`).
    """

    matrix: list[list[int]]
    diagonal: list[int]     # the min(k, n) diagonal entries of D
    right: list[list[int]]  # V, n x n
    ones: list[int]         # s = V^-1 @ 1: all-ones in the columns of V


def smith_normal_form(matrix: list[list[int]], ncols: int = 0) -> SmithForm:
    """Smith normal form by exact Euclidean pivoting.

    Column operations accumulate into V, and row operations act on the
    working matrix alone: U @ M @ V == current holds throughout for the
    product U of the row operations, which is never formed, since nothing
    reads it and it would be a dense k x k matrix that every row operation
    updates.  H1 reads the diagonal, the weight search the kernel columns
    of V, and the all-ones test the vector s = V^-1 @ 1, the coordinates of
    the all-ones vector in the columns of V.  s starts as all-ones, with V = I,
    and follows each column operation V -> V @ E as s -> E^-1 @ s: a swap
    of columns t and j swaps s_t and s_j, and col_j -= q * col_t adds
    q * s_j to s_t.  ``ncols`` is the column count of a matrix with no
    rows and is otherwise ignored.

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
    v = _identity(n)
    s = [1] * n

    t = 0
    while t < min(k, n):
        piv = _min_abs_nonzero(d, t)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            if i0 != t:
                d[t], d[i0] = d[i0], d[t]
            if j0 != t:
                for row in d:
                    row[t], row[j0] = row[j0], row[t]
                for row in v:
                    row[t], row[j0] = row[j0], row[t]
                s[t], s[j0] = s[j0], s[t]
            if d[t][t] < 0:
                d[t] = [-x for x in d[t]]
            pivot = d[t][t]
            dt = d[t]
            dirty = False
            for i in range(t + 1, k):
                if d[i][t]:
                    q = d[i][t] // pivot
                    if q:
                        d[i] = [x - q * y for x, y in zip(d[i], dt)]
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
                        s[t] += q * s[j]
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
            piv = _min_abs_nonzero(d, t)
        t += 1

    return SmithForm(m_in, [d[i][i] for i in range(min(k, n))], v, s)


class H1Structure(NamedTuple):
    """Free rank and invariant factors of the abelianized group, with a
    basis of the kernel of the relator part (the exponent matrix without
    the columns of ``free``, the 0-based generators no relator mentions),
    from which the weight search reads its maps.

    ``smith`` is the relator part's Smith form when the kernel has rank
    >= 2: the basis is the kernel columns of its V.  Otherwise it is None
    and the basis, empty or one vector, comes from the peeling (see the
    module docstring).
    """

    free_rank: int
    torsion: tuple[int, ...]
    free: tuple[int, ...]
    kernel: tuple[tuple[int, ...], ...]
    smith: SmithForm | None = None


def h1_structure(pres: Presentation) -> H1Structure:
    """H1 of the relator part, peeled where its kernel may have rank 1,
    else from its one Smith form; each free generator adds 1 to the free
    rank (see the module docstring)."""
    n = len(pres.generators)
    mentioned = {abs(x) for rel in pres.relators for x in rel}
    free = tuple(j for j in range(n) if j + 1 not in mentioned)
    used = [j for j in range(n) if j + 1 in mentioned]
    if len(pres.relators) >= len(used) - 1:
        h1 = _peeled_h1(pres, used, free)
        if h1 is not None:
            return h1
    mat = exponent_matrix(pres)
    if free:
        mat = [[row[j] for j in used] for row in mat]
    snf = smith_normal_form(mat, len(used))
    diag = [x for x in snf.diagonal if x != 0]
    return H1Structure(
        n - len(diag), tuple(x for x in diag if x > 1), free, tuple(_kernel_basis(snf)), snf
    )


def _peeled_h1(pres: Presentation, used: list[int], free: tuple[int, ...]) -> H1Structure | None:
    """H1 by unit-pivot peeling, with the relator part's kernel generator
    lifted through the pivots; None when the kernel has rank >= 2.

    Every column is looked at once when the walk starts, and again when
    its count of live users falls to one, so the walk is linear in the
    nonzero entries.  Kept private: ``perfbench --trace 1`` wraps every
    public function.
    """
    n = len(pres.generators)
    if not used:
        # No relator letter: the relator part has no column, and its one
        # map is the empty one, which the free generators make all-ones.
        # The point < | > has no map.
        return H1Structure(n, (), free, ((),) if n else ())
    column = {j + 1: c for c, j in enumerate(used)}
    rows = []
    for rel in pres.relators:
        row: dict[int, int] = {}
        for x in rel:
            c = column.get(abs(x))
            if c is not None:
                row[c] = row.get(c, 0) + (1 if x > 0 else -1)
        rows.append({c: e for c, e in row.items() if e})
    m = len(used)
    users: list[set[int]] = [set() for _ in range(m)]  # the live rows using each column
    for r, row in enumerate(rows):
        for c in row:
            users[c].add(r)
    pivots: dict[int, int] = {}  # row -> column, in order of elimination
    work = list(range(m - 1, -1, -1))
    while work:
        c = work.pop()
        if len(users[c]) != 1:
            continue
        r = min(users[c])
        row = rows[r]
        if abs(row[c]) != 1:
            continue
        pivots[r] = c
        for j in row:
            users[j].discard(r)
            if len(users[j]) == 1:
                work.append(j)
    pivoted = set(pivots.values())
    rest = [c for c in range(m) if c not in pivoted]
    residual = [row for r, row in enumerate(rows) if row and r not in pivots]
    if len(rest) - len(residual) >= 2:
        return None
    if residual:
        snf = smith_normal_form([[row.get(c, 0) for c in rest] for row in residual], len(rest))
        diag = [x for x in snf.diagonal if x != 0]
        basis = _kernel_basis(snf)
    else:
        diag, basis = [], [(1,)] if rest else []
    if len(basis) >= 2:
        return None
    free_rank, torsion = n - len(pivots) - len(diag), tuple(x for x in diag if x > 1)
    if not basis:
        return H1Structure(free_rank, torsion, free, ())
    b = [0] * m
    for c, x in zip(rest, basis[0]):
        b[c] = x
    for r, c in reversed(pivots.items()):
        # b[c] is still 0 here, so the sum runs over the other columns.
        row = rows[r]
        b[c] = -row[c] * sum(e * b[j] for j, e in row.items())
    assert all(not sum(e * b[j] for j, e in row.items()) for row in rows), "M * b != 0"
    assert math.gcd(*b) == 1, "the lifted kernel generator is not primitive"
    assert (not any(sum(row.values()) for row in rows)) == (len(set(b)) == 1), (
        "all-ones test disagrees with the row sums of M"
    )
    return H1Structure(free_rank, torsion, free, (tuple(b),))


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
    """The columns of V whose diagonal entry in D is zero: those past the
    rank, since the zeros of the diagonal come last."""
    rank = len(snf.diagonal) - snf.diagonal.count(0)
    return [tuple(row[j] for row in snf.right) for j in range(rank, len(snf.right))]


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
    [-coeff_bound, coeff_bound], coeff_bound >= 1, are divided by their gcd
    and deduplicated up to global sign; the all-ones vector, when present,
    comes first and the rest follow in lexicographic order.  The zero
    projection is not among them.  A kernel of rank 1 gives its one
    generator, with its sign made canonical.

    At the call only the kernel basis is read, and NoSurjection is raised
    exactly when it is empty.  A nonempty basis always gives a map, since
    its vectors are nonzero and independent.  The box is built only when a
    map past all-ones is asked for, or the first map when the box does not
    hold all-ones; so a report that certifies on the all-ones map never
    builds it.
    """
    if not h1.kernel:
        raise NoSurjection("the exponent matrix of the relator part has zero kernel")
    if h1.smith is None:
        maps = iter([WeightHom(_canonical_sign(h1.kernel[0]))])
    else:
        maps = _weight_maps(h1.smith, h1.kernel, coeff_bound)
    return _with_free_weights(maps, h1.free) if h1.free else maps


def _with_free_weights(maps: Iterator[WeightHom], free: tuple[int, ...]) -> Iterator[WeightHom]:
    """Each map of the relator part with weight 1 inserted at every free
    generator (0-based, ascending).  Kept private like :func:`_weight_maps`."""
    for hom in maps:
        weights = list(hom.weights)
        for j in free:
            weights.insert(j, 1)
        yield WeightHom(tuple(weights))


def _all_ones_coordinates(snf: SmithForm, basis: tuple[tuple[int, ...], ...]):
    """Integer coordinates of the all-ones vector in the kernel basis, or
    None when M * 1 != 0.

    With s = V^-1 * 1, M * 1 = M * V * s = U^-1 * D * s, and U is
    invertible, so all-ones lies in ker M exactly when s vanishes where the
    diagonal of D is nonzero: on the first rank indices.  Then
    1 = V * s is the sum of s_j times column j of V over the other
    indices, which are the kernel basis in order, so its coordinates are
    the rest of s.
    """
    rank = len(snf.right) - len(basis)
    in_kernel = not any(snf.ones[:rank])
    assert in_kernel == (not any(sum(row) for row in snf.matrix)), (
        "all-ones test disagrees with the row sums of M"
    )
    if not in_kernel:
        return None
    coords = snf.ones[rank:]
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
    snf: SmithForm, basis: tuple[tuple[int, ...], ...], coeff_bound: int
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
    mat = snf.matrix
    all_ones = (1,) * len(basis[0])
    coords = _all_ones_coordinates(snf, basis)
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
