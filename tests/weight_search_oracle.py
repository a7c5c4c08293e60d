"""The weight-map search that walked the whole coefficient box before the
half-box search replaced it, kept verbatim as a differential oracle for
:func:`npicheck.homology.find_weight_homomorphisms`.

It tries all (2 * coeff_bound + 1)^r coefficient vectors, r the H1 rank,
so it is only usable for small r.
"""

from __future__ import annotations

import itertools
import math

from helpers import integer_kernel_basis
from npicheck.homology import NoSurjection, WeightHom, exponent_matrix
from npicheck.words import Presentation


def _canonical_sign(vec: tuple[int, ...]) -> tuple[int, ...]:
    for x in vec:
        if x != 0:
            return vec if x > 0 else tuple(-y for y in vec)
    return vec


def full_box_weight_homomorphisms(pres: Presentation, coeff_bound: int = 3) -> list[WeightHom]:
    """All primitive weight vectors in the kernel-combination search box.

    Combinations of the kernel basis with coefficients in
    [-coeff_bound, coeff_bound] are divided by their gcd and deduplicated
    up to global sign; the all-ones vector, when present, comes first and
    the rest follow in lexicographic order.
    """
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    mat = exponent_matrix(pres)
    n = len(pres.generators)
    basis = integer_kernel_basis(mat, n)
    found: set[tuple[int, ...]] = set()
    for coeffs in itertools.product(range(-coeff_bound, coeff_bound + 1), repeat=len(basis)):
        if not any(coeffs):
            continue
        vec = tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(n))
        if not any(vec):
            continue
        g = math.gcd(*[abs(x) for x in vec])
        vec = tuple(x // g for x in vec)
        found.add(_canonical_sign(vec))
    if not found:
        raise NoSurjection("no primitive kernel vector in the search box")
    all_ones = tuple([1] * n)
    ordered = sorted(found, key=lambda v: (v != all_ones, v))
    out = []
    for vec in ordered:
        for row in mat:
            assert sum(x * w for x, w in zip(row, vec)) == 0
        assert math.gcd(*[abs(x) for x in vec]) == 1
        out.append(WeightHom(vec))
    return out
