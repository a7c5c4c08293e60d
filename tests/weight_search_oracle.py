"""The weight-map search that walked the whole coefficient box before the
half-box search replaced it, kept verbatim as a differential oracle for
the weight search, :func:`npicheck.homology._weight_stream`.

It tries all (2 * coeff_bound + 1)^r coefficient vectors, r the H1 rank,
so it is only usable for small r.  It walks the box of every generator,
those that no relator mentions included; :func:`relator_part_weight_homomorphisms`
runs it on the generators the relators use and gives the others weight 1,
as the search does since it walks only that box.
"""

from __future__ import annotations

import itertools
import math

from helpers import integer_kernel_basis, relator_part
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


def relator_part_weight_homomorphisms(pres: Presentation, coeff_bound: int = 3) -> list[WeightHom]:
    """The full-box maps of the relator part (the presentation on the
    generators some relator mentions, in their order), each with weight 1
    inserted at every other generator.  With no relator letter at all, the
    one map is all-ones."""
    n = len(pres.generators)
    used = {abs(x) - 1 for rel in pres.relators for x in rel}
    if not used:
        return [WeightHom((1,) * n)]
    out = []
    for hom in full_box_weight_homomorphisms(relator_part(pres), coeff_bound):
        weights = iter(hom.weights)
        out.append(WeightHom(tuple(next(weights) if j in used else 1 for j in range(n))))
    return out
