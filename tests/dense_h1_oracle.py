"""H1 and the weight search as they were before unit-pivot peeling, kept
as the oracle of a differential for :func:`npicheck.homology.h1_structure`
and :func:`npicheck.homology._weight_stream`.

The dense Smith form of the whole relator part (the exponent matrix
without the columns of the generators no relator mentions) gives H1 at
every kernel rank, and the weight search walks the box over the kernel
columns of its V, a kernel of rank 1 included.
"""

from __future__ import annotations

from npicheck.homology import (
    NoSurjection,
    SmithForm,
    WeightHom,
    _kernel_basis,
    _weight_maps,
    _with_free_weights,
    exponent_matrix,
    smith_normal_form,
)
from npicheck.words import Presentation


def dense_h1(pres: Presentation) -> tuple[int, tuple[int, ...], SmithForm, tuple[int, ...]]:
    """(free rank, torsion, Smith form of the relator part, free generators)."""
    n = len(pres.generators)
    mat = exponent_matrix(pres)
    mentioned = {abs(x) for rel in pres.relators for x in rel}
    free = tuple(j for j in range(n) if j + 1 not in mentioned)
    if free:
        used = [j for j in range(n) if j + 1 in mentioned]
        mat = [[row[j] for j in used] for row in mat]
    snf = smith_normal_form(mat, n - len(free))
    diag = [x for x in snf.diagonal if x != 0]
    return n - len(diag), tuple(x for x in diag if x > 1), snf, free


def dense_weight_stream(pres: Presentation, coeff_bound: int = 3) -> list[WeightHom]:
    """Every map of the box in search order; raises NoSurjection when the
    relator part's kernel is zero."""
    _, _, snf, free = dense_h1(pres)
    if not snf.right and free:
        # No relator letter at all: the one map is all-ones.
        return [WeightHom((1,) * len(free))]
    basis = _kernel_basis(snf)
    if not basis:
        raise NoSurjection("the exponent matrix of the relator part has zero kernel")
    maps = _weight_maps(snf, basis, coeff_bound)
    return list(_with_free_weights(maps, free) if free else maps)
