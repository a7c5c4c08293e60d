"""Functions that only the tests call, built on the package's own layers:
text writers for presentations and LOGs, cyclic reduction of words, the
integer kernel basis of a matrix, multisets of maxima, the standard
2-complex of a presentation and the well-definedness check of an
assignment.  No part of the package needs them, so it does not ship them.
"""

from __future__ import annotations

from npicheck.complexes import TwoComplex
from npicheck.homology import _kernel_basis, smith_normal_form
from npicheck.logs import Log
from npicheck.minima import MAX, MinimaMultiset, _extremal_multiset, prefix_profile
from npicheck.orders import OrderedTarget, TargetAssignment, evaluate_word
from npicheck.words import Presentation, Word, freely_reduce, is_freely_reduced, letter_gen


def format_presentation(pres: Presentation) -> str:
    """Presentation text that ``parse_presentation`` reads back to ``pres``."""
    lines = ["gens: " + " ".join(pres.generators)]
    for rel in pres.relators:
        parts = []
        i = 0
        while i < len(rel):
            j = i
            while j < len(rel) and rel[j] == rel[i]:
                j += 1
            name = pres.generators[abs(rel[i]) - 1]
            count = (j - i) * (1 if rel[i] > 0 else -1)
            parts.append(name if count == 1 else f"{name}^{count}")
            i = j
        lines.append("rel: " + " ".join(parts))
    return "\n".join(lines) + "\n"


def format_log(log: Log) -> str:
    """LOG text that ``parse_log`` reads back to ``log``."""
    lines = ["vertices: " + " ".join(log.vertices)]
    for i, lam, t in log.edges:
        lines.append(f"edge: {log.vertices[i]} {log.vertices[lam]} {log.vertices[t]}")
    return "\n".join(lines) + "\n"


def is_cyclically_reduced(word) -> bool:
    if not is_freely_reduced(word):
        return False
    return len(word) < 2 or word[0] != -word[-1]


def cyclically_reduce(word) -> tuple[Word, Word]:
    """Cyclically reduced core of ``word`` plus a conjugator.

    Returns ``(core, u)`` with ``word = u core u^-1`` in the free group.
    Each pass strips one cancelling end pair and freely reduces what is
    left before looking at the ends again.
    """
    conj: list[int] = []
    cur = tuple(word)
    while True:
        if len(cur) >= 2 and cur[0] == -cur[-1]:
            conj.append(cur[0])
            cur = freely_reduce(cur[1:-1])
        else:
            red = freely_reduce(cur)
            if red == cur:
                break
            cur = red
    return cur, freely_reduce(conj)


def integer_kernel_basis(matrix: list[list[int]], ncols: int = 0) -> list[tuple[int, ...]]:
    """Basis of the integer kernel {w : M w = 0}, from Smith-form V columns.

    ``ncols`` is the column count of a matrix with no rows.
    """
    return _kernel_basis(smith_normal_form(matrix, ncols))


def maxima_multiset(pres, rel, target, assignment) -> MinimaMultiset:
    """Mirror image of ``minima_multiset`` at the profile maximum."""
    profile = prefix_profile(pres, rel, target, assignment)
    return _extremal_multiset(rel, pres.relators[rel], profile, target, MAX)


def presentation_complex(pres: Presentation) -> TwoComplex:
    """The standard complex: one vertex, a loop per generator, a face per relator."""
    edges = tuple((0, 0, g) for g in range(len(pres.generators)))
    faces = []
    for i, rel in enumerate(pres.relators):
        path = tuple((letter_gen(x), 1 if x > 0 else -1) for x in rel)
        faces.append((i, path))
    return TwoComplex(1, edges, tuple(faces))


def verify_assignment(
    target: OrderedTarget, assignment: TargetAssignment, pres: Presentation
) -> bool:
    """True iff every relator maps to the identity (phi is well defined)."""
    ident = target.identity()
    return all(
        target.equals(evaluate_word(target, assignment, r), ident) for r in pres.relators
    )
