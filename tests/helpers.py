"""Functions that only the tests call, built on the package's own layers:
text writers for presentations and LOGs, presentations built from words,
generators that no relator uses inserted or dropped, generator flips,
cyclic reduction of words, the integer kernel basis of a matrix, the
weight search as a list, prefix profiles and multisets of minima or
maxima of one relator, the image of a word, the boundary path
of a lifted 2-cell with its edge keys and its strictly minimal edge, the
Adian route with its own hypotheses, seeded random valid presentations
and reduced forests, the standard 2-complex of a presentation and the
well-definedness check of an assignment.  The package reaches these only through the report, so it
does not ship them.
"""

from __future__ import annotations

from npicheck.complexes import TwoComplex
from npicheck.cover import CoverCell, CoverEdge, CoverWindow, _lift
from npicheck.homology import WeightHom, _kernel_basis, _weight_stream, h1_structure, smith_normal_form
from npicheck.logs import AdianVerdict, Log, Multigraph, adian_check, is_forest
from npicheck.minima import (
    MAX,
    MIN,
    MinimaMultiset,
    _extremal_multiset,
    _profile,
    presentation_hypotheses,
)
from npicheck.orders import OrderedTarget, TargetAssignment
from npicheck.words import Presentation, Word, freely_reduce, is_freely_reduced, letter_gen, validate


def make_presentation(generators, relators) -> Presentation:
    return Presentation(tuple(generators), tuple(tuple(r) for r in relators))


def flip_generator(pres: Presentation, gen: int) -> Presentation:
    """Replace generator ``gen`` (0-based) by its inverse in every relator.

    An involution; cyclic reducedness of relators is preserved because
    cancellation patterns are invariant under negating one generator's sign.
    """
    if not 0 <= gen < len(pres.generators):
        raise IndexError(f"no generator with index {gen}")
    target = gen + 1
    new_rels = tuple(
        tuple(-x if abs(x) == target else x for x in r) for r in pres.relators
    )
    return Presentation(pres.generators, new_rels)


def insert_free_generators(pres: Presentation, count: int, rng) -> Presentation:
    """``pres`` with ``count`` generators that no relator uses, named
    w0, w1, ... by their index, at positions drawn from ``rng``, a
    :class:`random.Random`.  The relators are the same words on the same
    generator names.  Geometrically a wedge with ``count`` circles."""
    n = len(pres.generators)
    slots = set(rng.sample(range(n + count), count))
    names: list[str] = []
    index = {}  # old 1-based generator -> new 1-based generator
    for slot in range(n + count):
        if slot in slots:
            names.append(f"w{slot}")
        else:
            index[len(index) + 1] = slot + 1
            names.append(pres.generators[len(index) - 1])
    relators = tuple(
        tuple(index[x] if x > 0 else -index[-x] for x in rel) for rel in pres.relators
    )
    return Presentation(tuple(names), relators)


def relator_part(pres: Presentation) -> Presentation:
    """``pres`` without the generators that no relator uses."""
    used = sorted({abs(x) for rel in pres.relators for x in rel})
    column = {g: i + 1 for i, g in enumerate(used)}
    return Presentation(
        tuple(pres.generators[g - 1] for g in used),
        tuple(tuple(column[x] if x > 0 else -column[-x] for x in rel) for rel in pres.relators),
    )


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


def find_weight_homomorphisms(pres: Presentation, coeff_bound: int = 3) -> list[WeightHom]:
    """Every map of the weight search, in the order ``--phi auto`` tries them."""
    return list(_weight_stream(h1_structure(pres), coeff_bound))


class NonVanishingRelatorWeight(ValueError):
    """The relator does not map to the identity; phi is not well defined."""


def prefix_profile(pres: Presentation, rel: int, target: OrderedTarget, assignment: TargetAssignment) -> list:
    """Images of the initial subwords of relator ``rel`` (length-1 up to full)."""
    out = _profile(pres.relators[rel], target, assignment)
    if out and not target.equals(out[-1], target.identity()):
        raise NonVanishingRelatorWeight(
            f"relator {rel} has nonzero image {target.describe(out[-1])}"
        )
    return out


def minima_multiset(pres, rel, target, assignment) -> MinimaMultiset:
    """Multiset of minima of relator ``rel`` with respect to the assignment."""
    profile = prefix_profile(pres, rel, target, assignment)
    return _extremal_multiset(rel, pres.relators[rel], profile, target, MIN)


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


def evaluate_word(target: OrderedTarget, assignment: TargetAssignment, word):
    """Image of a word under the homomorphism defined by the assignment."""
    profile = _profile(word, target, assignment)
    return profile[-1] if profile else target.identity()


def lifted_boundary(window: CoverWindow, cell: CoverCell) -> tuple[tuple[CoverEdge, int], ...]:
    """Edge path of the lifted relator: (edge, direction) per letter.

    The stored rotation is walked from the anchor level that puts the
    minimum visited level at cell.level, so projecting the path (dropping
    levels) reproduces the relator word exactly.
    """
    lift = _lift(window.presentation, window.weights, cell.relator, cell.level)
    return tuple((CoverEdge(low, g), d) for low, g, d in lift)


def edge_key(edge: CoverEdge, gen_priority) -> tuple[int, int]:
    return (edge.level, -gen_priority[edge.gen])


def min_edge(window: CoverWindow, cell: CoverCell, gen_priority) -> CoverEdge:
    """Strictly minimal boundary edge under the (level, priority) key.

    gen_priority maps generator index to a position 1..n; keys compare
    lexicographically with level ascending and position descending, so at
    equal level the highest-priority generator wins as the minimum.
    Distinct edges have distinct keys, so the minimum is unique.
    """
    edges = (e for e, _ in lifted_boundary(window, cell))
    return min(edges, key=lambda e: edge_key(e, gen_priority))


def adian_npi_check(pres: Presentation) -> AdianVerdict:
    """The equal-length Adian route on ``pres`` with its own hypotheses."""
    return adian_check(pres, presentation_hypotheses(pres)[0])


def random_valid_presentation(rng) -> Presentation:
    """A valid presentation on two to five generators with at least one
    relator, drawn from ``rng``, a :class:`random.Random`, again until
    ``validate`` accepts it."""
    while True:
        n = rng.randrange(2, 6)
        rels = []
        while len(rels) < rng.randrange(1, n):
            word = freely_reduce(
                [rng.choice([1, -1]) * rng.randrange(1, n + 1) for _ in range(rng.randrange(2, 9))]
            )
            if word:
                rels.append(word)
        pres = make_presentation([f"g{i}" for i in range(n)], rels)
        if rels and not validate(pres):
            return pres


def lof_random(n_vertices: int, n_edges: int, rng) -> Log:
    """Uniform reduced labelled oriented forest by rejection sampling,
    drawing from ``rng``, a :class:`random.Random`.

    Uniform over forests with the requested vertex and edge counts, then
    uniform orientations and labels, rejecting until every edge satisfies
    label != initial and label != terminal.  Vertices are named a, b, ...,
    z, aa, ab, ...
    """
    if n_vertices < 1:
        raise ValueError("need at least one vertex")
    if n_edges < 0 or n_edges > max(n_vertices - 1, 0):
        raise ValueError(f"no forest on {n_vertices} vertices has {n_edges} edges")
    if n_edges >= 1 and n_vertices < 3:
        raise ValueError("a reduced edge needs a label distinct from both endpoints")
    names = tuple(_vertex_name(i) for i in range(n_vertices))
    all_pairs = [(a, b) for a in range(n_vertices) for b in range(a + 1, n_vertices)]
    while True:
        pairs = rng.sample(all_pairs, n_edges) if n_edges else []
        if not is_forest(Multigraph(n_vertices, tuple(pairs))):
            continue
        edges = []
        ok = True
        for a, b in pairs:
            i, t = (a, b) if rng.random() < 0.5 else (b, a)
            lam = rng.randrange(n_vertices)
            if lam == i or lam == t:
                ok = False
                break
            edges.append((i, lam, t))
        if ok:
            return Log(names, tuple(edges))


def _vertex_name(i: int) -> str:
    name = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        name = chr(ord("a") + r) + name
    return name
