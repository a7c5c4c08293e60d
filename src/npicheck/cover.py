"""Finite windows of the infinite cyclic cover and verification of the
weakly-slim certificate extracted from a concatenability certificate.

The cover determined by integer weights w has 0-cells at integer levels,
1-cells a_{j,g} (the lift of generator g that joins levels j and
j + |w[g]|, keyed by its lower endpoint j) and 2-cells R_{j,i} (the lift
of relator cell i whose minimum visited level is j).  A letter touches the
minimum level of a lift exactly when its edge's lower endpoint is that
level, whatever the signs of the weights.  Edges are keyed by (lower
endpoint, reindexed generator position) ordered lexicographically with
the second coordinate reversed; the reindexing puts the certificate's
witness generators last, in certificate order, which makes the witness
lift the strict minimum of every 2-cell boundary.

The cover is regular: the deck translation t by +1 carries R_{j,i} onto
R_{j+1,i}, adding 1 to the level of every boundary edge and to both
levels of every key comparison.  Every cell is the translate t^j R_{0,i}
of the level-0 lift of its relator, so the verifier decides each check
on the R_{0,i}, one per relator, and a window only counts cells.
"""

from __future__ import annotations

from typing import NamedTuple

from .minima import ConcatCertificate, _integer_profile, replay_certificate
from .words import Presentation, is_proper_power, letter_gen


class WindowTooSmall(ValueError):
    """The window cannot contain a whole 2-cell boundary."""


class CertificateMismatch(ValueError):
    """The supplied certificate does not replay against the multisets, or
    the weights given to the verifier are not the window's."""


class CoverEdge(NamedTuple):
    level: int  # lower endpoint
    gen: int  # 0-based generator index


class CoverCell(NamedTuple):
    level: int  # minimum visited level of the lifted boundary
    relator: int


def relator_span(pres: Presentation, weights, rel: int) -> int:
    """Spread between the highest and lowest level visited by a lift."""
    prof = _integer_profile(pres.relators[rel], weights)
    return max(prof + [0]) - min(prof + [0])


class CoverWindow(NamedTuple):
    """All cells of the cyclic cover whose closure fits in [lo, hi]."""

    presentation: Presentation
    weights: tuple[int, ...]
    lo: int
    hi: int
    cells: tuple[CoverCell, ...]


def build_cover_window(pres: Presentation, weights, lo: int, hi: int, spans=None) -> CoverWindow:
    """Window [lo, hi]: exactly the R_{j,i} with all boundary levels inside.
    ``spans`` are the relators' :func:`relator_span` if the caller has them."""
    weights = tuple(int(w) for w in weights)
    if lo > hi:
        raise ValueError("lo must be <= hi")
    if spans is None:
        spans = [relator_span(pres, weights, i) for i in range(len(pres.relators))]
    if spans and hi - lo < max(spans):
        raise WindowTooSmall(
            f"window height {hi - lo} below the maximum relator span {max(spans)}"
        )
    cells = []
    for i, span in enumerate(spans):
        for j in range(lo, hi - span + 1):
            cells.append(CoverCell(j, i))
    return CoverWindow(pres, weights, lo, hi, tuple(cells))


def lifted_boundary(window: CoverWindow, cell: CoverCell) -> tuple[tuple[CoverEdge, int], ...]:
    """Edge path of the lifted relator: (edge, direction) per letter.

    The stored rotation is walked from the anchor level that puts the
    minimum visited level at cell.level, so projecting the path (dropping
    levels) reproduces the relator word exactly.
    """
    pres, weights = window.presentation, window.weights
    prof = _integer_profile(pres.relators[cell.relator], weights)
    anchor = cell.level - min(prof + [0])
    # The lift of g from level j ends at j + w[g]: its lower endpoint is
    # j + min(w[g], 0).
    drop = [min(w, 0) for w in weights]
    out = []
    level = anchor
    for x in pres.relators[cell.relator]:
        g = letter_gen(x)
        if x > 0:
            out.append((CoverEdge(level + drop[g], g), 1))
            level += weights[g]
        else:
            level -= weights[g]
            out.append((CoverEdge(level + drop[g], g), -1))
    return tuple(out)


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


class SlimCertificate(NamedTuple):
    """Concatenability certificate plus the induced reindexing data."""

    concat: ConcatCertificate
    witness_by_relator: dict  # relator index -> witness generator index
    gen_priority: tuple[int, ...]  # generator index -> position 1..n


def build_slim_certificate(
    pres: Presentation, multisets, cert: ConcatCertificate
) -> SlimCertificate:
    """Reindex generators so certificate witnesses occupy the last positions."""
    ok, why = replay_certificate(cert, multisets)
    if not ok:
        raise CertificateMismatch(why)
    n = len(pres.generators)
    k = len(pres.relators)
    witness_order = [step.gen for step in cert.witnesses]
    others = [g for g in range(n) if g not in witness_order]
    priority = [0] * n
    for pos, g in enumerate(others, start=1):
        priority[g] = pos
    for offset, g in enumerate(witness_order, start=1):
        priority[g] = n - k + offset
    witness_by_relator = {
        rel: step.gen for rel, step in zip(cert.ordering, cert.witnesses)
    }
    return SlimCertificate(cert, witness_by_relator, tuple(priority))


class SlimCheckEntry(NamedTuple):
    check: str
    ok: bool
    detail: str


class SlimReport(NamedTuple):
    ok: bool
    checks: tuple[SlimCheckEntry, ...]

    def failures(self) -> list[SlimCheckEntry]:
        return [c for c in self.checks if not c.ok]


def verify_weak_slim_certificate(
    pres: Presentation,
    weights,
    multisets,
    slim: SlimCertificate,
    window: CoverWindow,
) -> SlimReport:
    """Check the slim structure induced by the certificate on the cover.

    (a) the minimal edge of every 2-cell is its witness lift at the cell's
    base level; (b) the signed traversal count of that edge equals the
    witness's positive-minus-negative copy count and is nonzero (the
    checkable surrogate for proper involvement: a nonzero signed count
    survives abelianization relative to the subcomplex); (c) the minimal
    edge of one cell appears on another cell's boundary only with a larger
    key; (d) deck translation by +1 carries each cell's boundary and
    minimal edge onto those of the shifted cell.  A side check records
    that no relator is a proper power as a cyclic word (the syntactic
    necessary half of the simplicity condition; the remainder rests on the
    conservativity of ordered targets, cited in reports).

    Each check is decided on the level-0 lift R_{0,i} of each relator i.
    Translation by j adds j to the level in both (level, -priority) keys
    of a comparison and leaves the priorities alone, so it keeps every key
    comparison, and it carries the witness lift at level 0 onto the one at
    level j.  Hence (a) and (b) hold on R_{j,i} exactly when they hold on
    R_{0,i}.  (c) runs on the whole cover: the cells whose minimal edge is
    (l, g) are the R_{l - m.level, j}, one for each relator j whose
    level-0 minimal edge m has generator g.  Two cells R_{c,i} and R_{d,j}
    that share an edge span at most span_i + span_j levels, so a window
    of at least that height holds a translate of the pair: (c) on such a
    window, as on the default one of height 2 (max span + 1), has the
    answer of the whole cover.  (d) compares the level-1 lift of each
    relator with the +1 shift of its level-0 lift.  The window gives only
    the cell count of the passing detail of (a).

    The lifts are read at the window's weights, so ``weights`` must equal
    them: CertificateMismatch is raised otherwise.
    """
    if tuple(weights) != window.weights:
        raise CertificateMismatch(
            f"weights {tuple(weights)} are not the window's {window.weights}"
        )
    ok, why = replay_certificate(slim.concat, multisets)
    if not ok:
        raise CertificateMismatch(why)
    by_rel = {m.relator: m for m in multisets}
    priority = slim.gen_priority
    checks: list[SlimCheckEntry] = []

    def record(check: str, failures: list[str], passed: str) -> None:
        checks.append(SlimCheckEntry(check, not failures, "; ".join(failures) or passed))

    power_bad = [i for i, r in enumerate(pres.relators) if is_proper_power(r)]
    record(
        "no-proper-power",
        [f"relators {power_bad} are proper powers"] if power_bad else [],
        "syntactic necessary condition; the rest follows from "
        "conservativity of ordered targets",
    )

    def lowest(path) -> CoverEdge:
        return min((e for e, _ in path), key=lambda e: edge_key(e, priority))

    cells = [CoverCell(0, i) for i in range(len(pres.relators))]
    boundary = {cell: lifted_boundary(window, cell) for cell in cells}
    min_by_cell = {cell: lowest(path) for cell, path in boundary.items()}

    failures = []
    for cell in cells:
        got = min_by_cell[cell]
        want = CoverEdge(cell.level, slim.witness_by_relator[cell.relator])
        if got != want:
            failures.append(f"cell {cell}: min {got} != witness lift {want}")
    record("min-edge-is-witness-lift", failures, f"{len(window.cells)} cells")

    failures = []
    for cell in cells:
        witness = slim.witness_by_relator[cell.relator]
        target = CoverEdge(cell.level, witness)
        signed = sum(d for e, d in boundary[cell] if e == target)
        p, n = by_rel[cell.relator].counts.get(witness, (0, 0))
        if signed != p - n or signed == 0:
            failures.append(f"cell {cell}: signed count {signed}, expected {p - n} != 0")
    record("witness-signed-traversal", failures, "all counts match pos - neg")

    owners: dict[int, list[CoverCell]] = {}  # generator -> level-0 cells whose min lifts it
    for cell, m in min_by_cell.items():
        owners.setdefault(m.gen, []).append(cell)
    failures = []
    for cell in cells:
        key_min = edge_key(min_by_cell[cell], priority)
        for edge in dict.fromkeys(e for e, _ in boundary[cell]):
            if edge_key(edge, priority) > key_min:
                continue
            for base in owners.get(edge.gen, ()):
                other = CoverCell(edge.level - min_by_cell[base].level, base.relator)
                if other != cell:
                    failures.append(f"min edge of {other} appears on {cell} without larger key")
    record("cross-boundary-minimality", failures, "all cross appearances larger")

    failures = []
    for cell in cells:
        shifted = CoverCell(cell.level + 1, cell.relator)
        path = lifted_boundary(window, shifted)
        moved = tuple((CoverEdge(e.level + 1, e.gen), d) for e, d in boundary[cell])
        if moved != path:
            failures.append(f"boundary of {cell} does not shift onto {shifted}")
        a = min_by_cell[cell]
        if CoverEdge(a.level + 1, a.gen) != lowest(path):
            failures.append(f"min edge of {cell} does not shift onto {shifted}")
    record("deck-translation-equivariance", failures, "shift by +1 commutes")

    return SlimReport(all(c.ok for c in checks), tuple(checks))
