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
from .words import Presentation, is_proper_power


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
    cells = []
    for i, span in enumerate(spans):
        for j in range(lo, hi - span + 1):
            cells.append(CoverCell(j, i))
    return CoverWindow(pres, weights, lo, hi, tuple(cells))


def _lift(pres: Presentation, weights, rel: int, level: int) -> list[tuple[int, int, int]]:
    """The lift of relator ``rel`` whose minimum visited level is ``level``,
    as one (lower endpoint, generator, direction) triple per letter.

    The word is walked from level 0 and then shifted: every visited level
    is an endpoint of a letter's edge, so the least lower endpoint is the
    least visited level.  The lift of g from level j ends at j + w[g], so
    its lower endpoint is j + min(w[g], 0)."""
    out = []
    at = 0
    for x in pres.relators[rel]:
        if x > 0:
            w = weights[x - 1]
            out.append((at + min(w, 0), x - 1, 1))
            at += w
        else:
            w = weights[-x - 1]
            at -= w
            out.append((at + min(w, 0), -x - 1, -1))
    shift = level - min((low for low, _, _ in out), default=level)
    return [(low + shift, g, d) for low, g, d in out]


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
    witnesses = set(witness_order)
    others = [g for g in range(n) if g not in witnesses]
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


# perfbench/tracer.py reads the window as the fifth positional argument.
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

    # Lifts are (level, generator, direction) triples, and minima are taken
    # on the edge key (level, -priority) inline; CoverEdge and CoverCell
    # records are built only for the text of a failure.
    rels = range(len(pres.relators))
    lifts = [_lift(window.presentation, window.weights, i, 0) for i in rels]

    def lowest(lift) -> tuple[int, int]:
        level, _, g = min((low, -priority[g], g) for low, g, _ in lift)
        return level, g

    mins = [lowest(lift) for lift in lifts]

    failures = []
    for i in rels:
        want = (0, slim.witness_by_relator[i])
        if mins[i] != want:
            failures.append(
                f"cell {CoverCell(0, i)}: min {CoverEdge(*mins[i])} "
                f"!= witness lift {CoverEdge(*want)}"
            )
    record("min-edge-is-witness-lift", failures, f"{len(window.cells)} cells")

    failures = []
    for i in rels:
        witness = slim.witness_by_relator[i]
        signed = sum(d for low, g, d in lifts[i] if low == 0 and g == witness)
        p, n = by_rel[i].counts.get(witness, (0, 0))
        if signed != p - n or signed == 0:
            failures.append(
                f"cell {CoverCell(0, i)}: signed count {signed}, expected {p - n} != 0"
            )
    record("witness-signed-traversal", failures, "all counts match pos - neg")

    owners: dict[int, list[int]] = {}  # generator -> relators whose level-0 min lifts it
    for i, (_, g) in enumerate(mins):
        owners.setdefault(g, []).append(i)
    failures = []
    for i in rels:
        level, gen = mins[i]
        key_min = (level, -priority[gen])
        for low, g in dict.fromkeys((low, g) for low, g, _ in lifts[i]):
            if (low, -priority[g]) > key_min:
                continue
            for j in owners.get(g, ()):
                other = (low - mins[j][0], j)
                if other != (0, i):
                    failures.append(
                        f"min edge of {CoverCell(*other)} appears on {CoverCell(0, i)} "
                        "without larger key"
                    )
    record("cross-boundary-minimality", failures, "all cross appearances larger")

    failures = []
    for i in rels:
        lift = _lift(window.presentation, window.weights, i, 1)
        if lift != [(low + 1, g, d) for low, g, d in lifts[i]]:
            failures.append(f"boundary of {CoverCell(0, i)} does not shift onto {CoverCell(1, i)}")
        level, g = mins[i]
        if (level + 1, g) != lowest(lift):
            failures.append(f"min edge of {CoverCell(0, i)} does not shift onto {CoverCell(1, i)}")
    record("deck-translation-equivariance", failures, "shift by +1 commutes")

    return SlimReport(all(c.ok for c in checks), tuple(checks))
