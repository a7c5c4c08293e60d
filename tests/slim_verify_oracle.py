"""The cover verifier before each cell's lifted boundary was built once,
kept as a differential oracle for ``cover.verify_weak_slim_certificate``.

The function body is the former verifier verbatim: it takes each cell's
minimum through ``min_edge`` and rebuilds the lifted boundary in checks
(b), (c) and twice in (d).
"""

from __future__ import annotations

from npicheck.cover import (
    CertificateMismatch,
    CoverCell,
    CoverEdge,
    CoverWindow,
    SlimCertificate,
    SlimCheckEntry,
    SlimReport,
)
from npicheck.minima import replay_certificate
from npicheck.words import Presentation, is_proper_power
from helpers import edge_key, lifted_boundary, min_edge


def oracle_verify_weak_slim_certificate(
    pres: Presentation,
    weights,
    multisets,
    slim: SlimCertificate,
    window: CoverWindow,
) -> SlimReport:
    """Check the slim structure induced by the certificate on a window.

    (a) the minimal edge of every 2-cell is its witness lift at the cell's
    base level; (b) the signed traversal count of that edge equals the
    witness's positive-minus-negative copy count and is nonzero (the
    checkable surrogate for proper involvement: a nonzero signed count
    survives abelianization relative to the subcomplex); (c) the minimal
    edge of one cell appears on another cell's boundary only with a larger
    key; (d) deck translation by +1 carries each cell's boundary and
    minimal edge onto those of the shifted cell.  Translation keeps every
    key comparison without a check: it adds 1 to the level in both
    (level, -priority) keys and leaves the priorities alone.  A side check
    records that no relator is a proper power as a cyclic word (the
    syntactic necessary half of the simplicity condition; the remainder
    rests on the conservativity of ordered targets, cited in reports).
    """
    ok, why = replay_certificate(slim.concat, multisets)
    if not ok:
        raise CertificateMismatch(why)
    by_rel = {m.relator: m for m in multisets}
    checks: list[SlimCheckEntry] = []

    power_bad = [i for i, r in enumerate(pres.relators) if is_proper_power(r)]
    checks.append(
        SlimCheckEntry(
            "no-proper-power",
            not power_bad,
            "syntactic necessary condition; the rest follows from "
            "conservativity of ordered targets"
            if not power_bad
            else f"relators {power_bad} are proper powers",
        )
    )

    min_by_cell: dict[CoverCell, CoverEdge] = {}
    ok_a = True
    details_a = []
    for cell in window.cells:
        got = min_edge(window, cell, slim.gen_priority)
        want = CoverEdge(cell.level, slim.witness_by_relator[cell.relator])
        min_by_cell[cell] = got
        if got != want:
            ok_a = False
            details_a.append(f"cell {cell}: min {got} != witness lift {want}")
    checks.append(
        SlimCheckEntry(
            "min-edge-is-witness-lift",
            ok_a,
            "; ".join(details_a) if details_a else f"{len(window.cells)} cells",
        )
    )

    ok_b = True
    details_b = []
    for cell in window.cells:
        witness = slim.witness_by_relator[cell.relator]
        target = CoverEdge(cell.level, witness)
        signed = sum(
            d for e, d in lifted_boundary(window, cell) if e == target
        )
        p, n = by_rel[cell.relator].counts.get(witness, (0, 0))
        if signed != p - n or signed == 0:
            ok_b = False
            details_b.append(
                f"cell {cell}: signed count {signed}, expected {p - n} != 0"
            )
    checks.append(
        SlimCheckEntry(
            "witness-signed-traversal",
            ok_b,
            "; ".join(details_b) if details_b else "all counts match pos - neg",
        )
    )

    owner: dict[CoverEdge, CoverCell] = {}
    for cell, edge in min_by_cell.items():
        owner[edge] = cell
    ok_c = True
    details_c = []
    for cell in window.cells:
        key_min = edge_key(min_by_cell[cell], slim.gen_priority)
        for edge in {e for e, _ in lifted_boundary(window, cell)}:
            other = owner.get(edge)
            if other is None or other == cell:
                continue
            if not edge_key(edge, slim.gen_priority) > key_min:
                ok_c = False
                details_c.append(
                    f"min edge of {other} appears on {cell} without larger key"
                )
    checks.append(
        SlimCheckEntry(
            "cross-boundary-minimality",
            ok_c,
            "; ".join(details_c) if details_c else "all cross appearances larger",
        )
    )

    ok_d = True
    details_d = []
    for cell in window.cells:
        shifted = CoverCell(cell.level + 1, cell.relator)
        if shifted not in min_by_cell:
            continue
        moved = tuple(
            (CoverEdge(e.level + 1, e.gen), d) for e, d in lifted_boundary(window, cell)
        )
        if moved != lifted_boundary(window, shifted):
            ok_d = False
            details_d.append(f"boundary of {cell} does not shift onto {shifted}")
        a = min_by_cell[cell]
        b = min_by_cell[shifted]
        if (CoverEdge(a.level + 1, a.gen)) != b:
            ok_d = False
            details_d.append(f"min edge of {cell} does not shift onto {shifted}")
    checks.append(
        SlimCheckEntry(
            "deck-translation-equivariance",
            ok_d,
            "; ".join(details_d) if details_d else "shift by +1 commutes",
        )
    )

    return SlimReport(all(c.ok for c in checks), tuple(checks))
