"""The integer route in the flipped frame, kept as a differential oracle for
the route that works in the frame of the input.

The flipped-frame route inverted every generator of negative weight before
it read a profile (``flip_all``), so every integer check ran on
nonnegative weights, and it verified a max-mode certificate on the mirror
of its verdict (``mirror``), every generator inverted again.
``cover_section_oracle`` and ``verdict_to_entry_oracle`` are the former
``report.cover_section`` and ``report._verdict_to_entry`` verbatim (but
for their names, and for the presentation that ``cover_section_oracle``
takes as an argument); they take a verdict of
:func:`check_oracle.check_assignment_oracle`, which is the flipped-frame
``check_assignment``.  The flipped-frame route reached the cover only with
nonnegative weights, where an edge's lower endpoint is its start level, so
it runs on the current cover module.

``in_flipped_frame`` maps a verdict of the input frame to the one the
flipped-frame route gives for the same assignment.

A verdict carries no presentation: each function here takes the one the
verdict was checked on, which for a verdict of
:func:`check_oracle.check_assignment_oracle` on ``pres`` is
``flip_all(pres, verdict.flips)``.
"""

from __future__ import annotations

from npicheck import cover as cover_mod
from npicheck.minima import (
    MAX,
    MIN,
    CheckVerdict,
    ConcatCertificate,
    MinimaMultiset,
    WitnessStep,
    minima_multiset,
    weak_concatenability,
)
from npicheck.orders import IntTarget, TargetAssignment
from npicheck.report import _hypothesis_dicts
from npicheck.words import Presentation


def flip_all(pres: Presentation, flips: frozenset[int]) -> Presentation:
    """``pres`` with every generator in ``flips`` replaced by its inverse,
    in one pass over the relators: what :func:`words.flip_generator` gives
    applied once per flipped generator."""
    if not flips:
        return pres
    letters = {j + 1 for j in flips} | {-j - 1 for j in flips}
    return Presentation(
        pres.generators,
        tuple(tuple(-x if x in letters else x for x in r) for r in pres.relators),
    )


def mirror(pres: Presentation, verdict: CheckVerdict) -> tuple[Presentation, CheckVerdict]:
    """The mirror of ``pres`` and the min-mode verdict on it of a max-mode
    verdict on ``pres``.

    Maxima under phi are minima under -phi.  Flipping every generator
    negates each prefix profile under the same nonnegative weights, so the
    maxima become the minima and every copy changes sign.  Weak
    concatenability sees only supports and unequal copy counts, so the
    mirrored certificate must have the same ordering and witnesses.
    """
    pres = flip_all(pres, frozenset(range(len(pres.generators))))
    multisets = tuple(
        minima_multiset(pres, i, IntTarget(), verdict.assignment)
        for i in range(len(pres.relators))
    )
    cert = weak_concatenability(multisets)

    def shape(c: ConcatCertificate):
        return c.ordering, [w.gen for w in c.witnesses]

    if not isinstance(cert, ConcatCertificate) or shape(cert) != shape(verdict.certificate):
        raise AssertionError("the mirror of a max-mode verdict has another certificate")
    return pres, verdict._replace(mode=MIN, multisets=multisets, certificate=cert)


def cover_section_oracle(pres: Presentation, verdict: CheckVerdict) -> dict:
    """Verify the slim certificate of a concatenable integer verdict on
    the cover.  The section names the window that reaches one level beyond
    the largest relator span on each side, and the cells it holds; the
    checks themselves are decided once per relator (see
    :func:`cover.verify_weak_slim_certificate`).

    The slim order of the cover is built for minima, so a max-mode
    verdict is verified on its mirror (see :func:`mirror`).
    """
    if verdict.mode == MAX:
        pres, verdict = mirror(pres, verdict)
    weights = tuple(verdict.assignment.image(j) for j in range(len(pres.generators)))
    spans = [
        cover_mod.relator_span(pres, weights, i) for i in range(len(pres.relators))
    ]
    margin = (max(spans) if spans else 0) + 1
    window = cover_mod.build_cover_window(pres, weights, -margin, margin)
    slim = cover_mod.build_slim_certificate(pres, verdict.multisets, verdict.certificate)
    report = cover_mod.verify_weak_slim_certificate(
        pres, weights, verdict.multisets, slim, window
    )
    return {
        "window": [window.lo, window.hi],
        "cells": len(window.cells),
        "ok": report.ok,
        "checks": [
            {"check": c.check, "ok": c.ok, "detail": c.detail} for c in report.checks
        ],
    }


def verdict_to_entry_oracle(pres: Presentation, verdict: CheckVerdict) -> dict:
    names = pres.generators  # flipping keeps the generator names
    entry: dict = {
        "status": verdict.status,
        "mode": verdict.mode,
        "flips": sorted(names[j] for j in verdict.flips),
        "hypotheses": _hypothesis_dicts(verdict.hypotheses),
    }
    if verdict.multisets is not None:
        entry["multisets"] = [
            {
                "relator": m.relator,
                "mode": m.mode,
                "counts": {names[g]: [p, n] for g, (p, n) in sorted(m.counts.items())},
            }
            for m in verdict.multisets
        ]
    if verdict.certificate is not None:
        entry["certificate"] = {
            "ordering": list(verdict.certificate.ordering),
            "witnesses": [
                {"generator": names[w.gen], "positive": w.positive, "negative": w.negative}
                for w in verdict.certificate.witnesses
            ],
        }
    if verdict.failure is not None:
        entry["failure_witness"] = {"stuck_core": list(verdict.failure.stuck_core)}
    return entry


def swap_flipped(multisets, flips) -> tuple[MinimaMultiset, ...]:
    """``multisets`` with the two copy counts of every generator in
    ``flips`` swapped, in the same order: from one frame to the other, in
    either direction."""
    return tuple(
        m._replace(counts={g: (n, p) if g in flips else (p, n) for g, (p, n) in m.counts.items()})
        for m in multisets
    )


def in_flipped_frame(pres: Presentation, verdict: CheckVerdict) -> CheckVerdict:
    """``verdict`` on ``pres``, from the route that works in the frame of
    the input, as the flipped-frame route gives it on the presentation
    with every generator of ``verdict.flips`` inverted: the weights |phi|,
    and the copy counts of each flipped generator swapped."""
    flips = verdict.flips
    if not flips:
        return verdict
    pres = flip_all(pres, flips)
    weights = [abs(verdict.assignment.image(j)) for j in range(len(pres.generators))]
    cert = verdict.certificate
    if cert is not None:
        cert = cert._replace(witnesses=tuple(
            WitnessStep(w.gen, w.negative, w.positive) if w.gen in flips else w
            for w in cert.witnesses
        ))
    return verdict._replace(
        assignment=TargetAssignment.from_weights(pres, weights),
        multisets=swap_flipped(verdict.multisets, flips),
        certificate=cert,
    )
