"""The integer path of ``check_assignment`` before it read each relator in
one pass, kept verbatim (but for its name, for the presentation its verdict no
longer carries, and for the target's local indicability, which no target
knows any more: the row is always "assumed") as a differential oracle for
:func:`npicheck.minima.check_assignment`.

It flips one generator at a time with :func:`words.flip_generator` and
computes every prefix profile and extremal multiset through the target's
operations (:func:`minima._profile` and ``extremal_multiset``, the former
``minima._extremal_multiset`` with its own counting loop, so that the
differential does not run the package's counting helper on both sides),
for every target.  It works in the flipped frame, which
``check_assignment`` has left: compare through
:func:`flip_frame_oracle.in_flipped_frame`.  The verdict's presentation
is ``flip_all(pres, verdict.flips)``.
"""

from __future__ import annotations

import math

from npicheck.minima import (
    MIN,
    CheckVerdict,
    ConcatCertificate,
    HypothesisResult,
    MinimaMultiset,
    _profile,
    weak_concatenability,
)
from npicheck.orders import GT, LT, IntTarget, OrderedTarget, TargetAssignment
from npicheck.words import Presentation, letter_gen
from helpers import flip_generator


def extremal_multiset(rel: int, word, profile: list, target, mode) -> MinimaMultiset:
    """The multiset of relator ``rel`` (letters ``word``) from its prefix
    profile, which ends at the identity.

    Letter t counts when v_{t-1} or v_t is the extremum.  Each prefix
    value is compared with the extremum once; v_0, the identity, takes
    the answer of v_l, which is the identity too.
    """
    if not profile:
        raise ValueError("empty relator has no extremal multiset")
    want = LT if mode == MIN else GT
    extremum = profile[0]
    for v in profile[1:]:
        if target.compare(v, extremum) == want:
            extremum = v
    at = [target.equals(v, extremum) for v in profile]
    counts: dict[int, list[int]] = {}
    prev = at[-1]
    for x, here in zip(word, at):
        if prev or here:
            g = letter_gen(x)
            pair = counts.setdefault(g, [0, 0])
            pair[0 if x > 0 else 1] += 1
        prev = here
    return MinimaMultiset(
        relator=rel,
        mode=mode,
        extremum=extremum,
        counts={g: (p, n) for g, (p, n) in counts.items()},
    )


def check_assignment_oracle(
    pres: Presentation,
    pres_hyps: tuple[HypothesisResult, ...],
    target: OrderedTarget,
    assignment: TargetAssignment,
    mode: str = MIN,
    outcomes: dict | None = None,
) -> CheckVerdict:
    """Check one assignment on a presentation whose own hypotheses
    ``pres_hyps`` (from :func:`presentation_hypotheses`) are known.

    Integer targets are normalized first: generators with negative weight
    are flipped (and their weights negated), so the profile rules apply in
    their nonnegative form.

    Each relator's prefix profile is computed once and serves both steps:
    its last value decides ``assignment-well-defined`` (the relator's
    image), and the whole list gives the extremal multiset.

    ``outcomes``, when given, maps the key of a multiset tuple (relator,
    mode and sorted counts of each multiset) to its
    :func:`weak_concatenability` outcome.  The outcome depends on nothing
    else, so a caller that checks many assignments decides each distinct
    tuple once by passing the same dict to every call.
    """
    hyps: list[HypothesisResult] = list(pres_hyps)

    def failed() -> CheckVerdict:
        return CheckVerdict(
            "hypothesis-failure", tuple(hyps), frozenset(), None, mode, None, None, None
        )

    if hyps[-1].status == "fail":
        return failed()

    flips: frozenset[int] = frozenset()
    work_pres = pres
    work_assignment = assignment
    if isinstance(target, IntTarget):
        weights = [assignment.image(j) for j in range(len(pres.generators))]
        gcd = math.gcd(*[abs(w) for w in weights]) if any(weights) else 0
        if gcd != 1:
            hyps.append(
                HypothesisResult(
                    "weights-surjective", "fail", f"gcd of weights is {gcd}, not 1"
                )
            )
            return failed()
        hyps.append(HypothesisResult("weights-surjective", "pass", "gcd of weights is 1"))
        flips = frozenset(j for j, w in enumerate(weights) if w < 0)
        for j in flips:
            work_pres = flip_generator(work_pres, j)
        work_assignment = TargetAssignment.from_weights(work_pres, [abs(w) for w in weights])
        if flips:
            names = ", ".join(pres.generators[j] for j in sorted(flips))
            hyps.append(
                HypothesisResult("weights-nonnegative", "pass", f"flipped: {names}")
            )
        else:
            hyps.append(HypothesisResult("weights-nonnegative", "pass", "no flips needed"))
    else:
        hyps.append(
            HypothesisResult(
                "map-surjective", "assumed", "not checked for non-integer targets"
            )
        )
        hyps.append(HypothesisResult("target-locally-indicable", "assumed", target.name))

    profiles = [_profile(r, target, work_assignment) for r in work_pres.relators]
    ident = target.identity()
    if not all(target.equals(p[-1], ident) for p in profiles if p):
        hyps.append(
            HypothesisResult(
                "assignment-well-defined", "fail", "a relator has a nontrivial image"
            )
        )
        return failed()
    hyps.append(
        HypothesisResult("assignment-well-defined", "pass", "all relators map to identity")
    )

    multisets = tuple(
        extremal_multiset(i, r, p, target, mode)
        for i, (r, p) in enumerate(zip(work_pres.relators, profiles))
    )
    if outcomes is None:
        outcomes = {}
    key = tuple((m.relator, m.mode, tuple(sorted(m.counts.items()))) for m in multisets)
    outcome = outcomes.get(key)
    if outcome is None:
        outcome = outcomes[key] = weak_concatenability(multisets)
    concatenable = isinstance(outcome, ConcatCertificate)
    return CheckVerdict(
        "concatenable" if concatenable else "not-concatenable",
        tuple(hyps),
        flips,
        work_assignment,
        mode,
        multisets,
        outcome if concatenable else None,
        None if concatenable else outcome,
    )
