"""The integer weight route's attempt loop as it was before attempts with
one outcome shared an entry body, kept as a differential oracle for
``report._presentation_route``.

It builds a fresh ``report._verdict_to_entry`` for every map it tries, in
the order of ``homology._weight_stream``, deciding each distinct multiset
tuple once through one shared ``outcomes`` dict, and stops at the first
map whose verdict is not ``not-concatenable``.
"""

from __future__ import annotations

from npicheck.homology import _weight_stream
from npicheck.minima import check_assignment, presentation_hypotheses
from npicheck.orders import IntTarget, TargetAssignment
from npicheck.report import _verdict_to_entry
from npicheck.words import Presentation


def fresh_attempts(pres: Presentation, mode: str) -> list[dict]:
    """The ``attempts`` of the ``--phi auto`` report of a valid
    presentation whose H1 admits a surjection to the integers."""
    pres_hyps, h1 = presentation_hypotheses(pres)
    target = IntTarget()
    outcomes: dict = {}
    attempts = []
    for h in _weight_stream(h1.smith):
        cand = TargetAssignment.from_weights(pres, h.weights)
        verdict = check_assignment(pres, pres_hyps, target, cand, mode, outcomes)
        entry = _verdict_to_entry(pres, verdict)
        entry["weights"] = {name: cand.image(j) for j, name in enumerate(pres.generators)}
        attempts.append(entry)
        if verdict.status != "not-concatenable":
            break
    return attempts
