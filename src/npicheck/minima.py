"""Prefix-weight profiles, multisets of minima/maxima, and the weak
concatenability decision with replayable certificates.

The profile of a relator r is v_1, ..., v_l with v_t the image of the
length-t prefix; v_l is the identity because relators die under the
homomorphism.  In Min mode the extremum m is the order-minimum of the
profile.  Each boundary step whose endpoint pair {v_{t-1}, v_t} touches m
contributes a copy of its generator, tagged by the letter's sign (v_0 is
the identity and enters only as the value before letter 1).  The rule is
the same for every left-ordered target, integer weights of either sign
included.  Max mode replaces the minimum by the maximum, so the Max-mode
multisets under phi are the Min-mode multisets under -phi.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from typing import NamedTuple

from .homology import H1Structure, is_generalized_wirtinger
from .orders import (
    EQ,
    GT,
    LT,
    IntTarget,
    OrderedTarget,
    TargetAssignment,
)
from .words import Presentation, letter_gen, validate

MIN = "min"  # also imported by the ring-k16 probe (perfbench/probes.py)
MAX = "max"


def _profile(word, target: OrderedTarget, assignment: TargetAssignment) -> list:
    """Images of the initial subwords of ``word`` (length-1 up to full)."""
    out = []
    acc = target.identity()
    for x in word:
        img = assignment.image(letter_gen(x))
        acc = target.multiply(acc, img if x > 0 else target.inverse(img))
        out.append(acc)
    return out


# The ring-k16 probe (perfbench/probes.py) builds these records directly.
class MinimaMultiset(NamedTuple):
    """Per-relator copies of generators at the extremal prefix level."""

    relator: int
    mode: str
    extremum: object
    counts: dict  # 0-based gen index -> (positive copies, negative copies)

    def support(self) -> frozenset[int]:
        return frozenset(g for g, (p, n) in self.counts.items() if p + n > 0)

    def total(self) -> int:
        return sum(p + n for p, n in self.counts.values())


def _extremal_counts(word, at) -> dict:
    """Copies of each generator at the extremum, as (positive, negative)
    per 0-based generator index: letter t counts when v_{t-1} or v_t is
    the extremum, where ``at`` flags v_1, ..., v_l.  v_0, the identity,
    takes the flag of v_l, which is the identity too."""
    counts: dict[int, list[int]] = {}
    prev = at[-1]
    for x, here in zip(word, at):
        if prev or here:
            counts.setdefault(abs(x) - 1, [0, 0])[x < 0] += 1
        prev = here
    return {g: (p, n) for g, (p, n) in counts.items()}


def _extremal_multiset(rel: int, word, profile: list, target, mode) -> MinimaMultiset:
    """The multiset of relator ``rel`` (letters ``word``) from its prefix
    profile, which ends at the identity.

    Each prefix value is compared once, with the extremum so far, and that
    comparison also gives its flag.  A value compared before the last
    strict improvement is strictly worse than the extremum, since every
    improvement is strict; a value compared after it is the extremum iff
    the comparison says equal."""
    if not profile:
        raise ValueError("empty relator has no extremal multiset")
    want = LT if mode == MIN else GT
    extremum = profile[0]
    at = [True]
    last = 0  # index of the last strict improvement
    for t in range(1, len(profile)):
        c = target.compare(profile[t], extremum)
        if c == want:
            extremum, last = profile[t], t
        at.append(c == want or c == EQ)
    at[:last] = [False] * last
    return MinimaMultiset(rel, mode, extremum, _extremal_counts(word, at))


class WitnessStep(NamedTuple):
    gen: int
    positive: int
    negative: int


class ConcatCertificate(NamedTuple):
    """Replayable ordering of relators with a fresh unbalanced witness each."""

    ordering: tuple[int, ...]
    witnesses: tuple[WitnessStep, ...]


class ConcatFailure(NamedTuple):
    """The stuck core: the unique maximal set of relators none of which can
    be placed after all the others (sorted relator ids, never empty)."""

    stuck_core: tuple[int, ...]


def replay_certificate(cert: ConcatCertificate, multisets) -> tuple[bool, str]:
    """Check a certificate step by step against raw multisets."""
    k = len(multisets)
    if sorted(cert.ordering) != sorted(m.relator for m in multisets):
        return False, "ordering is not a permutation of the relators"
    if len(cert.witnesses) != k:
        return False, "one witness required per step"
    by_rel = {m.relator: m for m in multisets}
    used: set[int] = set()
    for step, (rel, wit) in enumerate(zip(cert.ordering, cert.witnesses)):
        mult = by_rel[rel]
        p, n = mult.counts.get(wit.gen, (0, 0))
        if p + n == 0:
            return False, f"step {step}: witness not in the multiset of relator {rel}"
        if (p, n) != (wit.positive, wit.negative):
            return False, f"step {step}: witness counts do not match the multiset"
        if p == n:
            return False, f"step {step}: positive and negative copies are equal"
        if wit.gen in used:
            return False, f"step {step}: witness generator already used earlier"
        used |= mult.support()
    return True, "certificate replays"


def _usable(m: MinimaMultiset) -> list[int]:
    """Generators that can witness a placement: unequal copy counts."""
    return sorted(g for g, (p, n) in m.counts.items() if p + n > 0 and p != n)


def replay_stuck_core(core, multisets) -> tuple[bool, str]:
    """Check a stuck core against raw multisets, by peeling what is
    outside it.

    A nonempty core whose every member has all its usable generators inside
    the supports of the other members rules out every ordering: the member
    placed last among them has no fresh witness.  The relators outside the
    core must peel, which makes the core the unique maximal such set.

    A count of holders per generator stands for the union of the other
    relators' supports: a usable generator of a relator lies in its own
    support, so it lies in another's iff more than one relator holds it.
    A relator outside the core peels when it holds one of its usable
    generators alone; removing one never stops another, so what is left
    when no relator peels is the same in every order.  A relator can
    become able to peel only when the count of a generator it holds drops
    to 1, so a worklist of those relators, with every relator outside the
    core on it at the start, finds every peel.  Each generator drops to 1
    at most once, so a relator is looked at once more at most per
    generator it holds: for supports of bounded size the replay is linear
    in the number of relators.
    """
    by_rel = {m.relator: m for m in multisets}
    support = {rel: m.support() for rel, m in by_rel.items()}
    usable = {rel: _usable(m) for rel, m in by_rel.items()}
    core = list(core)
    if not core:
        return False, "an empty core witnesses nothing"
    if len(set(core)) != len(core) or not set(core) <= set(by_rel):
        return False, "core is not a set of relators"
    held = Counter(g for rel in core for g in support[rel])
    for rel in core:
        free = [g for g in usable[rel] if held[g] == 1]
        if free:
            return False, f"relator {rel} can go last in the core with witness {free[0]}"
    outside = set(by_rel) - set(core)
    holders: dict[int, list[int]] = {}  # generator -> relators outside the core
    for rel in outside:
        for g in support[rel]:
            held[g] += 1
            holders.setdefault(g, []).append(rel)
    work = list(outside)
    while work:
        rel = work.pop()
        if rel in outside and any(held[g] == 1 for g in usable[rel]):
            outside.remove(rel)
            for g in support[rel]:
                held[g] -= 1
                if held[g] == 1:
                    work += holders[g]
    if outside:
        return False, f"relators {sorted(outside)} outside the core do not peel"
    return True, "stuck core replays"


# Public for the ring-k16 probe (perfbench/probes.py), which calls it directly.
def weak_concatenability(multisets) -> ConcatCertificate | ConcatFailure:
    """Decide weak concatenability by peeling, and read the certificate or
    the stuck core off the one pass.

    A relator i can be placed after a set S of relators iff it has a
    witness generator outside the supports of S with unequal positive and
    negative copies.  A relator peels when it has such a witness in no
    other remaining relator's support, so it can go last among them.
    Shrinking S never blocks a placement, so peeling a relator that can go
    last loses no ordering: the multisets are concatenable iff every
    relator peels.  Sets with no peelable member are closed under union,
    so what is left when peeling stops is the unique maximal one, the
    stuck core.

    Otherwise the reverse of the peeling order is the certificate, with
    the witness each relator peeled with as its step: the relators before
    i in it are the ones still remaining when i peeled, and its witness
    lies in none of their supports.  The highest ready relator index peels
    first, with its lowest witness.  A ready relator keeps its witness
    until it peels, since it stays the witness's only holder.
    """
    k = len(multisets)
    if k == 0:
        return ConcatCertificate((), ())
    if len({m.mode for m in multisets}) != 1:
        raise ValueError("all multisets must share one mode")
    supports = [m.support() for m in multisets]
    usable = [_usable(m) for m in multisets]
    holders: dict[int, set[int]] = {}
    for i, support in enumerate(supports):
        for g in support:
            holders.setdefault(g, set()).add(i)
    ready = [-i for i in range(k) if any(len(holders[g]) == 1 for g in usable[i])]
    heapq.heapify(ready)  # a max-heap of relator indices
    left = set(range(k))
    peeled: list[tuple[int, int]] = []  # (relator index, witness), in peeling order
    while ready:
        i = -heapq.heappop(ready)
        if i not in left:
            continue
        left.remove(i)
        peeled.append((i, next(g for g in usable[i] if len(holders[g]) == 1)))
        for g in supports[i]:
            holders[g].discard(i)
            if len(holders[g]) == 1:
                (j,) = holders[g]
                if g in usable[j]:
                    heapq.heappush(ready, -j)
    if left:
        failure = ConcatFailure(tuple(sorted(multisets[i].relator for i in left)))
        ok, why = replay_stuck_core(failure.stuck_core, multisets)
        if not ok:
            raise AssertionError(f"stuck core does not replay: {why}")
        return failure

    peeled.reverse()
    cert = ConcatCertificate(
        tuple(multisets[i].relator for i, _ in peeled),
        tuple(WitnessStep(g, *multisets[i].counts[g]) for i, g in peeled),
    )
    ok, why = replay_certificate(cert, multisets)
    if not ok:
        raise AssertionError(f"constructed certificate does not replay: {why}")
    return cert


class HypothesisResult(NamedTuple):
    key: str
    status: str  # "pass" | "fail" | "assumed"
    detail: str


class CheckVerdict(NamedTuple):
    """Outcome of the full concatenability pipeline for one assignment."""

    status: str  # "concatenable" | "not-concatenable" | "hypothesis-failure"
    hypotheses: tuple[HypothesisResult, ...]
    flips: frozenset[int]  # generators of negative integer weight
    assignment: TargetAssignment | None
    mode: str
    multisets: tuple[MinimaMultiset, ...] | None
    certificate: ConcatCertificate | None
    failure: ConcatFailure | None


def presentation_hypotheses(
    pres: Presentation,
) -> tuple[tuple[HypothesisResult, ...], H1Structure | None]:
    """The hypotheses that depend on the presentation alone, checked once
    for every weight map tried on it: validity, then H1 free abelian of
    rank n - k.  A failing entry is the last one.

    Returned with the H1 structure they read, None for an invalid
    presentation.  The structure carries the kernel basis of the relator
    part, from which the weight search reads its maps."""
    diags = validate(pres)
    if diags:
        return (
            HypothesisResult(
                "presentation-valid", "fail", "; ".join(str(d) for d in diags)
            ),
        ), None
    wirt = is_generalized_wirtinger(pres)
    return (
        HypothesisResult("presentation-valid", "pass", "relators cyclically reduced"),
        HypothesisResult(
            "h1-free-abelian-rank-n-k", "pass" if wirt.ok else "fail", wirt.reason
        ),
    ), wirt.h1


# perfbench/run.py reads calls["minima.check_presentation"] in layer_metrics.
def check_presentation(
    pres: Presentation,
    target: OrderedTarget,
    assignment: TargetAssignment,
    mode: str = MIN,
) -> CheckVerdict:
    """Run every hypothesis check and decide weak concatenability."""
    return check_assignment(pres, presentation_hypotheses(pres)[0], target, assignment, mode)


def check_assignment(
    pres: Presentation,
    pres_hyps: tuple[HypothesisResult, ...],
    target: OrderedTarget,
    assignment: TargetAssignment,
    mode: str = MIN,
    outcomes: dict | None = None,
) -> CheckVerdict:
    """Check one assignment on a presentation whose own hypotheses
    ``pres_hyps`` (the first item of :func:`presentation_hypotheses`) are known.

    For integer targets each relator's profile is the running sum of its
    signed letter weights (:func:`_integer_profile`), in the frame of
    ``pres``: its last value is the relator's image, and the whole list
    gives the extremal multiset.  The generators of negative weight are
    only recorded, as ``flips``: the report writes their copy counts
    inverted, as the counts of the presentation with those generators
    inverted.

    For other targets each relator's prefix profile is computed once
    through the target's operations and serves both steps: its last value
    decides ``assignment-well-defined`` (the relator's image), and the
    whole list gives the extremal multiset.

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

    if isinstance(target, IntTarget):
        weights = [assignment.image(j) for j in range(len(pres.generators))]
        gcd = math.gcd(*weights) if any(weights) else 0
        if gcd != 1:
            hyps.append(
                HypothesisResult(
                    "weights-surjective", "fail", f"gcd of weights is {gcd}, not 1"
                )
            )
            return failed()
        hyps.append(HypothesisResult("weights-surjective", "pass", "gcd of weights is 1"))
        flips = frozenset(j for j, w in enumerate(weights) if w < 0)
        names = ", ".join(pres.generators[j] for j in sorted(flips))
        hyps.append(HypothesisResult(
            "weights-nonnegative", "pass", f"flipped: {names}" if flips else "no flips needed"
        ))
        multisets = _integer_multisets(pres.relators, weights, mode)
    else:
        flips = frozenset()
        hyps.append(
            HypothesisResult(
                "map-surjective", "assumed", "not checked for non-integer targets"
            )
        )
        hyps.append(HypothesisResult("target-locally-indicable", "assumed", target.name))
        multisets = _ordered_multisets(pres.relators, target, assignment, mode)

    if multisets is None:
        hyps.append(
            HypothesisResult(
                "assignment-well-defined", "fail", "a relator has a nontrivial image"
            )
        )
        return failed()
    hyps.append(
        HypothesisResult("assignment-well-defined", "pass", "all relators map to identity")
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
        assignment,
        mode,
        multisets,
        outcome if concatenable else None,
        None if concatenable else outcome,
    )


def _ordered_multisets(relators, target: OrderedTarget, assignment, mode: str):
    """The extremal multiset of every relator through the target's
    operations, or None when a relator has a nontrivial image."""
    profiles = [_profile(r, target, assignment) for r in relators]
    ident = target.identity()
    if not all(target.equals(p[-1], ident) for p in profiles if p):
        return None
    return tuple(
        _extremal_multiset(i, r, p, target, mode)
        for i, (r, p) in enumerate(zip(relators, profiles))
    )


def _integer_profile(word, weights) -> list[int]:
    """The prefix profile of ``word`` under integer weights of either
    sign: the running sums of its signed letter weights."""
    out = []
    acc = 0
    for x in word:
        acc += weights[x - 1] if x > 0 else -weights[-x - 1]
        out.append(acc)
    return out


def _integer_multisets(relators, weights, mode: str):
    """The extremal multisets of :func:`_ordered_multisets` over the
    integers, or None when a relator's weight is not zero."""
    extreme = min if mode == MIN else max
    out = []
    for i, word in enumerate(relators):
        profile = _integer_profile(word, weights)
        if not profile:
            raise ValueError("empty relator has no extremal multiset")
        if profile[-1]:
            return None
        m = extreme(profile)
        out.append(MinimaMultiset(i, mode, m, _extremal_counts(word, [v == m for v in profile])))
    return tuple(out)
