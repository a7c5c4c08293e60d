"""Weak concatenability as it was decided before the certificate was read
off the peeling, kept verbatim (but for its name) as a differential oracle
for :func:`npicheck.minima.weak_concatenability`.

It peels once to decide, then builds the certificate forward: it tries the
lowest relator whose placement keeps the rest peelable, with one full
peeling per try, so it takes time quadratic in the number of relators.
"""

from __future__ import annotations

from npicheck.minima import (
    ConcatCertificate,
    ConcatFailure,
    WitnessStep,
    _usable,
    replay_certificate,
    replay_stuck_core,
)


def _stuck(usable, supports, rest, blocked) -> set[int]:
    """What is left of the relator indices ``rest`` when peeling stops.

    A relator peels when it has a usable generator that is neither blocked
    nor in the support of another remaining relator, so it can go last.
    Placing a relator after a set S only needs a witness outside the
    supports of S, and shrinking S never blocks it; so peeling a relator
    that can go last loses no ordering, and ``rest`` can be ordered after
    ``blocked`` iff nothing is left.  Sets with no peelable member are
    closed under union, so what is left is the unique maximal one.
    """
    left = set(rest)
    holders: dict[int, set[int]] = {}
    for i in left:
        for g in supports[i]:
            holders.setdefault(g, set()).add(i)
    queue = [
        i for i in left if any(g not in blocked and len(holders[g]) == 1 for g in usable[i])
    ]
    while queue:
        i = queue.pop()
        if i not in left:
            continue
        left.remove(i)
        for g in supports[i]:
            holders[g].discard(i)
            if len(holders[g]) == 1 and g not in blocked:
                (j,) = holders[g]
                if g in usable[j]:
                    queue.append(j)
    return left


def forward_weak_concatenability(multisets) -> ConcatCertificate | ConcatFailure:
    """Decide weak concatenability by peeling.

    A relator i can be placed after a set S of relators iff it has a
    witness generator outside the supports of S with unequal positive and
    negative copies.  The multisets are concatenable iff every relator
    peels (see ``_stuck``).  The certificate is built forward with
    deterministic tie-breaking, lowest relator index first and then lowest
    generator index, taking a placement only when the rest still peels;
    otherwise the stuck core is returned.
    """
    k = len(multisets)
    if k == 0:
        return ConcatCertificate((), ())
    if len({m.mode for m in multisets}) != 1:
        raise ValueError("all multisets must share one mode")
    supports = [m.support() for m in multisets]
    usable = [_usable(m) for m in multisets]
    core = _stuck(usable, supports, range(k), frozenset())
    if core:
        failure = ConcatFailure(tuple(sorted(multisets[i].relator for i in core)))
        ok, why = replay_stuck_core(failure.stuck_core, multisets)
        if not ok:
            raise AssertionError(f"stuck core does not replay: {why}")
        return failure

    ordering: list[int] = []
    witnesses: list[WitnessStep] = []
    rest = set(range(k))
    blocked: set[int] = set()
    while rest:
        for i in sorted(rest):
            g = next((g for g in usable[i] if g not in blocked), None)
            if g is None or _stuck(usable, supports, rest - {i}, blocked | supports[i]):
                continue
            p, n = multisets[i].counts[g]
            ordering.append(multisets[i].relator)
            witnesses.append(WitnessStep(g, p, n))
            rest.remove(i)
            blocked |= supports[i]
            break
        else:
            raise AssertionError("no placement keeps the remaining relators peelable")
    cert = ConcatCertificate(tuple(ordering), tuple(witnesses))
    ok, why = replay_certificate(cert, multisets)
    if not ok:
        raise AssertionError(f"constructed certificate does not replay: {why}")
    return cert
