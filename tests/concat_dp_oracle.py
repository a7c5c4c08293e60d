"""The subset dynamic program that decided weak concatenability before
peeling replaced it, kept verbatim as a differential oracle for
:func:`npicheck.minima.weak_concatenability`.

It walks all 2^k placement states, so it is only usable for small k.
Its failure value lists the inclusion-maximal placeable relator subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

from npicheck.minima import ConcatCertificate, WitnessStep, replay_certificate


@dataclass(frozen=True)
class ConcatFailure:
    """Inclusion-maximal placeable subsets; the full set is unreachable."""

    maximal_reachable: tuple[tuple[int, ...], ...]


def dp_weak_concatenability(multisets) -> ConcatCertificate | ConcatFailure:
    """Subset dynamic program over placement states.

    A state S is reachable iff S is empty or some relator i in S admits a
    witness generator outside the supports of S minus i with unequal
    positive/negative copies.  The returned certificate uses deterministic
    tie-breaking: lowest relator index first, then lowest generator index.
    """
    k = len(multisets)
    if k == 0:
        return ConcatCertificate((), ())
    if len({m.mode for m in multisets}) != 1:
        raise ValueError("all multisets must share one mode")
    if k > 20:
        raise ValueError("placement search is desk-scale (k <= 20)")
    supports = [m.support() for m in multisets]
    usable = [
        sorted(g for g, (p, n) in m.counts.items() if p + n > 0 and p != n)
        for m in multisets
    ]
    union: list[frozenset[int]] = [frozenset()] * (1 << k)
    for s in range(1, 1 << k):
        low = (s & -s).bit_length() - 1
        union[s] = union[s & (s - 1)] | supports[low]

    def placeable(state: int, i: int) -> int | None:
        blocked = union[state]
        for g in usable[i]:
            if g not in blocked:
                return g
        return None

    full = (1 << k) - 1
    completable = [False] * (1 << k)
    completable[full] = True
    for state in range(full - 1, -1, -1):
        for i in range(k):
            if state & (1 << i):
                continue
            if completable[state | (1 << i)] and placeable(state, i) is not None:
                completable[state] = True
                break

    if completable[0]:
        ordering: list[int] = []
        witnesses: list[WitnessStep] = []
        state = 0
        while state != full:
            for i in range(k):
                bit = 1 << i
                if state & bit:
                    continue
                g = placeable(state, i)
                if g is not None and completable[state | bit]:
                    p, n = multisets[i].counts[g]
                    ordering.append(multisets[i].relator)
                    witnesses.append(WitnessStep(g, p, n))
                    state |= bit
                    break
        cert = ConcatCertificate(tuple(ordering), tuple(witnesses))
        ok, why = replay_certificate(cert, multisets)
        if not ok:
            raise AssertionError(f"constructed certificate does not replay: {why}")
        return cert

    reachable = {0}
    frontier = [0]
    while frontier:
        state = frontier.pop()
        for i in range(k):
            bit = 1 << i
            if state & bit or placeable(state, i) is None:
                continue
            nxt = state | bit
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)
    maximal = [
        s for s in reachable if not any(t != s and t & s == s for t in reachable)
    ]
    as_tuples = sorted(
        tuple(multisets[i].relator for i in range(k) if s & (1 << i)) for s in maximal
    )
    return ConcatFailure(tuple(as_tuples))
