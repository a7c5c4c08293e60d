"""Stuck-core replay as it was before it kept a count of holders, kept
verbatim (but for its name) as a differential oracle for
:func:`npicheck.minima.replay_stuck_core`.

It rebuilds the union of the other relators' supports for every member of
the core and for every candidate of every peeling round, and peels one
relator per round, so it takes time cubic in the number of relators in
the worst order.
"""

from __future__ import annotations

from npicheck.minima import _usable


def replay_stuck_core_oracle(core, multisets) -> tuple[bool, str]:
    """Check a stuck core against raw multisets, by plain rounds of peeling.

    A nonempty core whose every member has all its usable generators inside
    the supports of the other members rules out every ordering: the member
    placed last among them has no fresh witness.  The relators outside the
    core must peel, which makes the core the unique maximal such set.
    """
    by_rel = {m.relator: m for m in multisets}
    support = {rel: m.support() for rel, m in by_rel.items()}
    usable = {rel: _usable(m) for rel, m in by_rel.items()}
    core = list(core)
    if not core:
        return False, "an empty core witnesses nothing"
    if len(set(core)) != len(core) or not set(core) <= set(by_rel):
        return False, "core is not a set of relators"
    for rel in core:
        others = set().union(*(support[j] for j in core if j != rel))
        free = [g for g in usable[rel] if g not in others]
        if free:
            return False, f"relator {rel} can go last in the core with witness {free[0]}"
    live = set(by_rel)
    outside = live - set(core)
    while outside:
        for rel in sorted(outside):
            others = set().union(*(support[j] for j in live if j != rel))
            if any(g not in others for g in usable[rel]):
                live.remove(rel)
                outside.remove(rel)
                break
        else:
            return False, f"relators {sorted(outside)} outside the core do not peel"
    return True, "stuck core replays"
