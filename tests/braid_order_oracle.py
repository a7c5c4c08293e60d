"""The former braid sign and extremal multiset, kept verbatim (but for
their names) as differential oracles for :func:`npicheck.orders.braid_sign`
and ``npicheck.minima._extremal_multiset``.

``braid_sign`` handle reduces every word before it reads the sign of its
lowest generator; the current one reads that sign at once when the
generator occurs with one sign only (Property A).  ``extremal_multiset``
finds the extremum in one pass and then flags every prefix value with
``target.equals`` in a second, so it compares each prefix twice; the
current one takes the flags from the comparisons of the first pass.
"""

from __future__ import annotations

from npicheck.minima import MIN, MinimaMultiset, _extremal_counts
from npicheck.orders import GT, LT, NEGATIVE, POSITIVE, TRIVIAL, handle_reduce


def braid_sign(word, n_strands: int) -> str:
    """Dehornoy trichotomy class of a braid word."""
    w = handle_reduce(word, n_strands)
    if not w:
        return TRIVIAL
    main = min(abs(x) for x in w)
    signs = {x > 0 for x in w if abs(x) == main}
    if len(signs) != 1:
        raise AssertionError("handle-free word with mixed main-generator signs")
    return POSITIVE if signs.pop() else NEGATIVE


def extremal_multiset(rel: int, word, profile: list, target, mode) -> MinimaMultiset:
    """The multiset of relator ``rel`` (letters ``word``) from its prefix
    profile, which ends at the identity.  Each prefix value is compared
    with the extremum once."""
    if not profile:
        raise ValueError("empty relator has no extremal multiset")
    want = LT if mode == MIN else GT
    extremum = profile[0]
    for v in profile[1:]:
        if target.compare(v, extremum) == want:
            extremum = v
    at = [target.equals(v, extremum) for v in profile]
    return MinimaMultiset(rel, mode, extremum, _extremal_counts(word, at))
