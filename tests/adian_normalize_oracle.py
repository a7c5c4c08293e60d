"""The Adian normalizer before it found the runs of a relator in one pass,
kept verbatim (but for its name and the rotation that pairs no longer
carry) as a differential oracle for :func:`npicheck.logs.adian_normalize`.

It tries every rotation and rescans the rotated word, so it takes time
quadratic in the relator length.
"""

from __future__ import annotations

from npicheck.logs import AdianForm, AdianPair, NotAdian
from npicheck.words import Presentation, rotate_word


def adian_normalize_oracle(pres: Presentation) -> AdianForm:
    """Decompose every relator as u v^-1 with u, v nonempty positive words.

    A cyclic word admits such a rotation iff it has exactly one positive
    and one negative run, which makes the decomposition canonical.
    """
    pairs: list[AdianPair] = []
    for idx, rel in enumerate(pres.relators):
        found = None
        for k in range(len(rel)):
            rot = rotate_word(rel, k)
            split = None
            for pos in range(1, len(rot)):
                if rot[pos] < 0:
                    split = pos
                    break
            if rot and rot[0] > 0 and split is not None and all(x < 0 for x in rot[split:]):
                found = (rot, split, k)
                break
        if found is None:
            raise NotAdian(
                f"relator {idx} is not cyclically (positive block)(negative block)"
            )
        rot, split, k = found
        u = rot[:split]
        v = tuple(-x for x in reversed(rot[split:]))
        pairs.append(AdianPair(u, v))
    return AdianForm(pres.generators, pairs)
