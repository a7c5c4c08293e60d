"""The lexicographic target Z^d, as ``--target zlex:<d>`` ran it before the
target was removed, kept verbatim (but for its ``local_indicability``
attribute, which nothing reads any more) as the oracle of the differential
test of its integer lowering.

A multiset depends only on how a relator's prefix values compare.  On the
finitely many prefix vectors of a presentation, the lexicographic order
and equality are those of psi(x) = sum of N^(d-i) x_i, once N exceeds
every difference of two coordinates, and dividing psi by the gcd of its
weights keeps every comparison.  So a map to Z^d under this target has the
multisets, the certificate or stuck core, and the verdict of the integer
map psi/gcd (:func:`lexicographic_weights` gives psi).
"""

from __future__ import annotations

from npicheck.orders import EQ, GT, LT, OrderedTarget


class LexTarget(OrderedTarget):
    """Z^d with componentwise addition and lexicographic order."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = dim
        self.name = f"zlex:{dim}"

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.dim

    def multiply(self, g, h):
        return tuple(a + b for a, b in zip(g, h))

    def inverse(self, g):
        return tuple(-a for a in g)

    def compare(self, g, h) -> int:
        return LT if g < h else GT if g > h else EQ


def lexicographic_weights(relators, images: list[tuple[int, ...]]) -> tuple[int, ...]:
    """The integer map psi of the map sending generator j to ``images[j]``
    in Z^d, not yet divided by its gcd: the base N exceeds every coordinate
    difference between two prefix vectors of one relator, the identity
    included."""
    spread = 0
    for word in relators:
        acc = [0] * len(images[0])
        prefixes = [tuple(acc)]
        for x in word:
            sign, img = (1, images[x - 1]) if x > 0 else (-1, images[-x - 1])
            acc = [a + sign * b for a, b in zip(acc, img)]
            prefixes.append(tuple(acc))
        for coords in zip(*prefixes):
            spread = max(spread, max(coords) - min(coords))
    base = spread + 1
    return tuple(sum(c * base ** (len(v) - 1 - i) for i, c in enumerate(v)) for v in images)
