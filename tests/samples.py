"""Shared worked presentations used across the test suite."""

from npicheck import parse_presentation

SAMPLE_A_TEXT = (
    "gens: a b c\n"
    "rel: a^-1 b\n"
    "rel: c^-1 b^-1 c a b a^-1 c^-1 b^-1 c^2\n"
)

SAMPLE_B_TEXT = (
    "gens: a b c\n"
    "rel: a^-1 c^-1 a a a b^-1 b^-1 c^-1 a b\n"
    "rel: c^-1 b^-1 c b^-1 c a b a^-1 b a^-1\n"
)

SAMPLE_BRAID_TEXT = (
    "gens: x y z\n"
    "rel: x^-1 z^4 x z^-3 y z y^-1 z^-1 y^-1\n"
    "rel: y^-1 x^-1 y^-1 z^-1 x z y z x z^-1\n"
)

TORSION_TEXT = "gens: a\nrel: a^2\n"

LOT_SINGLE_EDGE_TEXT = "vertices: a b c\nedge: a b c\n"

# Two H1 rank 3 forests that no weight map in the box certifies: each
# report keeps 145 attempts and ends with an Adian verdict (Thm 4.1).
FOREST7R3_2_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5 v6\n"
    "rel: v6^-1 v0^-1 v4 v0\n"
    "rel: v3^-1 v4^-1 v0 v4\n"
    "rel: v5^-1 v3^-1 v6 v3\n"
    "rel: v3^-1 v6^-1 v5 v6\n"
)

FOREST7R3_8_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5 v6\n"
    "rel: v2^-1 v1^-1 v3 v1\n"
    "rel: v4^-1 v6^-1 v0 v6\n"
    "rel: v0^-1 v6^-1 v1 v6\n"
    "rel: v1^-1 v0^-1 v6 v0\n"
)

# A third H1 rank 3 forest (forest7r3-3 of the wide-presentations workload
# at seed 1), not decided in either mode: its 145 attempts, 96 of them
# with flips, hold 9 distinct bodies.
FOREST7R3_3_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5 v6\n"
    "rel: v5^-1 v4^-1 v3 v4\n"
    "rel: v5^-1 v2^-1 v1 v2\n"
    "rel: v2^-1 v6^-1 v5 v6\n"
    "rel: v6^-1 v2^-1 v1 v2\n"
)


def sample_a():
    return parse_presentation(SAMPLE_A_TEXT)


def sample_b():
    return parse_presentation(SAMPLE_B_TEXT)


def sample_braid():
    return parse_presentation(SAMPLE_BRAID_TEXT)


def torsion_presentation():
    return parse_presentation(TORSION_TEXT)


# B4 defining relators as sigma-words: x-z commute, x-y braid, y-z braid.
B4_RELATORS = [
    (1, 3, -1, -3),
    (1, 2, 1, -2, -1, -2),
    (2, 3, 2, -3, -2, -3),
]
