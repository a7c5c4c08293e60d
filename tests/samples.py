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

# Two H1 rank 3 forests (forest7r3-2 and forest7r3-8 of the
# wide-presentations workload at seed 1) that no weight map certifies in
# min mode: each report ends with an Adian verdict (Thm 4.1).  Their
# relators leave v1, v2 and v5 unused, so the weight search walks the box
# of the relator part alone: 1 and 16 attempts.
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
# at seed 1), not decided in either mode.  No relator uses v0, so its
# reports keep the 16 attempts of the relator part's box, with 4 distinct
# bodies.
FOREST7R3_3_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5 v6\n"
    "rel: v5^-1 v4^-1 v3 v4\n"
    "rel: v5^-1 v2^-1 v1 v2\n"
    "rel: v2^-1 v6^-1 v5 v6\n"
    "rel: v6^-1 v2^-1 v1 v2\n"
)

# Three H1 rank 3 forests whose relators use every generator, so that
# the weight search walks the whole box of H1 rank 3: 145 maps, whose
# attempts share 13 distinct bodies.  No map certifies A or B in min
# mode, and each report ends with an Adian verdict (Thm 4.1); in max
# mode all-ones certifies them.  C is not decided in either mode.
BOX_FOREST_A_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5 v6\n"
    "rel: v0^-1 v2^-1 v5 v2\n"
    "rel: v4^-1 v6^-1 v3 v6\n"
    "rel: v5^-1 v1^-1 v2 v1\n"
    "rel: v5^-1 v2^-1 v1 v2\n"
)

BOX_FOREST_B_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5 v6\n"
    "rel: v4^-1 v0^-1 v3 v0\n"
    "rel: v1^-1 v6^-1 v2 v6\n"
    "rel: v0^-1 v3^-1 v4 v3\n"
    "rel: v5^-1 v0^-1 v4 v0\n"
)

BOX_FOREST_C_TEXT = (
    "gens: v0 v1 v2 v3 v4 v5 v6\n"
    "rel: v1^-1 v6^-1 v0 v6\n"
    "rel: v5^-1 v0^-1 v6 v0\n"
    "rel: v1^-1 v6^-1 v5 v6\n"
    "rel: v3^-1 v4^-1 v2 v4\n"
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
